import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import lemmas
from sumprod.core import MINUS, PLUS, make_field, sumset
from sumprod.energy import multiplicative_energy
from sumprod.errors import (
    BadEpsilon,
    BadParameters,
    EmptyDecomposition,
    EmptyOperand,
    GuardExceeded,
    RatioSetFull,
    TooSmall,
)
from sumprod.lemmas import (
    bucket_index,
    chang_decompose,
    chang_floor_holds,
    greedy_cover,
    gk_witness,
    katz_shen_subset,
    plunnecke_audit,
    select_j0,
    xi_search,
)

F5 = make_field(5)
F7 = make_field(7)
F13 = make_field(13)


class TestGreedyCover:
    def test_worked_example(self):
        res = greedy_cover(F13.fset(range(6)), F13.fset([0, 1]), PLUS)
        assert res.translates == (0, 2, 4)
        assert res.covered == F13.fset(range(6))
        assert res.budget == 18
        assert res.ratio_k == Fraction(7, 2)

    def test_identity(self):
        B = F7.fset([2, 4, 5])
        res = greedy_cover(B, B, PLUS)
        assert res.translates == (0,)

    def test_singleton_offsets(self):
        res = greedy_cover(F7.fset([0]), F7.fset([3]), PLUS)
        assert res.translates == (4,)
        res = greedy_cover(F7.fset([0]), F7.fset([3]), MINUS)
        assert res.translates == (3,)

    def test_random_sweep_budget_and_coverage(self):
        rng = random.Random(3)
        for _ in range(80):
            p = rng.choice([5, 7, 11, 13, 17])
            field = make_field(p)
            B1 = field.fset(rng.sample(range(p), rng.randint(1, p)))
            B2 = field.fset(rng.sample(range(p), rng.randint(1, p)))
            mode = rng.choice([PLUS, MINUS])
            res = greedy_cover(B1, B2, mode)
            assert 100 * res.covered.card >= 99 * B1.card
            assert len(res.translates) <= res.budget
            # each translate really is c +/- B2 restricted to B1
            union = 0
            for c in res.translates:
                if mode == PLUS:
                    tr = field.fset((c + b) % p for b in B2)
                else:
                    tr = field.fset((c - b) % p for b in B2)
                union |= tr.mask
            assert res.covered.mask & ~union == 0
            assert res.covered.mask & ~B1.mask == 0


class TestKatzShen:
    def test_worked_example(self):
        B0 = F7.fset([0, 1])
        X, c_min = katz_shen_subset(B0, [B0], Fraction(2, 5))
        assert X == B0
        assert c_min == Fraction(1)

    def test_empty_terms(self):
        B0 = F7.fset([0, 1])
        X, c_min = katz_shen_subset(B0, [], Fraction(1, 2))
        assert X == B0 and c_min == 1

    def test_loose_eps_allows_singletons(self):
        B0 = F7.fset([0, 1])
        X, c_min = katz_shen_subset(B0, [B0], Fraction(9, 10))
        assert X.card >= 1
        assert c_min <= 1

    def test_a_repeated_term_is_summed_once(self, monkeypatch):
        calls = []
        add = lemmas.sumset
        monkeypatch.setattr(lemmas, "sumset", lambda *args: calls.append(args) or add(*args))
        B0, B = F13.fset([1, 2, 3]), F13.fset([0, 4])
        katz_shen_subset(B0, [B] * 3, Fraction(1, 2))
        # one denominator sum for the three equal terms, one per submask of at least 1.5 elements
        # (the tail B+B+B goes through signed_combination, outside this binding)
        assert len(calls) == 1 + 4

    def test_bad_eps(self):
        with pytest.raises(BadEpsilon):
            katz_shen_subset(F7.fset([0, 1]), [F7.fset([0, 1])], Fraction(1))

    def test_guard(self):
        big = F7.full_set()
        field17 = make_field(17)
        wide = field17.fset(range(16))
        with pytest.raises(GuardExceeded):
            katz_shen_subset(wide, [wide], Fraction(1, 4))
        with pytest.raises(GuardExceeded):
            katz_shen_subset(big, [big] * 4, Fraction(1, 4))

    def test_empty_term_raises_before_eps_and_guard(self):
        B0, E = F7.fset([0, 1]), F7.fset([])
        big, wide = F7.full_set(), make_field(17).fset(range(16))
        for base, terms, eps in ((B0, [B0, E], Fraction(1)), (wide, [make_field(17).fset([])], Fraction(1, 4)),
                                 (big, [big] * 3 + [E], Fraction(1, 4))):
            with pytest.raises(EmptyOperand):
                katz_shen_subset(base, terms, eps)


def _katz_shen_oracle(B0, Bs, eps):
    """The docstring formula over every subset of B0, with plain Python sets."""
    p = B0.field.p
    els = sorted(B0)
    tail = {0}
    for Bi in Bs:
        tail = {(t + b) % p for t in tail for b in Bi}
    scale = Fraction(1)
    for Bi in Bs:
        scale *= Fraction(len({(a + b) % p for a in els for b in Bi}), len(els))
    best = None
    for r in range(1, len(els) + 1):
        if r < (1 - Fraction(eps)) * len(els):
            continue
        for X in itertools.combinations(els, r):
            grown = len({(x + t) % p for x in X for t in tail})
            key = (grown / (scale * r), sum(1 << x for x in X))
            if best is None or key < best:
                best = key
    return best


@st.composite
def _katz_shen_instance(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    field = make_field(p)
    elems = st.integers(0, p - 1)
    B0 = field.fset(draw(st.sets(elems, min_size=1, max_size=min(p, 8))))
    k = draw(st.integers(1, 3))
    terms = st.sets(elems, min_size=1, max_size=p)
    if draw(st.booleans()):  # the chains' form: one term k times
        Bs = [field.fset(draw(terms))] * k
    else:
        Bs = [field.fset(draw(terms)) for _ in range(k)]
    eps = draw(st.one_of(
        st.just(1 - math.sqrt(2) / 2),  # the chains' extraction eps
        st.fractions(Fraction(1, 60), Fraction(59, 60), max_denominator=60)))
    return B0, Bs, eps


@settings(max_examples=120, deadline=None)
@given(_katz_shen_instance())
def test_katz_shen_subset_matches_exhaustive_oracle(inst):
    B0, Bs, eps = inst
    X, ratio = katz_shen_subset(B0, Bs, eps)
    want_ratio, want_mask = _katz_shen_oracle(B0, Bs, eps)
    assert (ratio, X.mask) == (want_ratio, want_mask)
    assert type(ratio) is Fraction and X.card == X.mask.bit_count()
    assert katz_shen_subset(B0, [], eps) == (B0, 1)


class TestGkWitness:
    def test_worked_example(self):
        w = gk_witness(F7.fset([1, 2]), "plus_plus")
        assert w.expr_card == 4
        assert w.expr_card >= w.target_num
        a, b, _, _ = w.quadruple
        assert a != b

    def test_ratio_set_full(self):
        with pytest.raises(RatioSetFull):
            gk_witness(F7.fset([1, 2, 4]))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            gk_witness(F7.fset([1]))


class TestXiSearch:
    def test_worked_example(self):
        xi, e_val = xi_search(F7.fset([1, 2, 3]))
        assert (xi, e_val) == (2, 13)
        # bound |A|^2 + |A|^4/(p-1) = 9 + 81/6 = 22.5
        assert e_val * 6 <= 9 * 6 + 81

    def test_singleton(self):
        _, e_val = xi_search(F5.fset([1]))
        assert e_val == 1

    def test_full_field(self):
        _, e_val = xi_search(F7.full_set())
        assert e_val * 6 <= 49 * 6 + 2401


class TestChangDecompose:
    def test_subgroup_example(self):
        Q = F7.fset([1, 2, 4])
        d = chang_decompose(Q, Q)
        assert d.s_sum == 9
        assert d.energy == 27
        assert d.buckets[2] == Q
        assert d.lhs == 16**2 * 27 == 6912
        assert (d.rhs_num, d.rhs_den) == (27**4, 3**4 * 3)
        assert Fraction(d.rhs_num, d.rhs_den) == 2187
        assert chang_floor_holds(d)

    def test_singleton(self):
        d = chang_decompose(F7.fset([1]), F7.fset([1]))
        assert sorted(d.buckets[1]) == [1]
        assert d.lhs == 16
        assert Fraction(d.rhs_num, d.rhs_den) == 1

    def test_pigeonhole_small(self):
        Y = F5.fset([1, 2])
        d = chang_decompose(Y, Y)
        assert d.s_sum * Y.card >= multiplicative_energy(Y, Y).value

    def test_bucket_partition_rule(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.choice([5, 7, 11, 13])
            field = make_field(p)
            Y = field.fset(rng.sample(range(1, p), rng.randint(1, p - 1)))
            Z = field.fset(rng.sample(range(1, p), rng.randint(1, p - 1)))
            d = chang_decompose(Y, Z)
            from sumprod.energy import MULTIPLICATIVE, intersection_count

            seen = 0
            for y in Y:
                v = intersection_count(d.pivot, y, Z, MULTIPLICATIVE)
                if v:
                    j = bucket_index(v)
                    assert y in d.buckets[j]
                    seen += 1
            assert sum(b.card for b in d.buckets.values()) == seen
            assert chang_floor_holds(d)

    def test_bucket_index(self):
        assert [bucket_index(v) for v in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]
        for k in range(1, 21):  # N_k ends at 2^k
            assert (bucket_index(1 << k), bucket_index((1 << k) + 1)) == (k, k + 1)
        with pytest.raises(ValueError):
            bucket_index(0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 1 << 20))
    def test_bucket_index_is_dyadic_log(self, n):
        # log2(2^k) = k exactly, and log2 of any other n <= 2^20 lies more than
        # 1e-6 from an integer, so the float ceil(log2 n) is exact here
        assert bucket_index(n) == max(1, math.ceil(math.log2(n)))


class TestSelectJ0:
    def test_subgroup_example(self):
        d = chang_decompose(F7.fset([1, 2, 4]), F7.fset([1, 2, 4]))
        j0, cert = select_j0(d)
        assert (j0, cert) == (2, 12)
        assert 4 * cert >= d.s_sum  # cert >= s_sum / (2*ceil(log2|Z|))

    def test_single_bucket(self):
        d = chang_decompose(F7.fset([1]), F7.fset([1]))
        assert select_j0(d)[0] == 1

    def test_exhaustive_comparison(self):
        d = chang_decompose(F7.fset([1, 2, 3]), F7.fset([1, 2, 3]))
        j0, cert = select_j0(d)
        best = max(2**j * b.card for j, b in d.buckets.items() if b.card)
        assert cert == best == 2**j0 * d.buckets[j0].card


class TestPlunnecke:
    def test_worked_example(self):
        a = plunnecke_audit(F7.fset([1, 2]), F7.fset([1, 2]), 4)
        assert a.lhs_doubling == 3 * 2 and a.rhs_doubling == 9
        assert a.lhs_iterated == 5 * 8 and a.rhs_iterated == 81
        assert a.passed

    def test_identity(self):
        a = plunnecke_audit(F7.fset([0]), F7.fset([0]), 2)
        assert a.passed and a.rhs_doubling == 1

    def test_k_range(self):
        with pytest.raises(BadParameters):
            plunnecke_audit(F7.fset([1]), F7.fset([1]), 7)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 7, 13, 101, 4099, 65521]), st.integers(2, 6), st.data())
    def test_matches_set_loop(self, p, k, data):
        sets = st.sets(st.integers(0, p - 1), min_size=1, max_size=10)
        a, b = data.draw(sets), data.draw(sets)

        def plus(X, Y):
            return {(x + y) % p for x in X for y in Y}

        kb = b
        for _ in range(k - 1):
            kb = plus(kb, b)
        field = make_field(p)
        audit = plunnecke_audit(field.fset(a), field.fset(b), k)
        assert audit.lhs_iterated == len(kb) * len(a) ** (k - 1)
        assert audit.lhs_doubling == len(plus(a, a)) * len(b)
        assert (audit.rhs_doubling, audit.rhs_iterated) == (len(plus(a, b)) ** 2, len(plus(a, b)) ** k)

    def test_sweep(self):
        rng = random.Random(9)
        for _ in range(60):
            p = rng.choice([5, 7, 11, 13, 101])
            field = make_field(p)
            A = field.fset(rng.sample(range(p), rng.randint(1, min(p, 10))))
            B = field.fset(rng.sample(range(p), rng.randint(1, min(p, 10))))
            assert plunnecke_audit(A, B, rng.randint(2, 6)).passed


def test_guard_override(monkeypatch):
    field17 = make_field(17)
    wide = field17.fset(range(16))
    monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
    X, _ = katz_shen_subset(wide, [], Fraction(1, 4))
    assert X == wide


def test_empty_decomposition_unreachable_via_public_api():
    # chang_decompose always fills the pivot's own bucket, so select_j0
    # can only fail on a hand-built decomposition
    from sumprod.lemmas import BucketDecomposition

    d = BucketDecomposition(
        pivot=1, buckets={1: F7.fset([])}, s_sum=0, energy=0, lhs=0,
        rhs_num=0, rhs_den=1, js_seq={}, y_card=1, z_card=1,
    )
    with pytest.raises(EmptyDecomposition):
        select_j0(d)
