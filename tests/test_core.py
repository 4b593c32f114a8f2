import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import core
from sumprod.cli import jsonable
from sumprod.core import (
    MINUS,
    PLUS,
    dilate,
    make_field,
    negate,
    pair_counts,
    pair_energy,
    pattern_combination,
    product_set,
    ratio_set,
    rep_fn,
    scale,
    signed_combination,
    sumset,
)
from sumprod.errors import (
    CompositeModulus,
    EmptyOperand,
    FieldMismatch,
    GuardExceeded,
    ModulusTooSmall,
    TooSmall,
    ZeroDilation,
)
from sumprod.search import canonical_form

F5 = make_field(5)
F7 = make_field(7)


class TestMakeField:
    def test_f7_tables(self):
        assert F7.g == 3
        assert F7.exp_table == (1, 3, 2, 6, 4, 5)

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            make_field(4)

    def test_too_small(self):
        with pytest.raises(ModulusTooSmall):
            make_field(2)

    def test_size_guard(self, monkeypatch):
        assert 65521 < core.MAX_FIELD_P  # every prime the tests and the benchmark use
        build = make_field.__wrapped__  # past the cache of fields already built
        monkeypatch.setattr(core, "MAX_FIELD_P", 100)
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        assert build(97).p == 97
        for p in (101, 102):  # 102 is refused before the primality test
            with pytest.raises(GuardExceeded):
                build(p)
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        assert build(101).p == 101

    def test_dlog_roundtrip_large(self):
        import random

        field = make_field(99991)
        rng = random.Random(0)
        for _ in range(100):
            x = rng.randrange(1, field.p)
            assert field.exp_table[field.dlog_table[x]] == x

    def test_full_mask_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(core.PrimeField)] == [
            "p", "g", "exp_table", "dlog_table"]
        for p in (3, 7, 65521):
            F = make_field(p)
            assert F.full_mask == (1 << p) - 1
            assert repr(F) == f"PrimeField(p={p}, g={F.g})"
            twin = core.PrimeField(F.p, F.g, F.exp_table, F.dlog_table)
            twin.__dict__["full_mask"] = 0
            assert twin == F and hash(twin) == hash(F)
            back = pickle.loads(pickle.dumps(F))
            assert back == F and back.full_mask == F.full_mask
        F = make_field(65521)
        assert F.full_mask is F.full_mask  # computed once, not on each read
        assert "full_mask" not in dataclasses.asdict(make_field(7))

    def test_inverse(self):
        for x in range(1, 7):
            assert F7.inv(x) * x % 7 == 1
        with pytest.raises(ZeroDivisionError):
            F7.inv(0)


class TestFSet:
    def test_roundtrip_and_membership(self):
        A = F7.fset([9, 2, 2])  # 9 reduces to 2
        assert sorted(A) == [2]
        assert 2 in A and 9 in A and 3 not in A
        assert len(A) == 1

    def test_equality_hash(self):
        assert F7.fset([1, 2]) == F7.fset([2, 1])
        assert F7.fset([1]) != F5.fset([1])
        assert len({F7.fset([1, 2]), F7.fset([2, 1])}) == 1

    def test_negative_mask_refused(self):
        # _bits would peel the low bit of a negative mask forever
        with pytest.raises(ValueError, match="nonnegative"):
            F7.fset_from_mask(-1)
        with pytest.raises(ValueError, match="index >= p"):
            F7.fset_from_mask(1 << 7)

    def test_element_cache_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(core.FSet)] == ["field", "mask", "card"]
        F = make_field(1009)
        for mask in (0b1011, (1 << 200) - 1, F.full_mask):
            decoded, fresh = F.fset_from_mask(mask), F.fset_from_mask(mask)
            decoded.elements()
            assert decoded == fresh and hash(decoded) == hash(fresh)
            assert repr(decoded) == repr(fresh) and jsonable(decoded) == jsonable(fresh)
            for s in (decoded, fresh):
                back = pickle.loads(pickle.dumps(s))
                assert back == s and back.card == s.card and tuple(back) == tuple(s)

    def test_canonical_form_decodes_once(self, monkeypatch):
        # the p - 2 dilates each iterate A; only the first iteration decodes its mask
        bits, decoded = core._bits, []

        def counting_bits(mask):
            decoded.append(mask)
            return bits(mask)

        monkeypatch.setattr(core, "_bits", counting_bits)
        A = make_field(1009).fset([1, 5, 17, 400, 1008])
        canonical_form(A)
        assert decoded == [A.mask]


class TestSumset:
    def test_examples(self):
        assert sorted(sumset(F7.fset([1, 2]), F7.fset([3, 5]))) == [0, 4, 5, 6]
        assert sorted(sumset(F7.fset([1, 2]), F7.fset([3, 5]), MINUS)) == [3, 4, 5, 6]
        assert sorted(sumset(F5.fset([0]), F5.full_set())) == [0, 1, 2, 3, 4]

    def test_method_equivalence_examples(self):
        A, B = F7.fset([1, 2, 4]), F7.fset([0, 3])
        for sign in (PLUS, MINUS):
            assert sumset(A, B, sign) == sumset(A, B, sign, method="naive")

    def test_errors(self):
        with pytest.raises(FieldMismatch):
            sumset(F7.fset([1]), F5.fset([1]))
        with pytest.raises(EmptyOperand):
            sumset(F7.fset([]), F7.fset([1]))
        with pytest.raises(ValueError):
            sumset(F7.fset([1]), F7.fset([1]), "times")


class TestSignedCombination:
    def test_examples(self):
        Z = F7.fset([1, 2])
        assert sorted(signed_combination([(Z, PLUS), (Z, PLUS), (Z, MINUS)])) == [0, 1, 2, 3]
        assert sorted(pattern_combination(Z, "++--")) == [0, 1, 2, 5, 6]
        assert signed_combination([(Z, PLUS)]) == Z
        assert sorted(signed_combination([(Z, MINUS)])) == [5, 6]

    def test_empty(self):
        with pytest.raises(EmptyOperand):
            signed_combination([])
        with pytest.raises(ValueError):
            pattern_combination(F7.fset([1]), "+*")


class TestProductSet:
    def test_examples(self):
        assert sorted(product_set(F7.fset([3, 5]), F7.fset([2]))) == [3, 6]
        assert sorted(product_set(F7.fset([0, 3]), F7.fset([2, 4]))) == [0, 5, 6]
        assert sorted(product_set(F5.fset([1, 2]), F5.fset([1, 2]))) == [1, 2, 4]

    def test_zero_only(self):
        assert sorted(product_set(F5.fset([0]), F5.fset([1, 2]))) == [0]

    def test_method_equivalence_examples(self):
        A, B = F7.fset([0, 1, 5]), F7.fset([2, 6])
        assert product_set(A, B) == product_set(A, B, method="naive")


class TestRatioSet:
    def test_examples(self):
        assert sorted(ratio_set(F5.fset([0, 1]))) == [0, 1, 4]
        assert sorted(ratio_set(F7.fset([1, 2]))) == [0, 1, 6]
        assert ratio_set(F7.fset([1, 2, 4])) == F7.full_set()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            ratio_set(F7.fset([3]))


def _naive_ratio_set(A):
    p = A.field.p
    return A.field.fset((a - b) * A.field.inv(c - d) % p
                        for a in A for b in A for c in A for d in A if c != d)


def _kernel_operands(p):
    """Operand pairs with 0 and p - 1, |B| > |A|, and the full set."""
    F = make_field(p)
    rng = random.Random(p)
    small = F.fset([0, p - 1])
    mid = F.fset(rng.sample(range(p), min(p, 5)) + [0, p - 1])
    wide = F.fset(rng.sample(range(p), min(p - 1, 40)))
    full = F.full_set()
    top = F.fset([p - 1])
    return [(small, mid), (mid, small), (top, wide), (wide, top), (small, full), (full, mid),
            (F.fset([0]), wide), (full, full) if p < 100 else (top, full)]


def _assert_kernel_output(S, p):
    assert S.mask >= 0 and S.mask >> p == 0  # no bit at index >= p
    assert S.card == S.mask.bit_count()


class TestKernelOutput:
    """Sets built by the rotation kernel are valid masks and match the naive oracles."""

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_sumset_and_product_set(self, p):
        for A, B in _kernel_operands(p):
            for sign in (PLUS, MINUS):
                S = sumset(A, B, sign)
                _assert_kernel_output(S, p)
                assert S == sumset(A, B, sign, method="naive")
            P = product_set(A, B)
            _assert_kernel_output(P, p)
            assert P == product_set(A, B, method="naive")

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_signed_combination_and_ratio_set(self, p):
        F = make_field(p)
        for A, B in _kernel_operands(p):
            terms = [(A, MINUS), (B, PLUS), (F.fset([p - 1]), MINUS)]
            S = signed_combination(terms)
            _assert_kernel_output(S, p)
            naive = F.fset((-a) % p for a in A)
            for T, sign in terms[1:]:
                naive = sumset(naive, T, sign, method="naive")
            assert S == naive
            if 2 <= A.card <= 8:
                R = ratio_set(A)
                _assert_kernel_output(R, p)
                assert R == _naive_ratio_set(A)
        R = ratio_set(F.full_set())
        _assert_kernel_output(R, p)
        assert R == F.full_set()

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_fset_from_mask_still_validates(self, p):
        F = make_field(p)
        assert F.fset_from_mask(F.full_mask).card == p
        with pytest.raises(ValueError, match="mask must be nonnegative"):
            F.fset_from_mask(-1)
        with pytest.raises(ValueError, match="mask has bits at index >= p"):
            F.fset_from_mask(1 << p)

    def test_operand_errors_unchanged(self):
        A7, A5, E7 = F7.fset([1, 2]), F5.fset([1]), F7.fset([])
        for op in (sumset, lambda A, B: sumset(A, B, MINUS), product_set):
            with pytest.raises(FieldMismatch) as exc:
                op(A7, A5)
            assert str(exc.value) == "operands over p=7 and p=5"
            for A, B in ((E7, A7), (A7, E7)):
                with pytest.raises(EmptyOperand) as exc:
                    op(A, B)
                assert str(exc.value) == "operation requires nonempty operands"
        with pytest.raises(FieldMismatch):  # the field test comes first
            sumset(E7, F5.fset([]))


class TestDilate:
    def test_examples(self):
        assert sorted(dilate(F7.fset([1, 2]), 3)) == [3, 6]
        assert dilate(F7.fset([1, 2]), 1) == F7.fset([1, 2])
        with pytest.raises(ZeroDilation):
            dilate(F7.fset([1, 2]), 0)

    def test_negate_and_scale(self):
        assert sorted(negate(F7.fset([1, 2]))) == [5, 6]
        assert sorted(scale(F7.fset([1, 2]), 0)) == [0]
        assert scale(F7.fset([1, 2]), 3) == dilate(F7.fset([1, 2]), 3)


class TestRepFn:
    def test_examples(self):
        assert rep_fn(F5.fset([1, 2]), F5.fset([1, 2]), MINUS).counts == (2, 1, 0, 0, 1)
        assert rep_fn(F5.fset([0]), F5.fset([0])).counts == (1, 0, 0, 0, 0)
        assert rep_fn(F7.fset([1, 2, 3]), F7.fset([1, 2, 3]), MINUS).counts == (3, 2, 1, 0, 0, 1, 2)

    def test_total(self):
        r = rep_fn(F7.fset([1, 2, 3]), F7.fset([2, 4]))
        assert r.total == 6 == sum(r.counts)
        assert r[9] == r.counts[2]

    def test_over_pair_threshold_matches_loop(self):
        field = make_field(127)
        A = field.fset(range(1, 60))
        B = field.fset(range(2, 50))  # 59*48 pairs, over the numpy threshold
        plus, minus = [0] * 127, [0] * 127
        for a in A:
            for b in B:
                plus[(a + b) % 127] += 1
                minus[(a - b) % 127] += 1
        assert list(rep_fn(A, B, PLUS).counts) == plus
        assert list(rep_fn(A, B, MINUS).counts) == minus


def _loop_pair_counts(xs, ys, m, xw=None, yw=None):
    xw = [1] * len(xs) if xw is None else xw
    yw = [1] * len(ys) if yw is None else yw
    counts = [0] * m
    for x, a in zip(xs, xw):
        for y, b in zip(ys, yw):
            counts[(x - y) % m] += a * b
    return counts


class TestPairCounts:
    @pytest.mark.parametrize("nx, ny", [(31, 33), (1, 1023), (32, 32), (1, 1024), (59, 48)])
    def test_both_sides_of_threshold(self, nx, ny):
        # 1023 pairs take the loop, 1024 and more the numpy branch
        rng = random.Random(nx * 1000 + ny)
        xs = [rng.randrange(-50, 200) for _ in range(nx)]
        ys = [rng.randrange(-50, 200) for _ in range(ny)]
        xw = [rng.randrange(0, 5000) for _ in range(nx)]
        yw = [rng.randrange(0, 5000) for _ in range(ny)]
        for m in (1, 2, 127, 1009):
            for got, want in (
                (pair_counts(xs, ys, m), _loop_pair_counts(xs, ys, m)),
                (pair_counts(xs, ys, m, xw, yw), _loop_pair_counts(xs, ys, m, xw, yw)),
            ):
                assert got == want
                assert all(type(c) is int for c in got)

    def test_repeated_entries(self):
        xs = [3] * 40 + [5] * 30
        ys = [1] * 20 + [3] * 20
        got = pair_counts(xs, ys, 7)
        assert got == _loop_pair_counts(xs, ys, 7)
        assert got[2] == 40 * 20 + 30 * 20 and got[0] == 40 * 20 and got[4] == 30 * 20

    @pytest.mark.parametrize("nx, ny", [(2, 2), (40, 40)])
    def test_weights_are_multiplicities(self, nx, ny):
        # weights w count the same as each entry repeated w times, on both branches
        xs, ys = [3, 5] * (nx // 2), [1, 3] * (ny // 2)
        xw, yw = [40, 30] * (nx // 2), [20, 20] * (ny // 2)
        want = _loop_pair_counts(
            [x for x, w in zip(xs, xw) for _ in range(w)],
            [y for y, w in zip(ys, yw) for _ in range(w)],
            7,
        )
        assert pair_counts(xs, ys, 7, xw, yw) == want

    @pytest.mark.parametrize("block", [1, 40, 82, 205, 53 * 41 - 1])
    def test_block_boundary(self, monkeypatch, block):
        # blocks of max(1, block // 41) rows out of 53; the last one is partial
        monkeypatch.setattr(core, "_PAIR_BLOCK", block)
        rng = random.Random(block)
        xs = [rng.randrange(1000) for _ in range(53)]
        ys = [rng.randrange(1000) for _ in range(41)]
        xw = [rng.randrange(100) for _ in range(53)]
        assert pair_counts(xs, ys, 101) == _loop_pair_counts(xs, ys, 101)
        assert pair_counts(xs, ys, 101, xw) == _loop_pair_counts(xs, ys, 101, xw)


def _loop_energy(ys, zs, m):
    return sum(a * b for a, b in zip(_loop_pair_counts(ys, ys, m), _loop_pair_counts(zs, zs, m)))


class TestPairEnergy:
    # 31 entries count 961 pairs in a dict, 32 count 1024 through numpy
    @pytest.mark.parametrize("ny, nz", [(1, 1), (31, 31), (32, 32), (31, 32), (3, 40), (70, 5)])
    @pytest.mark.parametrize("m", [1, 2, 127, 1009, 65520])
    def test_matches_loop(self, ny, nz, m):
        rng = random.Random(ny * 1000 + nz)
        ys = [rng.randrange(-50, 70000) for _ in range(ny)]
        zs = [rng.randrange(-50, 70000) for _ in range(nz)]
        for a, b in ((ys, zs), (zs, ys), (ys, ys), (ys, list(ys))):
            got = pair_energy(a, b, m)
            assert got == _loop_energy(a, b, m)
            assert type(got) is int

    @pytest.mark.parametrize("k", [1, 4])
    def test_repeated_entries(self, k):
        # multiplicities a, b at 3, 5 and c, d at 1, 3: differences 0 and +-2 mod 7
        a, b, c, d = 10 * k, 5 * k, 4 * k, 2 * k
        ys, zs = [3] * a + [5] * b, [1] * c + [3] * d
        want = (a * a + b * b) * (c * c + d * d) + 2 * a * b * c * d
        assert pair_energy(ys, zs, 7) == _loop_energy(ys, zs, 7) == want

    def test_empty_operand(self):
        assert pair_energy([], [1, 2], 7) == pair_energy(list(range(40)), [], 7) == 0

    def test_python_int_sum_beyond_int64_bound(self, monkeypatch):
        # 40 distinct residues: r(0) = 40 is the largest count, so the dot's bound is 40^2 * 40
        ys = list(range(0, 400, 10))
        summed = []
        monkeypatch.setattr(core, "mul", lambda a, b: summed.append(1) or a * b)
        for limit, python_ints in ((40**3 + 1, False), (40**3, True), (1, True)):
            monkeypatch.setattr(core, "_INT64_LIMIT", limit)
            summed.clear()
            for zs in (ys, list(range(7, 407, 10))):
                got = pair_energy(ys, zs, 1009)
                assert got == _loop_energy(ys, zs, 1009)
                assert type(got) is int
            assert bool(summed) == python_ints


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 10**6)), max_size=70),
    st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 10**6)), max_size=70),
    st.integers(1, 400),
)
def test_pair_counts_matches_loop(xws, yws, m):
    xs, xw = [x for x, _ in xws], [w for _, w in xws]
    ys, yw = [y for y, _ in yws], [w for _, w in yws]
    assert pair_counts(xs, ys, m) == _loop_pair_counts(xs, ys, m)
    assert pair_counts(xs, ys, m, xw, yw) == _loop_pair_counts(xs, ys, m, xw, yw)


_prime = st.sampled_from([5, 7, 11, 13, 17, 19, 23])


@st.composite
def _field_and_two_sets(draw):
    p = draw(_prime)
    field = make_field(p)
    a = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    b = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    return field.fset(a), field.fset(b)


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_sumset_methods_agree(ab):
    A, B = ab
    for sign in (PLUS, MINUS):
        assert sumset(A, B, sign) == sumset(A, B, sign, method="naive")


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_product_methods_agree(ab):
    A, B = ab
    assert product_set(A, B) == product_set(A, B, method="naive")


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_cauchy_davenport(ab):
    A, B = ab
    p = A.field.p
    assert sumset(A, B).card >= min(p, A.card + B.card - 1)


@settings(max_examples=100, deadline=None)
@given(_field_and_two_sets(), st.integers(1, 22))
def test_dilation_invariance(ab, u):
    A, _ = ab
    p = A.field.p
    u = u % p or 1
    uA = dilate(A, u)
    for sign in (PLUS, MINUS):
        assert sumset(uA, uA, sign).card == sumset(A, A, sign).card
    assert product_set(uA, uA).card == product_set(A, A).card
