import copy
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import chains, core
from sumprod.chains import (
    DIAGNOSTIC,
    EXACT,
    ChainStep,
    chain_balanced,
    chain_large,
    chain_small,
    chain_unbalanced,
    energy_bound_audit,
    extract_half_subset,
    prop51_audit,
)
from sumprod.core import MINUS, PLUS, dilate, make_field, negate, ratio_set
from sumprod.errors import EmptyOperand
from sumprod.lemmas import katz_shen_subset

F5 = make_field(5)
F7 = make_field(7)
F11 = make_field(11)
F13 = make_field(13)
F31 = make_field(31)


def _exact_steps_pass(report):
    return all(s.passed for s in report.steps if s.kind == EXACT)


class TestChainSmall:
    def test_worked_example(self):
        r = chain_small(F7.fset([1, 2, 3]), PLUS)
        assert _exact_steps_pass(r) and not r.violation
        assert Fraction(r.final_num, r.final_den) == Fraction(5**8 * 5**4, 3**13)

    def test_singleton_degenerate(self):
        r = chain_small(F7.fset([4]), PLUS)
        assert not r.violation
        assert Fraction(r.final_num, r.final_den) == 1

    def test_geometric_p31(self):
        r = chain_small(F31.fset([1, 2, 4, 8, 16]), PLUS)
        assert not r.violation
        assert r.final_ratio > 0

    def test_both_signs(self):
        for sign in (PLUS, MINUS):
            assert not chain_small(F7.fset([1, 2, 3]), sign).violation

    def test_hypothesis_warning(self):
        assert chain_small(F7.fset([1, 2, 3])).warnings  # 9 > 7
        assert not chain_small(F13.fset([1, 2, 3])).warnings

    def test_empty(self):
        with pytest.raises(EmptyOperand):
            chain_small(F7.fset([]))


class TestChainLarge:
    def test_small_bucket_forces_spade(self):
        r = chain_large(F5.fset([1, 2]))
        assert r.case == "spade" and not r.violation
        assert r.final_is_squared

    def test_full_field_p11(self):
        r = chain_large(F11.fset(range(1, 11)))
        assert r.case in ("spade", "club") and not r.violation

    def test_singleton(self):
        assert not chain_large(F7.fset([2])).violation

    def test_branch_soundness(self):
        # club requires a full ratio set AND a large bucket
        from sumprod.lemmas import chang_decompose, select_j0
        from sumprod.chains import _front_end

        for A in (F11.fset(range(1, 11)), F13.fset([1, 2, 3, 5, 8, 9, 11])):
            steps = []
            _, _, d = _front_end(A, PLUS, steps)
            j0, _ = select_j0(d)
            zj0 = d.buckets[j0]
            r = chain_large(A)
            if r.case == "club":
                assert zj0.card >= 2 and ratio_set(zj0).card == A.field.p
                assert zj0.card**2 > A.field.p

    def test_hypothesis_warning(self):
        assert chain_large(F13.fset([1, 2])).warnings
        assert not chain_large(F5.fset([1, 2, 3])).warnings


class TestProp51:
    def test_worked_example(self):
        r = prop51_audit(F7.fset([1, 2, 3]), F7.fset([1, 2]))
        assert _exact_steps_pass(r) and not r.violation

    def test_singleton(self):
        r = prop51_audit(F7.fset([3]), F7.fset([3]))
        assert not r.violation

    def test_p13_example(self):
        r = prop51_audit(F13.fset([1, 2, 3, 5, 8]), F13.fset([1, 3, 9]))
        assert not r.violation
        assert any(s.kind == DIAGNOSTIC for s in r.steps)

    def test_covers_present_for_multi_element_buckets(self):
        r = prop51_audit(F7.fset([1, 2, 3]), F7.fset([1, 2]))
        assert any("cover budget" in s.name for s in r.steps)
        assert any("four-cover product" in s.name for s in r.steps)


class TestChainUnbalanced:
    def test_worked_example(self):
        r = chain_unbalanced(F11.fset([1, 2, 3, 4]), F11.fset([1, 2]), "T13")
        assert not r.violation
        names = [s.name for s in r.steps]
        assert any("symmetric" in n for n in names)

    def test_same_set(self):
        r = chain_unbalanced(F7.fset([1, 2, 3]), F7.fset([1, 2, 3]), "T13")
        assert not r.violation

    def test_branch_p13(self):
        r = chain_unbalanced(F13.fset(range(1, 13)), F13.fset([1, 5, 8]), "T14")
        assert not r.violation
        assert r.case in ("spade", "club")

    def test_bad_theorem(self):
        with pytest.raises(ValueError):
            chain_unbalanced(F7.fset([1]), F7.fset([1]), "T99")


class TestChainBalanced:
    def test_worked_example(self):
        r = chain_balanced(F7.fset([1, 2, 3]), F7.fset([1, 2, 3]))
        assert not r.violation
        assert Fraction(r.final_num, r.final_den) == Fraction(5**10 * 5**4, 3**15)

    def test_singletons(self):
        r = chain_balanced(F7.fset([2]), F7.fset([2]))
        assert not r.violation
        assert Fraction(r.final_num, r.final_den) == 1

    def test_p31(self):
        r = chain_balanced(F31.fset([1, 2, 4]), F31.fset([3, 5, 7]))
        assert not r.violation

    def test_imbalance_warning(self):
        assert chain_balanced(F31.fset([1]), F31.fset([1, 2, 3])).warnings


PAIR_CHAINS = {
    "P51": prop51_audit,
    "T13": lambda A, B: chain_unbalanced(A, B, "T13"),
    "T14": lambda A, B: chain_unbalanced(A, B, "T14"),
    "T15": chain_balanced,
}


@pytest.mark.parametrize("p", [5, 7])
def test_off_diagonal_exact_steps(p):
    """Every (A, B) with |A|, |B| <= 3, not only B = A: each exact step of the
    two-set chains holds, and exactly the pairs where one of A, B is {0}
    (the other has a nonzero element) are refused."""
    field = make_field(p)
    sets = [field.fset(c) for n in (1, 2, 3) for c in itertools.combinations(range(p), n)]
    failed, refused = [], set()
    for A, B in itertools.product(sets, repeat=2):
        for name, call in PAIR_CHAINS.items():
            try:
                report = call(A, B)
            except EmptyOperand:
                refused.add((name, A.mask, B.mask))
                continue
            failed += [(name, list(A), list(B), s.name) for s in report.steps
                       if s.kind == EXACT and not s.passed]
    assert failed == []
    lone_zero = [(A.mask, B.mask) for A, B in itertools.product(sets, repeat=2)
                 if (A.mask == 1) != (B.mask == 1)]
    assert refused == {(name, a, b) for name in PAIR_CHAINS for a, b in lone_zero}
    assert len(lone_zero) == 2 * (len(sets) - 1)


def test_zero_against_nonzero_is_refused():
    # A* = {0} would make the energy floor ask |B*|^2 <= 1
    for A, B in ((F5.fset([0]), F5.fset([1, 2])), (F5.fset([1, 2]), F5.fset([0]))):
        for call in PAIR_CHAINS.values():
            with pytest.raises(EmptyOperand, match=r"both be \{0\}"):
                call(A, B)
    assert not chain_balanced(F5.fset([0]), F5.fset([0])).violation


class TestEnergyBoundAudit:
    def test_worked_example(self):
        r = energy_bound_audit(F7.fset([1, 2]))
        assert not r.violation
        assert len(r.steps) == 6
        assert all(s.kind == DIAGNOSTIC for s in r.steps)
        assert all(s.ratio > 0 for s in r.steps)

    def test_singleton_all_ratios_one(self):
        r = energy_bound_audit(F7.fset([5]))
        assert all(s.ratio == 1 for s in r.steps)

    def test_p13(self):
        r = energy_bound_audit(F13.fset([1, 2, 3, 5]))
        assert all(s.ratio > 0 for s in r.steps)


def _two_extractions(A, sign):
    """Both Katz-Shen extractions, the second always run."""
    sA = A if sign == PLUS else negate(A)
    X1, _ = katz_shen_subset(A, [sA] * 3, chains._EXTRACTION_EPS)
    return katz_shen_subset(X1, [sA] * 3, chains._EXTRACTION_EPS)[0]


@st.composite
def _extraction_instance(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 67, 79, 101]))
    A = make_field(p).fset(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 10))))
    return A, draw(st.sampled_from([PLUS, MINUS]))


class TestExtraction:
    def test_small_is_exhaustive(self):
        Z, label = extract_half_subset(F7.fset([1, 2, 3]), PLUS)
        assert label == "exhaustive"
        assert 2 * Z.card >= 3

    def test_large_is_heuristic(self, monkeypatch):
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        field = make_field(37)
        A = field.fset(range(1, 17))
        Z, label = extract_half_subset(A, PLUS)
        assert label == "heuristic"
        assert 2 * Z.card >= A.card
        assert Z.mask & ~A.mask == 0

    @settings(max_examples=80, deadline=None)
    @given(_extraction_instance())
    def test_matches_two_explicit_extractions(self, inst):
        A, sign = inst
        assert extract_half_subset(A, sign) == (_two_extractions(A, sign), "exhaustive")

    def test_second_extraction_runs_when_the_first_drops(self, monkeypatch):
        A = make_field(41).fset([3, 11, 25, 38, 39])
        bases = []
        extract = chains.katz_shen_subset
        counted = lambda B0, Bs, eps: bases.append(B0) or extract(B0, Bs, eps)  # noqa: E731
        monkeypatch.setattr(chains, "katz_shen_subset", counted)
        Z, _ = extract_half_subset(A, MINUS)
        assert bases == [A, A.field.fset([11, 25, 38, 39])]
        assert Z == _two_extractions(A, MINUS)


def test_dilation_invariance_of_reports():
    A = F13.fset([1, 2, 5])
    for u in (2, 7, 12):
        r1, r2 = chain_small(A), chain_small(dilate(A, u))
        assert (r1.final_num, r1.final_den) == (r2.final_num, r2.final_den)
        b1, b2 = chain_balanced(A, A), chain_balanced(dilate(A, u), dilate(A, u))
        assert (b1.final_num, b1.final_den) == (b2.final_num, b2.final_den)


def test_reports_share_pigeonhole_step_names():
    # a sweep keeps every report, so a name string built per call costs memory
    A, B = F13.fset([1, 2, 5]), F13.fset([1, 3, 4, 9])
    for make in (chain_large, lambda X: chain_balanced(X, X), lambda X: chain_unbalanced(X, X, "T14")):
        n1, n2 = ([s.name for s in make(X).steps if "pigeonhole" in s.name] for X in (A, B))
        assert n1 and n1 == n2
        assert all(a is b for a, b in zip(n1, n2))


class TestOneBuildPerReport:
    """A report builds each set once: a repeated extraction, sum or cover fails here."""

    def test_one_extraction_when_the_first_keeps_a(self, monkeypatch):
        calls = []
        extract = chains.katz_shen_subset
        monkeypatch.setattr(chains, "katz_shen_subset", lambda *args: calls.append(args) or extract(*args))
        chain_small(F7.fset([1, 2, 3]), PLUS)
        assert len(calls) == 1

    def test_energy_audit_sums(self, monkeypatch):
        calls = []
        add = core.sumset
        counted = lambda *args: calls.append(args) or add(*args)  # noqa: E731
        monkeypatch.setattr(chains, "sumset", counted)
        monkeypatch.setattr(core, "sumset", counted)  # signed_combination's own calls
        energy_bound_audit(F13.fset([1, 2, 3, 5]))
        # A+A and A-A, then two more terms on each of A+A-A-A, 4A and A-A-A-A
        assert len(calls) == 8

    def test_one_cover_per_distinct_pair(self, monkeypatch):
        A = F7.fset([1, 2, 3, 5])  # its one bucket's quadruple has a = c = 1
        chains._p51.cache_clear()
        chains._pair_decomposition.cache_clear()
        calls = []
        cover = chains.greedy_cover
        monkeypatch.setattr(chains, "greedy_cover", lambda *args: calls.append(args) or cover(*args))
        r = prop51_audit(A, A)
        budgets = [s.name for s in r.steps if "cover budget" in s.name]
        assert [name.split("(x=")[1][0] for name in budgets] == ["1", "3", "1", "5"]
        assert len(calls) == 3
        assert len({(B1.mask, B2.mask) for B1, B2, _ in calls}) == 3


MEMO_PAIRS = [
    (F13.fset([1, 2, 3, 5, 8]), F13.fset([1, 3, 9])),
    (F13.fset([1, 3, 9]), F13.fset([1, 2, 3, 5, 8])),
    (F7.fset([1, 2, 3]), F7.fset([1, 2])),
    (F11.fset([0, 1, 2, 3, 4]), F11.fset([0, 1, 2])),
    (F13.fset(range(1, 13)), F13.fset([1, 5, 8])),
]
MEMO_CALLS = {
    "P51": prop51_audit,
    "T13": lambda A, B: chain_unbalanced(A, B, "T13"),
    "T14": lambda A, B: chain_unbalanced(A, B, "T14"),
    "T15": chain_balanced,
}


@pytest.fixture
def unmemoized(monkeypatch):
    """Every (pair, theorem) report computed with both memos bypassed."""
    with monkeypatch.context() as m:
        m.setattr(chains, "_p51", chains._p51.__wrapped__)
        m.setattr(chains, "_pair_decomposition", chains._pair_decomposition.__wrapped__)
        return {(i, name): call(A, B) for i, (A, B) in enumerate(MEMO_PAIRS)
                for name, call in MEMO_CALLS.items()}


class TestP51Memo:
    @pytest.mark.parametrize("order", list(itertools.permutations(MEMO_CALLS)))
    def test_every_call_order(self, unmemoized, order):
        for i, (A, B) in enumerate(MEMO_PAIRS):
            for _ in range(2):  # the second pass reads every entry from the memo
                for name in order:
                    assert MEMO_CALLS[name](A, B) == unmemoized[i, name]
            chains._p51.cache_clear()
            chains._pair_decomposition.cache_clear()
            assert MEMO_CALLS[order[-1]](A, B) == unmemoized[i, order[-1]]

    def test_interleaved_pairs(self, unmemoized):
        rng = random.Random(3)
        calls = [(i, name) for i in range(len(MEMO_PAIRS)) for name in MEMO_CALLS] * 3
        rng.shuffle(calls)
        for i, name in calls:
            assert MEMO_CALLS[name](*MEMO_PAIRS[i]) == unmemoized[i, name]

    def test_t14_extends_p51(self):
        A, B = MEMO_PAIRS[0]
        t14 = chain_unbalanced(A, B, "T14")
        p51 = prop51_audit(A, B)
        assert t14.steps[: len(p51.steps)] == p51.steps
        assert chains._p51.cache_info().hits == 1

    def test_fresh_inputs(self):
        A, B = MEMO_PAIRS[0]
        for name, call in MEMO_CALLS.items():
            first = call(A, B)
            want = copy.deepcopy(first.inputs)
            first.inputs["a"].append(99)
            first.inputs["p"] = 0
            assert call(A, B).inputs == want, name

    def test_keyed_by_both_sets(self):
        A = F13.fset([1, 2, 3, 5, 8])
        r1 = prop51_audit(A, F13.fset([1, 3, 9]))
        r2 = prop51_audit(A, F13.fset([1, 2]))
        assert r1.inputs["b"] != r2.inputs["b"]
        assert (r1.final_num, r1.final_den) != (r2.final_num, r2.final_den)
        assert r1.steps != r2.steps

    def test_bounded(self):
        maxsize = chains._p51.cache_info().maxsize
        assert maxsize is not None
        for combo in itertools.combinations(range(7), 3):
            A = F7.fset(combo)
            for call in MEMO_CALLS.values():
                call(A, A)
        info = chains._p51.cache_info()
        assert info.currsize <= maxsize < info.misses
        assert info.hits == 2 * info.misses  # T13 and T14 reuse the P51 run


class TestPairDecompositionMemo:
    """P51 and T15 open on one (A*, B*) decomposition, kept in _pair_decomposition."""

    def test_t15_reuses_the_p51_decomposition(self, monkeypatch):
        calls = []
        decompose = chains.chang_decompose
        monkeypatch.setattr(chains, "chang_decompose", lambda Y, Z: calls.append((Y, Z)) or decompose(Y, Z))
        A, B = MEMO_PAIRS[3]  # 0 in both: the decomposition is of A* and B*
        p51 = prop51_audit(A, B)
        t15 = chain_balanced(A, B)
        assert calls == [(F11.fset([1, 2, 3, 4]), F11.fset([1, 2]))]
        assert chains._pair_decomposition.cache_info().hits == 1
        # each keeps its own pivot label
        assert "a0 pigeonhole: Ex(A*,B*) <= s_sum*|A*|" in [s.name for s in p51.steps]
        assert "pivot pigeonhole: Ex(A*,B*) <= s_sum*|A*|" in [s.name for s in t15.steps]

    def test_cold_t15_gives_the_same_report(self):
        for A, B in MEMO_PAIRS:
            chains._pair_decomposition.cache_clear()
            cold = chain_balanced(A, B)
            assert chains._pair_decomposition.cache_info().misses == 1
            prop51_audit(A, B)
            assert chain_balanced(A, B) == cold

    def test_lone_zero_refused_with_a_warm_memo(self):
        # the refusal runs before the memo, even when the memo holds the pair itself
        zero, X = F5.fset([0]), F5.fset([1, 2])
        for A, B in ((zero, X), (X, zero)):
            chain_balanced(zero, zero)
            prop51_audit(X, X)
            chains._pair_decomposition(A, B)
            for call in PAIR_CHAINS.values():
                with pytest.raises(EmptyOperand, match=r"both be \{0\}"):
                    call(A, B)

    def test_bounded(self):
        maxsize = chains._pair_decomposition.cache_info().maxsize
        assert maxsize is not None
        for combo in itertools.combinations(range(7), 3):
            A = F7.fset(combo)
            prop51_audit(A, A)
            chain_balanced(A, A)
        info = chains._pair_decomposition.cache_info()
        assert info.currsize <= maxsize < info.misses
        assert info.hits == info.misses  # T15 reuses each P51 run


STEP_FIELDS = ["name", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "kind", "passed"]


class TestChainStep:
    def test_keeps_the_frozen_dataclass_behaviour(self):
        s = ChainStep("zero removal", 3, 1, 4, 1, EXACT, True)
        assert [f.name for f in dataclasses.fields(s)] == STEP_FIELDS
        assert ChainStep(**dict(zip(STEP_FIELDS, ("zero removal", 3, 1, 4, 1, EXACT, True)))) == s
        assert chains.exact_step("zero removal", 3, 4) == s
        for name in STEP_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del s.kind
        # a name that is no field has no slot either; on Python 3.10 and 3.11 the
        # frozen __setattr__ tests it against the class as it was before slots
        # were added, so it ends in super()'s TypeError, as on any frozen
        # slotted dataclass of the running Python
        @dataclasses.dataclass(frozen=True, slots=True)
        class Stock:
            name: str

        with pytest.raises(Exception) as stock:
            Stock("x").other = 0
        if sys.version_info < (3, 12):
            assert stock.type is TypeError
        with pytest.raises(Exception) as err:
            s.other = 0
        assert err.type is stock.type
        assert not hasattr(s, "other")
        t = dataclasses.replace(s, rhs_num=2, passed=False)
        assert (t.name, t.lhs_num, t.rhs_num, t.passed) == ("zero removal", 3, 2, False)
        assert (s.rhs_num, s.passed) == (4, True) and t != s
        assert hash(s) == hash(("zero removal", 3, 1, 4, 1, EXACT, True))
        assert repr(s) == (
            "ChainStep(name='zero removal', lhs_num=3, lhs_den=1, rhs_num=4, rhs_den=1, kind='exact', passed=True)"
        )
        assert s != ("zero removal", 3, 1, 4, 1, EXACT, True)
        assert s.ratio == Fraction(3, 4)

    def test_slotted(self):
        s = chains.diag_step("final", 5, 7, 2, 3)
        assert not hasattr(s, "__dict__") and ChainStep.__slots__ == tuple(STEP_FIELDS)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back is not s and back.passed is None
        report = chain_small(F7.fset([1, 2, 3]))
        assert pickle.loads(pickle.dumps(report)) == report
