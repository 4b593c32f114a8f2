import json
import math
from itertools import combinations

import pytest

from sumprod.core import make_field, ratio_set
from sumprod.errors import BadParameters, EmptyOperand, GuardExceeded
from sumprod.search import (
    anneal_extremal,
    canonical_form,
    exhaustive_extremal,
    objective,
    ratio_threshold_scan,
)

F5 = make_field(5)
F7 = make_field(7)
DROP = object()  # a checkpoint edit that deletes the key


def naive_minimum(p: int, n: int) -> int:
    """Canonicalization-free enumerator: the independent oracle."""
    field = make_field(p)
    return min(
        objective(field.fset(combo)) for combo in combinations(range(p), n)
    )


def brute_record(p: int, n: int) -> tuple[int, list[int], int]:
    """(best, witness masks, classes) over every n-subset kept by canonical_form."""
    field = make_field(p)
    classes = [A for A in map(field.fset, combinations(range(p), n)) if canonical_form(A) == A]
    best = min(map(objective, classes))
    return best, [A.mask for A in classes if objective(A) == best], len(classes)


def lex_ratio_scan(p: int) -> list[tuple[int, int | None]]:
    """(n, mask of the first canonical proper set in combinations order) per size."""
    field = make_field(p)
    out = []
    for n in range(2, p + 1):
        sets = map(field.fset, combinations(range(p), n))
        first = next((A for A in sets if canonical_form(A) == A and ratio_set(A).card < p), None)
        out.append((n, None if first is None else first.mask))
        if first is None:
            return out


class TestCanonicalForm:
    def test_examples(self):
        assert sorted(canonical_form(F5.fset([2, 4]))) == [1, 2]
        A = F7.fset([0, 1])
        assert canonical_form(A) == A  # already canonical

    def test_idempotent_and_objective_preserving(self):
        for elements in ([3, 5, 6], [1, 4], [0, 2, 3, 6]):
            A = F7.fset(elements)
            C = canonical_form(A)
            assert canonical_form(C) == C
            assert objective(C) == objective(A)
            assert C.mask == min(
                F7.fset(u * a % 7 for a in A).mask for u in range(1, 7)
            )

    def test_empty(self):
        with pytest.raises(EmptyOperand):
            canonical_form(F7.fset([]))


class TestExhaustive:
    def test_trivial_and_derived(self):
        assert exhaustive_extremal(7, 1).best_value == 1
        assert exhaustive_extremal(7, 2).best_value == 3

    def test_matches_naive_oracle(self):
        for p, n in ((7, 3), (11, 3), (13, 4)):
            rec = exhaustive_extremal(p, n)
            assert rec.best_value == naive_minimum(p, n)

    def test_witness_invariants(self):
        rec = exhaustive_extremal(11, 3)
        for w in rec.witnesses:
            assert w.card == 3
            assert objective(w) == rec.best_value
            assert canonical_form(w) == w

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            exhaustive_extremal(7, 0)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            exhaustive_extremal(101, 23)

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        ck = tmp_path / "ck.json"
        full = exhaustive_extremal(11, 3)
        exhaustive_extremal(11, 3, checkpoint_path=str(ck), checkpoint_every=7, max_steps=30)
        state = json.loads(ck.read_text())
        assert state["cursor"] == 30 and state["mode"] == "exhaustive"
        resumed = exhaustive_extremal(11, 3, checkpoint_path=str(ck))
        assert resumed.best_value == full.best_value
        assert resumed.witnesses == full.witnesses
        assert resumed.classes_visited == full.classes_visited

    def test_checkpoint_mismatch(self, tmp_path):
        ck = tmp_path / "ck.json"
        exhaustive_extremal(7, 2, checkpoint_path=str(ck))
        with pytest.raises(BadParameters):
            exhaustive_extremal(7, 3, checkpoint_path=str(ck))

    def test_checkpoint_in_missing_directory_fails_before_the_scan(self, tmp_path, monkeypatch):
        import sumprod.search

        scanned = []
        monkeypatch.setattr(sumprod.search, "_scan_chunk", lambda *args: scanned.append(args))
        with pytest.raises(BadParameters, match="directory of checkpoint .* does not exist"):
            exhaustive_extremal(7, 2, checkpoint_path=str(tmp_path / "missing" / "ck.json"))
        assert scanned == []

    @pytest.mark.parametrize("p,n", [(5, 1), (7, 7), (11, 4), (13, 4), (17, 5)])
    def test_matches_brute_force_record(self, p, n):
        rec = exhaustive_extremal(p, n)
        got = (rec.best_value, [w.mask for w in rec.witnesses], rec.classes_visited)
        assert got == brute_record(p, n)

    def test_checkpoint_at_two_workers_resumes_at_one(self, tmp_path):
        ck = tmp_path / "ck.json"
        full = exhaustive_extremal(11, 3)
        exhaustive_extremal(11, 3, workers=2, checkpoint_path=str(ck), checkpoint_every=7,
                            max_steps=30)
        state = json.loads(ck.read_text())
        assert state["cursor"] == 30 and state["version"] == 2
        assert exhaustive_extremal(11, 3, workers=1, checkpoint_path=str(ck)) == full

    @pytest.mark.parametrize("edit", [
        {"version": DROP},  # written before versions: the cursor counted all n-subsets
        {"version": 1},
        {"cursor": DROP},
        {"cursor": "3"},
        {"cursor": True},
        {"cursor": 46},
        {"witnesses": [1.5]},
        {"best_value": "5"},
        # well typed but inconsistent with the search; the written state has
        # cursor 30, best_value 5 and witnesses [7, 1027, 42, 146]
        {"best_value": None},
        {"witnesses": []},
        {"witnesses": [-7]},
        {"witnesses": [1 << 11 | 3]},
        {"witnesses": [15]},
        {"best_value": 6},
        {"classes_visited": -5},
        {"classes_visited": 31},
        {"witnesses": [7, 7, 42, 146]},  # a class twice
        {"witnesses": [7, 42, 1027, 146]},  # out of scan order
        {"witnesses": [7, 1027, 42, 146, 97]},  # 97 = {0, 5, 6} is the class of 1027
        {"witnesses": [7, 97, 42, 146]},
        {"classes_visited": 3},  # fewer than the four witnesses
    ])
    def test_bad_checkpoint(self, tmp_path, edit):
        ck = tmp_path / "ck.json"
        exhaustive_extremal(11, 3, checkpoint_path=str(ck), max_steps=30)
        state = json.loads(ck.read_text())
        assert (state["cursor"], state["best_value"]) == (30, 5)
        assert state["witnesses"] == [7, 1027, 42, 146]
        for key, value in edit.items():
            if value is DROP:
                del state[key]
            else:
                state[key] = value
        ck.write_text(json.dumps(state))
        with pytest.raises(BadParameters):
            exhaustive_extremal(11, 3, checkpoint_path=str(ck))

    def test_worker_guard_on_one_cpu(self, one_cpu_pools):
        serial = exhaustive_extremal(11, 3)
        for workers in (2, 3, 4):
            assert exhaustive_extremal(11, 3, workers=workers) == serial
        assert one_cpu_pools == [2, 3, 4]

    def test_worker_guard_refuses_before_any_pool(self, one_cpu_pools, monkeypatch):
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")  # this guard is not liftable
        for workers in (5, 10**6):
            with pytest.raises(GuardExceeded, match="workers exceed"):
                exhaustive_extremal(11, 3, workers=workers)
        assert one_cpu_pools == []

    def test_parallel_matches_serial(self):
        serial = exhaustive_extremal(11, 4)
        parallel = exhaustive_extremal(11, 4, workers=3)
        assert parallel.best_value == serial.best_value
        assert parallel.witnesses == serial.witnesses
        assert parallel.classes_visited == serial.classes_visited


class TestAnneal:
    def test_never_below_exhaustive(self):
        floor = exhaustive_extremal(13, 4).best_value
        for seed in range(5):
            assert anneal_extremal(13, 4, seed=seed, iters=300).best_value >= floor

    def test_iters_one_is_initial_set(self):
        field = make_field(13)
        rec = anneal_extremal(13, 4, seed=9, iters=1)
        assert rec.best_value == objective(field.fset([1, 2, 3, 4]))

    def test_seed_deterministic(self):
        a = anneal_extremal(13, 5, seed=3, iters=400)
        b = anneal_extremal(13, 5, seed=3, iters=400)
        assert (a.best_value, a.witnesses) == (b.best_value, b.witnesses)

    def test_ap_start_bound_p31(self):
        field = make_field(31)
        ap = field.fset(range(1, 7))
        assert objective(ap) == 17
        assert anneal_extremal(31, 6, seed=42, iters=200).best_value <= 17

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            anneal_extremal(7, 7)
        with pytest.raises(BadParameters):
            anneal_extremal(7, 2, iters=0)

    # (p, n, seed, iters) -> (best_value, witness mask), frozen from the
    # implementation that drew the added element with rng.choice over the
    # sorted non-members and canonicalized every improvement
    FROZEN = {
        (13, 4, 0, 300): (7, 15),
        (13, 5, 1, 400): (9, 817),
        (101, 6, 1, 200): (16, 54113564272689409),
        (101, 6, 4, 200): (15, 288291948802867203),
        (101, 6, 5, 200): (16, 4438),
        (1009, 8, 5, 60): (29, 2203603505424),
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_frozen_records(self, case):
        p, n, seed, iters = case
        rec = anneal_extremal(p, n, seed=seed, iters=iters)
        assert (rec.best_value, rec.witnesses[0].mask) == self.FROZEN[case]

    def test_witness_is_canonical(self):
        rec = anneal_extremal(11, 3, seed=1, iters=100)
        (w,) = rec.witnesses
        assert canonical_form(w) == w and w.card == 3


class TestRatioScan:
    def test_p7(self):
        t = ratio_threshold_scan(7)
        assert t.max_proper_n == 2
        assert t.entries[0].proper_exists is None  # n=1 not applicable
        assert t.entries[1].proper_exists is True
        assert t.entries[2].proper_exists is False
        assert t.max_witness is not None

    def test_p11_vs_sqrt(self):
        t = ratio_threshold_scan(11)
        assert t.sqrt_p == math.sqrt(11)
        assert t.max_proper_n >= 2

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_matches_lex_order_scan(self, p):
        t = ratio_threshold_scan(p)
        got = [(e.n, None if e.witness is None else e.witness.mask) for e in t.entries[1:]]
        assert got == lex_ratio_scan(p)

    def test_witness_really_proper(self):
        t = ratio_threshold_scan(13)
        w = t.max_witness
        assert ratio_set(w).card < 13
        assert w.card == t.max_proper_n
