import json
import math
import os
import pathlib
import random
import subprocess
import sys
from itertools import chain, combinations, islice

import pytest
from hypothesis import example, given, settings, strategies as st

import sumprod.search
from sumprod.core import dilate, make_field, product_set, ratio_set, sumset
from sumprod.errors import BadParameters, EmptyOperand, GuardExceeded
from sumprod.search import (
    _anneal_walk,
    _class_count,
    _class_masks,
    _pair_counts,
    _stream_key,
    anneal_extremal,
    canonical_form,
    exhaustive_extremal,
    objective,
    RatioScanEntry,
    ratio_threshold_scan,
)

F5 = make_field(5)
F7 = make_field(7)
DROP = object()  # a checkpoint edit that deletes the key


def naive_objective(A) -> int:
    """max{|A+A|, |AA|} by the double loops of the naive sumset and product_set."""
    return max(sumset(A, A, method="naive").card, product_set(A, A, method="naive").card)


def naive_minimum(p: int, n: int) -> int:
    """Canonicalization-free enumerator: the independent oracle."""
    field = make_field(p)
    return min(
        naive_objective(field.fset(combo)) for combo in combinations(range(p), n)
    )


def brute_record(p: int, n: int) -> tuple[int, list[int], int]:
    """(best, witness masks, classes) over every n-subset kept by canonical_form."""
    field = make_field(p)
    classes = [A for A in map(field.fset, combinations(range(p), n)) if canonical_form(A) == A]
    best = min(map(naive_objective, classes))
    return best, [A.mask for A in classes if naive_objective(A) == best], len(classes)


def unpruned_scan(p: int, n: int, every: int = 10**6, stops=()) -> tuple[tuple, list[str]]:
    """((best, witness masks, classes), checkpoint texts) of a scan that scores every class.

    Each class of the unpruned _class_masks(p, n) is scored by objective
    and merged in stream order, as a scan did before the walk was cut.  A
    checkpoint text is written after each `every` classes from each start
    and at each stop of the cursors in stops, as a run resumed at each stop.
    """
    field = make_field(p)
    masks = list(_class_masks(p, n))
    state = {"version": 3, "p": p, "n": n, "mode": "exhaustive", "cursor": 0,
             "best_value": None, "witnesses": [], "classes_visited": 0}
    texts = []
    for lo, hi in zip((0, *stops), (*stops, len(masks))):
        for cursor in (*range(lo + every, hi, every), hi):
            for mask in masks[state["cursor"]:cursor]:
                value = objective(field.fset_from_mask(mask))
                if state["best_value"] is None or value < state["best_value"]:
                    state["best_value"], state["witnesses"] = value, [mask]
                elif value == state["best_value"]:
                    state["witnesses"].append(mask)
            state["cursor"] = state["classes_visited"] = cursor
            texts.append(json.dumps(state, sort_keys=True))
    witnesses = sorted(canonical_form(field.fset_from_mask(m)).mask for m in state["witnesses"])
    return (state["best_value"], witnesses, len(masks)), texts


def ratio_proper(A) -> bool:
    """Whether R(A) misses a residue, by dividing every difference by every nonzero one."""
    p = A.field.p
    diff = {(a - b) % p for a in A for b in A}
    return len({n * pow(d, -1, p) % p for d in diff if d for n in diff}) < p


def lex_ratio_scan(p: int) -> list[tuple[int, int | None]]:
    """(n, mask of the first canonical proper set in combinations order) per size."""
    field = make_field(p)
    out = []
    for n in range(2, p + 1):
        sets = map(field.fset, combinations(range(p), n))
        first = next((A for A in sets if canonical_form(A) == A and ratio_proper(A)), None)
        out.append((n, None if first is None else first.mask))
        if first is None:
            return out


def class_reps(p: int, n: int):
    """Masks of one n-set per dilation class, by a dilate test on the n-sets holding 1.

    A class with a nonzero element a also holds a^-1 A, which contains 1,
    so the candidates {1} | T, T an (n-1)-subset of F_p \\ {1} in
    combinations order, reach every class but {0}, which comes first when
    n = 1.  The members of the class of S that contain 1 are exactly the
    a^-1 S with a in S \\ {0}, so keeping S iff its mask is the least of
    theirs keeps each class once, at O(n^2) per candidate.
    """
    inv = [0, 1, *(pow(a, -1, p) for a in range(2, p))]
    sets = ((1, *T) for T in combinations([0, *range(2, p)], n - 1))
    if n == 1:
        sets = chain([(0,)], sets)
    for S in sets:
        mask = sum(1 << x for x in S)
        for a in S:
            if a > 1:
                u = inv[a]
                if sum(1 << (u * x % p) for x in S) < mask:
                    break
        else:
            yield mask


OBJECTIVE_PRIMES = (5, 13, 101, 1009, 65521)


@st.composite
def _set_with_or_without_zero(draw):
    p = draw(st.sampled_from(OBJECTIVE_PRIMES))
    zero = draw(st.booleans())
    units = draw(st.sets(st.integers(1, p - 1), min_size=1 - zero, max_size=min(p - 1, 30)))
    return make_field(p).fset(units | {0} if zero else units)


class TestObjective:
    @settings(max_examples=300, deadline=None)
    @given(_set_with_or_without_zero())
    def test_matches_naive_score(self, A):
        assert objective(A) == naive_objective(A)

    @pytest.mark.parametrize("p", OBJECTIVE_PRIMES)
    def test_singletons(self, p):
        for a in (0, 1, p - 1):
            assert objective(make_field(p).fset([a])) == 1

    @pytest.mark.parametrize("p", [5, 1009])
    def test_empty(self, p):
        with pytest.raises(EmptyOperand):
            objective(make_field(p).fset([]))


class TestPairCounts:
    @pytest.mark.parametrize("p", [5, 13, 101, 65521])
    @pytest.mark.parametrize("zero", [False, True])
    def test_moves_keep_members_and_counts(self, p, zero):
        field, rng = make_field(p), random.Random(p + zero)
        members, nonzero, move = _pair_counts(p)
        universe = range(0 if zero else 1, p)
        if zero:
            move(0, 1)
        for _ in range(200):
            if members and (len(members) in (len(universe), 12) or rng.random() < 0.4):
                move(rng.choice(members), -1)
            else:
                while (x := rng.choice(universe)) in members:
                    pass
                move(x, 1)
            assert members == sorted(set(members))
            assert max(nonzero) == (naive_objective(field.fset(members)) if members else 0)


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


# the exhaustive cells of criterion 8 and of the brute-force records, then
# n = 1, p - 1 and p at each of their primes
STREAM_CELLS = sorted({(7, 2), (13, 4), (5, 1), (7, 7), (11, 3), (11, 4), (17, 5)}
                      | {(p, n) for p in (5, 7, 11, 13, 17) for n in (1, p - 1, p)})


class TestClassStream:
    @pytest.mark.parametrize("p,n", STREAM_CELLS)
    def test_one_set_per_class_against_the_dilate_test(self, p, n):
        field = make_field(p)
        masks = list(_class_masks(p, n))
        canon = [canonical_form(field.fset_from_mask(m)).mask for m in masks]
        oracle = [canonical_form(field.fset_from_mask(m)).mask for m in class_reps(p, n)]
        assert all(m.bit_count() == n for m in masks)
        assert len(set(canon)) == len(canon) == _class_count(p, n)
        assert sorted(canon) == sorted(oracle)

    @pytest.mark.parametrize("p,n", STREAM_CELLS)
    def test_stream_keys_are_increasing(self, p, n):
        # the checkpoint's tests: every set of the stream is recognised as its
        # class's set, in stream order, and no other set of its class is
        field = make_field(p)
        keys = []
        for m in _class_masks(p, n):
            A = field.fset_from_mask(m)
            keys.append(_stream_key(field, A))
            others = {dilate(A, u).mask for u in range(2, p)} - {m}
            assert all(_stream_key(field, field.fset_from_mask(o)) is None for o in others)
        assert None not in keys and all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
    def test_class_count_is_burnside(self, p):
        for n in range(1, min(p, 5) + 1):
            assert _class_count(p, n) == sum(1 for _ in _class_masks(p, n))
        for n in (p - 1, p):
            assert _class_count(p, n) == 2 - (n == p)

    def test_dense_stream_needs_no_deep_recursion(self):
        # n - 1 gaps of 1 to walk, past the interpreter's recursion limit
        assert [sum(1 for _ in _class_masks(1009, n)) for n in (1008, 1009)] == [2, 1]

    def test_class_count_guard(self, monkeypatch):
        # (101, 23) is far above the guard and refused before the walk; (53, 7)
        # has 2,964,340 classes
        assert _class_count(53, 7) == 2_964_340
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        walked = []
        monkeypatch.setattr(sumprod.search, "_class_masks", lambda *args: walked.append(args))
        with pytest.raises(GuardExceeded, match=r"\d+ dilation classes"):
            exhaustive_extremal(101, 23)
        assert walked == []

    @pytest.mark.parametrize("mangle", ["drop", "repeat"])
    def test_scan_checks_the_class_count_under_O(self, mangle):
        # a stream that loses or repeats a class fails an errors.check, which
        # python -O keeps, unlike an assert
        code = (
            "import sys\n"
            "import sumprod.search as s\n"
            "from sumprod.errors import InvariantViolated\n"
            "full = s._class_masks\n"
            f"mangle = {mangle!r}\n"
            "def stream(p, n, cut=None):\n"
            "    masks = list(full(p, n, cut))\n"
            "    return iter(masks[1:] if mangle == 'drop' else masks + masks[-1:])\n"
            "s._class_masks = stream\n"
            "try:\n"
            "    s.exhaustive_extremal(11, 3)\n"
            "except InvariantViolated as e:\n"
            "    print(sys.flags.optimize, e)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("1 the class stream of (11, 3) does not hold the 17 classes")


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
        with pytest.raises(BadParameters, match="max_steps exhausted before any class"):
            exhaustive_extremal(13, 4, max_steps=0)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            exhaustive_extremal(101, 23)

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        ck = tmp_path / "ck.json"
        full = exhaustive_extremal(13, 4)
        exhaustive_extremal(13, 4, checkpoint_path=str(ck), checkpoint_every=7, max_steps=30)
        state = json.loads(ck.read_text())
        assert state["cursor"] == 30 and state["mode"] == "exhaustive"
        resumed = exhaustive_extremal(13, 4, checkpoint_path=str(ck))
        assert resumed.best_value == full.best_value
        assert resumed.witnesses == full.witnesses
        assert resumed.classes_visited == full.classes_visited

    def test_checkpoint_mismatch(self, tmp_path):
        ck = tmp_path / "ck.json"
        exhaustive_extremal(7, 2, checkpoint_path=str(ck))
        with pytest.raises(BadParameters):
            exhaustive_extremal(7, 3, checkpoint_path=str(ck))

    def test_checkpoint_in_missing_directory_fails_before_the_scan(self, tmp_path, monkeypatch):
        scanned = []
        monkeypatch.setattr(sumprod.search, "_class_masks", lambda *args: scanned.append(args))
        with pytest.raises(BadParameters, match="directory of checkpoint .* does not exist"):
            exhaustive_extremal(7, 2, checkpoint_path=str(tmp_path / "missing" / "ck.json"))
        assert scanned == []

    @pytest.mark.parametrize("p,n", [(5, 1), (7, 7), (11, 4), (13, 4), (17, 5)])
    def test_matches_brute_force_record(self, p, n):
        rec = exhaustive_extremal(p, n)
        got = (rec.best_value, [w.mask for w in rec.witnesses], rec.classes_visited)
        assert got == brute_record(p, n)

    # sparse cells whose walk cuts prefixes and scores each class from the pair
    # counts, and dense ones (2n - 1 >= p) where none is cut and every class
    # scores p by Cauchy-Davenport: objective scores no class of either
    @pytest.mark.parametrize("p,n", [(17, 5), (19, 5), (37, 5), (29, 6), (23, 18), (13, 12)])
    def test_cut_walk_matches_unpruned_scan(self, monkeypatch, p, n):
        scored = []
        monkeypatch.setattr(sumprod.search, "objective", lambda A: scored.append(A.mask) or objective(A))
        rec = exhaustive_extremal(p, n)
        assert scored == []
        got = (rec.best_value, [w.mask for w in rec.witnesses], rec.classes_visited)
        assert got == unpruned_scan(p, n)[0]

    def test_checkpoints_match_unpruned_scan(self, tmp_path, monkeypatch):
        # every checkpoint text of a run stopped and resumed three times, one
        # stop falling among the classes under a cut prefix: those the walk
        # yields as None without asking the cut of their own set
        p, n = 19, 5
        full, asked, walked = _class_masks, set(), []

        def spy(p, n, cut=None):
            for mask in full(p, n, lambda m: asked.add(m) or cut(m)):
                walked.append(mask)
                yield mask

        monkeypatch.setattr(sumprod.search, "_class_masks", spy)
        exhaustive_extremal(p, n)
        masks = list(full(p, n))
        under = [i for i, m in enumerate(masks) if walked[i] is None and m not in asked]
        assert len(walked) == len(masks) and under
        stops = (37, under[len(under) // 2], 420)
        assert stops[0] < stops[1] < stops[2] < len(masks)

        written = []
        write = sumprod.search._write_checkpoint
        monkeypatch.setattr(sumprod.search, "_class_masks", full)
        monkeypatch.setattr(sumprod.search, "_write_checkpoint",
                            lambda path, state: write(path, state) or written.append(ck.read_text()))
        ck = tmp_path / "ck.json"
        for lo, hi in zip((0, *stops), (*stops, None)):
            exhaustive_extremal(p, n, checkpoint_path=str(ck), checkpoint_every=50,
                                max_steps=hi and hi - lo)
        assert written == unpruned_scan(p, n, 50, stops)[1]

    def test_failed_checkpoint_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        exhaustive_extremal(13, 4, checkpoint_path=str(ck), max_steps=30)
        old = ck.read_bytes()

        def dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump)
        with pytest.raises(OSError, match="disk full"):
            exhaustive_extremal(13, 4, checkpoint_path=str(ck))
        assert ck.read_bytes() == old
        assert os.listdir(tmp_path) == ["ck.json"]  # no .tmp file is left

    def test_checkpoint_at_two_workers_resumes_at_one(self, tmp_path):
        ck = tmp_path / "ck.json"
        full = exhaustive_extremal(13, 4)
        exhaustive_extremal(13, 4, workers=2, checkpoint_path=str(ck), checkpoint_every=7,
                            max_steps=30)
        state = json.loads(ck.read_text())
        assert state["cursor"] == 30 and state["version"] == 3
        assert exhaustive_extremal(13, 4, workers=1, checkpoint_path=str(ck)) == full

    @pytest.mark.parametrize("edit", [
        {"version": DROP},  # written before versions: the cursor counted all n-subsets
        {"version": 1},
        {"version": 2},  # the cursor counted the n-sets holding 1
        {"cursor": DROP},
        {"cursor": "3"},
        {"cursor": True},
        {"cursor": 63},  # (13, 4) has 62 classes
        {"witnesses": [1.5]},
        {"best_value": "7"},
        # well typed but inconsistent with the search; the written state has
        # cursor 30, best_value 7 and witnesses [15, 4103]
        {"best_value": None},
        {"witnesses": []},
        {"witnesses": [-15]},
        {"witnesses": [1 << 13 | 7]},
        {"witnesses": [7]},
        {"best_value": 8},
        {"classes_visited": -5},
        {"classes_visited": 29},  # the cursor counts classes, so they agree
        {"classes_visited": 31},
        {"witnesses": [15, 15]},  # a class twice
        {"witnesses": [4103, 15]},  # out of stream order
        # 6147 = {0, 1, 11, 12} is the class of 4103 = {0, 1, 2, 12} under
        # x -> -x, but its gap sequence of logs to base 2 is (6, 1, 5), not
        # the least rotation (1, 5, 6)
        {"witnesses": [15, 4103, 6147]},
        {"witnesses": [15, 6147]},
        {"cursor": 1, "classes_visited": 1},  # fewer classes than the two witnesses
        {"best_value": None, "witnesses": []},  # no best after 30 classes
    ])
    def test_bad_checkpoint(self, tmp_path, edit):
        ck = tmp_path / "ck.json"
        exhaustive_extremal(13, 4, checkpoint_path=str(ck), max_steps=30)
        state = json.loads(ck.read_text())
        assert (state["cursor"], state["best_value"]) == (30, 7)
        assert state["witnesses"] == [15, 4103]
        for key, value in edit.items():
            if value is DROP:
                del state[key]
            else:
                state[key] = value
        ck.write_text(json.dumps(state))
        with pytest.raises(BadParameters):
            exhaustive_extremal(13, 4, checkpoint_path=str(ck))

    def test_workers_are_only_checked(self):
        for workers in (0, -1):
            with pytest.raises(BadParameters, match="workers"):
                exhaustive_extremal(11, 3, workers=workers)
        assert exhaustive_extremal(11, 3, workers=10**6) == exhaustive_extremal(11, 3)


@st.composite
def _anneal_start(draw):
    p = draw(st.sampled_from((5, 13, 101, 1009)))
    zero = draw(st.booleans())
    # at most p - 1 elements, so that a move has a non-member to add
    units = draw(st.sets(st.integers(1, p - 1), min_size=1 - zero, max_size=min(p - 2, 30)))
    return make_field(p), units | {0} if zero else units, draw(st.integers(0, 2**32))


class TestAnneal:
    @settings(max_examples=60, deadline=None)
    @given(_anneal_start())
    @example((make_field(1009), set(range(30)), 7))
    @example((make_field(13), {0, 5}, 3))
    def test_walk_scores_every_set_as_objective(self, case):
        # every scored set, accepted or rejected, so the counts a rejected
        # move takes back are checked by the next proposal's value
        field, start, seed = case
        walk = _anneal_walk(field, start, random.Random(seed))
        for val, members in islice(walk, 40):
            assert len(members) == len(start) and list(members) == sorted(set(members))
            assert val == objective(field.fset(members))

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

    def test_guard(self, monkeypatch):
        # iters * n against ANNEAL_GUARD, before any move; unguarded, this
        # walk runs for hours
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        with pytest.raises(GuardExceeded, match=r"iters\*n=4000000000 exceeds the anneal guard"):
            anneal_extremal(13, 4, iters=10**9)
        monkeypatch.setattr(sumprod.search, "ANNEAL_GUARD", 4 * 50)
        assert anneal_extremal(13, 4, seed=2, iters=50).classes_visited == 50
        with pytest.raises(GuardExceeded, match=r"iters\*n=204 exceeds the anneal guard 200"):
            anneal_extremal(13, 4, seed=2, iters=51)
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        assert anneal_extremal(13, 4, seed=2, iters=51).classes_visited == 51

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
        # frozen before the pair count
        (1009, 24, 3, 60): (
            204,
            2348614256792833644444266458963246886917913799716827743202893727362629586093632730400315536192542729832529920,
        ),
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

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    def test_matches_lex_order_scan(self, p):
        t = ratio_threshold_scan(p)
        got = [(e.n, None if e.witness is None else e.witness.mask) for e in t.entries[1:]]
        assert got == lex_ratio_scan(p)

    @pytest.mark.parametrize("p", [29, 31])
    def test_cut_walk_matches_unpruned_scan(self, p):
        # each size's witness scored over every class of the unpruned walk
        field, want = make_field(p), []
        for n in range(2, p + 1):
            sets = map(field.fset_from_mask, _class_masks(p, n))
            proper = [canonical_form(A) for A in sets if ratio_set(A).card < p]
            want.append((n, min(A.elements() for A in proper) if proper else None))
            if not proper:
                break
        t = ratio_threshold_scan(p)
        assert [(e.n, e.witness and e.witness.elements()) for e in t.entries[1:]] == want

    def test_no_proper_size(self):
        t = ratio_threshold_scan(3)
        assert [(e.n, e.proper_exists) for e in t.entries] == [(1, None), (2, False)]
        assert t.max_proper_n == 0 and t.max_witness is None

    @pytest.mark.parametrize("p", [5, 7, 17, 29, 31])
    def test_walks_no_size_past_the_root(self, monkeypatch, p):
        # pigeonhole: once n^2 > p every n-set has R(A) = F_p, so the first such
        # size is recorded without a walk
        full, walked = _class_masks, []
        monkeypatch.setattr(sumprod.search, "_class_masks",
                            lambda p, n, cut=None: walked.append(n) or full(p, n, cut))
        t = ratio_threshold_scan(p)
        assert walked == list(range(2, math.isqrt(p) + 1))
        assert t.entries[-1] == RatioScanEntry(math.isqrt(p) + 1, False, None)
        assert t.max_proper_n == math.isqrt(p)

    def test_guard_refuses_before_the_first_walk(self, monkeypatch):
        # the sizes 2, 3 and 4 of F_17 hold 9 + 43 + 151 dilation classes
        assert sum(_class_count(17, n) for n in (2, 3, 4)) == 203
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        monkeypatch.setattr(sumprod.search, "CLASS_GUARD", 202)
        walked = []
        monkeypatch.setattr(sumprod.search, "_class_masks", lambda *args: walked.append(args))
        with pytest.raises(GuardExceeded, match="^203 dilation classes exceed the 202 guard$"):
            ratio_threshold_scan(17)
        assert walked == []

    def test_witness_really_proper(self):
        t = ratio_threshold_scan(13)
        w = t.max_witness
        assert ratio_proper(w)
        assert w.card == t.max_proper_n
