"""Extremal-set exploration for the objective max{|A+A|, |AA|}.

The symmetry group is dilations only: translation preserves |A+A| but not
|AA| and inversion preserves |AA| but not |A+A|, so dilation is the only
map that leaves the objective invariant.  Canonical form is the smallest
mask (as an integer) among all dilates.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat

from .core import FSet, dilate, make_field, product_set, ratio_set, sumset
from .errors import BadParameters, EmptyOperand, GuardExceeded, _guards_lifted

CLASS_GUARD = 10**8
# worker processes per CPU that exhaustive_extremal accepts.  The fork start
# method launches every worker of a pool at its first submit, and more
# processes buy no speed, so SPW_GUARD_OVERRIDE does not lift this guard.
WORKERS_PER_CPU = 4
CHECKPOINT_EVERY = 10**6
# 2: the cursor counts the candidates of _class_reps, not all n-subsets
CHECKPOINT_VERSION = 2
ANNEAL_T0 = 2.0
ANNEAL_COOLING = 0.995
# pairs a <= b of a set up to which objective counts their sums and products in
# two Python sets.  Fresh random sets on a shared 2-core x86-64 host: n = 8 took
# 9 against 22 us at p = 1009 and 9 against 42 us at p = 4099; with numpy loaded
# the pair count loses to sumset + product_set from n = 32 (528 pairs) on
_PAIR_LIMIT = 256


def objective(A: FSet) -> int:
    """max{|A+A|, |AA|}.

    A set with at most _PAIR_LIMIT = 256 pairs a <= b (n <= 22) is counted
    from the sums and products of its pairs in two Python sets.  A larger
    set, or an empty one, takes sumset and product_set, with their
    pigeonhole answers and numpy decode.
    """
    n = A.card
    if not n or n * (n + 1) // 2 > _PAIR_LIMIT:
        return max(sumset(A, A).card, product_set(A, A).card)
    p, xs = A.field.p, A.elements()
    sums, products = set(), set()
    for i, a in enumerate(xs):
        for b in xs[i:]:
            sums.add((a + b) % p)
            products.add(a * b % p)
    return max(len(sums), len(products))


def canonical_form(A: FSet) -> FSet:
    """Smallest mask among the dilates {uA : u in F_p*}; idempotent."""
    if A.card == 0:
        raise EmptyOperand("canonical_form needs a nonempty set")
    field = A.field
    best = A.mask
    for u in range(2, field.p):
        m = dilate(A, u).mask
        if m < best:
            best = m
    return field.fset_from_mask(best)


@dataclass(frozen=True)
class SearchRecord:
    p: int
    n: int
    best_value: int
    witnesses: tuple[FSet, ...]
    mode: str
    seed: int | None
    classes_visited: int

    @property
    def exponent(self) -> float:
        """log(best_value)/log(n); decimal metadata only."""
        if self.n <= 1:
            return float("nan")
        return math.log(self.best_value) / math.log(self.n)


def _class_count_guard(p: int, n: int) -> None:
    classes = math.comb(p, n) // (p - 1)
    if classes > CLASS_GUARD and not _guards_lifted():
        raise GuardExceeded(f"~{classes} dilation classes exceed the {CLASS_GUARD} guard")


def _class_reps(p: int, n: int, start: int = 0, stop: int | None = None) -> Iterator[int]:
    """Masks of the class representatives among candidates [start, stop).

    A class with a nonzero element a also holds a^-1 A, which contains 1,
    so the candidates {1} | T, T an (n-1)-subset of F_p \\ {1} in
    combinations order, reach every class but {0}, which comes first when
    n = 1.  The members of the class of S that contain 1 are exactly the
    a^-1 S with a in S \\ {0}, so keeping S iff its mask is the least of
    theirs keeps each class once, at O(n^2) per candidate.
    """
    inv = [0, 1, *map(make_field(p).inv, range(2, p))]
    sets = ((1, *T) for T in combinations([0, *range(2, p)], n - 1))
    if n == 1:
        sets = chain([(0,)], sets)
    for S in islice(sets, start, stop):
        mask = sum(1 << x for x in S)
        for a in S:
            if a > 1:
                u = inv[a]
                if sum(1 << (u * x % p) for x in S) < mask:
                    break
        else:
            yield mask


def _fresh_state(p: int, n: int) -> dict:
    return {
        "version": CHECKPOINT_VERSION, "p": p, "n": n, "mode": "exhaustive", "cursor": 0,
        "best_value": None, "witnesses": [], "classes_visited": 0,
    }


def _merge(state: dict, best: int | None, witnesses: list[int], classes: int) -> None:
    """Fold a scanned range's (best, witness masks, classes) into state."""
    state["classes_visited"] += classes
    if best is None:
        return
    if state["best_value"] is None or best < state["best_value"]:
        state["best_value"], state["witnesses"] = best, list(witnesses)
    elif best == state["best_value"]:
        state["witnesses"].extend(witnesses)


def _scan_chunk(p: int, n: int, start: int, stop: int) -> dict:
    """The state of a scan of candidates [start, stop) alone."""
    field = make_field(p)
    state = _fresh_state(p, n)
    for mask in _class_reps(p, n, start, stop):
        _merge(state, objective(field.fset_from_mask(mask)), [mask], 1)
    return state


def _load_checkpoint(path: str, p: int, n: int, total: int) -> dict:
    with open(path) as fh:
        state = json.load(fh)
    if not isinstance(state, dict) or state.get("version") != CHECKPOINT_VERSION:
        raise BadParameters(f"checkpoint is not a version {CHECKPOINT_VERSION} search state")
    fresh = _fresh_state(p, n)
    if state.keys() != fresh.keys():
        raise BadParameters(f"checkpoint keys must be {sorted(fresh)}")
    # type(), not isinstance(): a JSON true is no count
    bad = [k for k, v in state.items()
           if not (type(v) is type(fresh[k]) or k == "best_value" and type(v) is int)]
    if bad or any(type(m) is not int for m in state["witnesses"]):
        raise BadParameters(f"checkpoint values have the wrong type: {bad or ['witnesses']}")
    if (state["p"], state["n"], state["mode"]) != (p, n, "exhaustive"):
        raise BadParameters("checkpoint does not match this search")
    if not 0 <= state["cursor"] <= total:
        raise BadParameters(f"checkpoint cursor {state['cursor']} is outside [0, {total}]")
    if not 0 <= state["classes_visited"] <= state["cursor"]:
        raise BadParameters("checkpoint classes_visited is outside [0, cursor]")
    if (state["best_value"] is None) != (not state["witnesses"]):
        raise BadParameters("checkpoint best_value and witnesses must be both empty or both set")
    if len(state["witnesses"]) > state["classes_visited"]:
        raise BadParameters("checkpoint has more witnesses than classes_visited")
    field = make_field(p)
    scanned = []
    for m in state["witnesses"]:
        if not (0 <= m < 1 << p and m.bit_count() == n):
            raise BadParameters(f"checkpoint witness {m} is not a mask of {n} elements of F_{p}")
        A = field.fset_from_mask(m)
        # _class_reps keeps each class at the least of its dilates that contain 1
        if m != min((dilate(A, field.inv(a)).mask for a in A if a), default=m):
            raise BadParameters(f"checkpoint witness {m} is not the set the scan keeps for its class")
        if objective(A) != state["best_value"]:
            raise BadParameters(f"checkpoint witness {m} does not reach best_value")
        scanned.append(A.elements())
    # the scan appends witnesses in candidate order, which is the order of their sorted elements
    if any(a >= b for a, b in zip(scanned, scanned[1:])):
        raise BadParameters("checkpoint witnesses are not distinct and in scan order")
    return state


def _write_checkpoint(path: str, state: dict) -> None:
    # temp file + rename so a crash never leaves a torn checkpoint
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(state, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def exhaustive_extremal(
    p: int,
    n: int,
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
    checkpoint_every: int = CHECKPOINT_EVERY,
    max_steps: int | None = None,
) -> SearchRecord:
    """Exact minimum of max{|A+A|,|AA|} over |A| = n, one set per dilation class.

    The candidates of _class_reps are scanned in chunks of
    min(checkpoint_every, ceil(remaining / workers)), in order, by `workers`
    processes.  With a checkpoint_path the state (cursor, best, witnesses,
    classes) is written atomically after every chunk and the run resumes
    from an existing file; a resumed run is bit-identical to an
    uninterrupted one at any worker count.  max_steps stops early after that
    many candidates (checkpoint then holds the cursor); it exists to
    exercise resumption deterministically.
    """
    if n < 1 or n > p:
        raise BadParameters(f"need 1 <= n <= p, got n={n}, p={p}")
    if workers < 1 or checkpoint_every < 1:
        raise BadParameters("workers and checkpoint_every must be >= 1")
    max_workers = WORKERS_PER_CPU * (os.cpu_count() or 1)
    if workers > max_workers:
        raise GuardExceeded(
            f"{workers} workers exceed the guard of {max_workers} ({WORKERS_PER_CPU} per CPU)"
        )
    field = make_field(p)
    _class_count_guard(p, n)
    total = math.comb(p - 1, n - 1) + (n == 1)
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = _load_checkpoint(checkpoint_path, p, n, total)
    elif checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise BadParameters(f"the directory of checkpoint {checkpoint_path!r} does not exist")
    else:
        state = _fresh_state(p, n)
    start = state["cursor"]
    stop = total if max_steps is None else min(total, start + max_steps)
    size = max(1, min(checkpoint_every, -(-(stop - start) // workers)))
    los = range(start, stop, size)
    his = [min(lo + size, stop) for lo in los]
    if workers > 1:  # the pool's imports are paid only by a run that starts one
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        parts = (pool.map if pool else map)(_scan_chunk, repeat(p), repeat(n), los, his)
        for hi, part in zip(his, parts):
            _merge(state, part["best_value"], part["witnesses"], part["classes_visited"])
            state["cursor"] = hi
            if checkpoint_path:
                _write_checkpoint(checkpoint_path, state)
    if state["best_value"] is None:
        raise BadParameters("max_steps exhausted before any class was visited")
    witnesses = sorted((canonical_form(field.fset_from_mask(m)) for m in state["witnesses"]),
                       key=lambda A: A.mask)
    return SearchRecord(
        p, n, state["best_value"], tuple(witnesses), "exhaustive", None, state["classes_visited"]
    )


def anneal_extremal(p: int, n: int, seed: int = 0, iters: int = 10_000) -> SearchRecord:
    """Seed-deterministic simulated annealing over n-subsets of F_p.

    Starts from the progression {1..n}; a move swaps one element in/out;
    Metropolis acceptance on the objective difference at a temperature
    that starts at ANNEAL_T0 and is multiplied by ANNEAL_COOLING after
    each move.  iters counts objective evaluations, so iters=1 reports
    the initial set unchanged.
    """
    if n < 1 or n > p - 1:
        raise BadParameters(f"need 1 <= n <= p-1, got n={n}, p={p}")
    if iters < 1:
        raise BadParameters("iters must be >= 1")
    field = make_field(p)
    rng = random.Random(seed)
    current = set(range(1, n + 1))
    cur_val = objective(field.fset(current))
    best_val, best_set = cur_val, current
    temp = ANNEAL_T0
    for _ in range(iters - 1):
        members = sorted(current)
        drop = rng.choice(members)
        # the add-th smallest non-member, the draw of rng.choice on their sorted list
        add = rng.randrange(p - n)
        for c in members:
            if c > add:
                break
            add += 1
        proposal = current - {drop} | {add}
        val = objective(field.fset(proposal))
        delta = val - cur_val
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            current, cur_val = proposal, val
            if val < best_val:
                best_val, best_set = val, current
        temp *= ANNEAL_COOLING
    return SearchRecord(
        p, n, best_val, (canonical_form(field.fset(best_set)),), "anneal", seed, iters
    )


@dataclass(frozen=True)
class RatioScanEntry:
    n: int
    proper_exists: bool | None  # None: not applicable (n < 2)
    witness: FSet | None


@dataclass(frozen=True)
class RatioScanTable:
    p: int
    entries: tuple[RatioScanEntry, ...]
    max_proper_n: int
    sqrt_p: float

    @property
    def max_witness(self) -> FSet | None:
        for e in reversed(self.entries):
            if e.proper_exists:
                return e.witness
        return None


def ratio_threshold_scan(p: int) -> RatioScanTable:
    """Largest n with some |A| = n whose ratio set is a proper subset of F_p.

    Exhaustive over dilation classes (ratio sets are dilation invariant);
    each size's witness is the lex-first canonical proper set.  Properness
    is subset-monotone, so the scan stops at the first size with no proper
    witness.
    """
    field = make_field(p)
    entries: list[RatioScanEntry] = [RatioScanEntry(1, None, None)]
    max_n = 0
    for n in range(2, p + 1):
        _class_count_guard(p, n)
        reps = (field.fset_from_mask(m) for m in _class_reps(p, n))
        proper = (canonical_form(A) for A in reps if ratio_set(A).card < p)
        witness = min(proper, key=FSet.elements, default=None)
        entries.append(RatioScanEntry(n, witness is not None, witness))
        if witness is None:
            break
        max_n = n
    return RatioScanTable(p, tuple(entries), max_n, math.sqrt(p))
