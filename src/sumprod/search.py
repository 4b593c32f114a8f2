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
from bisect import insort
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

from .core import FSet, PrimeField, _bits, dilate, make_field, product_set, ratio_set, sumset
from .errors import BadParameters, EmptyOperand, GuardExceeded, _guards_lifted, check

CLASS_GUARD = 10**8
CHECKPOINT_EVERY = 10**6
# 3: the cursor counts the classes of _class_masks; 2 counted candidate sets
# holding 1, and files without a version all n-subsets
CHECKPOINT_VERSION = 3
ANNEAL_T0 = 2.0
ANNEAL_COOLING = 0.995


def objective(A: FSet) -> int:
    """max{|A+A|, |AA|}."""
    return max(sumset(A, A).card, product_set(A, A).card)


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


def _class_count(p: int, n: int) -> int:
    """Number of dilation classes of n-subsets of F_p, by Burnside's lemma.

    (1/(p-1)) sum over d | p-1 of phi(d) [C((p-1)/d, n/d) + C((p-1)/d, (n-1)/d)],
    each binomial taken only when d divides n, respectively n - 1: a dilation
    of order d fixes a set iff the set is a union of its d-cycles on F_p*,
    with or without 0.
    """
    q = p - 1
    phi: dict[int, int] = {}  # Euler's phi on the divisors of q: the phi(e), e | d, sum to d
    total = 0
    for d in (d for d in range(1, q + 1) if q % d == 0):
        phi[d] = d - sum(f for e, f in phi.items() if d % e == 0)
        total += phi[d] * sum(math.comb(q // d, k // d) for k in (n, n - 1) if k % d == 0)
    return total // q


def _class_count_guard(p: int, n: int) -> int:
    """The class count of (p, n), unless it exceeds CLASS_GUARD."""
    classes = _class_count(p, n)
    if classes > CLASS_GUARD and not _guards_lifted():
        raise GuardExceeded(f"{classes} dilation classes exceed the {CLASS_GUARD} guard")
    return classes


def _class_masks(p: int, n: int, cut: Callable[[int], bool] | None = None) -> Iterator[int | None]:
    """Masks of one n-subset of F_p per dilation class, each class once.

    Dilation by g^k rotates the discrete logs of A \\ {0} by k mod p - 1, so
    a class is whether 0 is in A and a necklace of the logs.  Its set here
    holds 1 = g^0 and the logs 0 = e_1 < ... < e_w whose gap sequence
    (e_2 - e_1, ..., p - 1 - e_w) is the least of its rotations.  The gap
    sequences, parts >= 1 summing to p - 1, come from the recursion of
    Fredricksen, Kessler and Maiorana with a fixed sum (Ruskey and Sawada,
    SIAM J. Comput. 1999), in lex order; sets with 0 come first.  The
    recursion runs as a loop, so n is not bounded by the interpreter's.

    cut, a prefix test, is asked of each set built past {1} or {0, 1}, class
    sets included, unless a shorter one was cut (branch and bound, Land and
    Doig 1960); a class with a cut prefix, itself included, yields None.
    """
    exp, q = make_field(p).exp_table, p - 1
    for zero in (1, 0):
        w = n - zero
        if w > q:
            continue
        if w <= 1:
            mask = zero | w << 1  # {0}, {1} or {0, 1}: one class each
            yield None if cut and cut(mask) else mask
            continue
        # gaps[t] for t in 1..w-1 (the last gap is what they leave of q), per[t]
        # the period of the longest Lyndon prefix of gaps[1..t], rest[t] = q
        # minus their sum and masks[t] the set of the first t + 1 elements
        gaps, hi, per, rest, masks = ([0] * w for _ in range(5))
        rest[0], masks[0] = q, zero | 2
        t, hi[1] = 1, q // w  # gaps[1] is the least gap
        cut_at = w  # the depth of the cut prefix of masks[t], w if none
        while t:
            j = gaps[t] + 1
            if j > hi[t]:
                t -= 1
                continue
            gaps[t] = j
            per[t] = t if t == 1 or j > gaps[t - per[t - 1]] else per[t - 1]
            r = rest[t] = rest[t - 1] - j
            mask = masks[t] = masks[t - 1] | 1 << exp[q - r]
            if t + 1 < w:
                if cut and cut_at >= t:
                    cut_at = t if cut(mask) else w
                t += 1
                gaps[t] = gaps[t - per[t - 1]] - 1
                hi[t] = r - (w - t) * gaps[1]
            elif r > gaps[w - per[t]] or r == gaps[w - per[t]] and w % per[t] == 0:
                yield None if cut_at < t or cut and cut(mask) else mask


def _stream_key(field: PrimeField, A: FSet) -> tuple[bool, list[int]] | None:
    """Where _class_masks yields A: (0 not in A, gap sequence); None if it yields another set of A's class."""
    logs = sorted(field.dlog_table[a] for a in A if a)
    if logs and logs[0]:
        return None
    gaps = [b - a for a, b in zip(logs, logs[1:] + [field.p - 1])]
    per = 1  # the necklace test of the recursion: O(n)
    for t in range(1, len(gaps)):
        if gaps[t] < gaps[t - per]:
            return None
        if gaps[t] > gaps[t - per]:
            per = t + 1
    return None if len(gaps) % per else (0 not in A, gaps)


def _fresh_state(p: int, n: int) -> dict:
    return {
        "version": CHECKPOINT_VERSION, "p": p, "n": n, "mode": "exhaustive", "cursor": 0,
        "best_value": None, "witnesses": [], "classes_visited": 0,
    }


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
    if state["classes_visited"] != state["cursor"]:
        raise BadParameters("checkpoint classes_visited differs from cursor, which counts classes")
    if not (state["best_value"] is None) == (not state["witnesses"]) == (state["cursor"] == 0):
        raise BadParameters("checkpoint best_value and witnesses must be set exactly when cursor > 0")
    if len(state["witnesses"]) > state["classes_visited"]:
        raise BadParameters("checkpoint has more witnesses than classes_visited")
    field = make_field(p)
    keys = []
    for m in state["witnesses"]:
        if not (0 <= m < 1 << p and m.bit_count() == n):
            raise BadParameters(f"checkpoint witness {m} is not a mask of {n} elements of F_{p}")
        A = field.fset_from_mask(m)
        key = _stream_key(field, A)
        if key is None:
            raise BadParameters(f"checkpoint witness {m} is not the set the scan keeps for its class")
        if objective(A) != state["best_value"]:
            raise BadParameters(f"checkpoint witness {m} does not reach best_value")
        keys.append(key)
    if any(a >= b for a, b in zip(keys, keys[1:])):
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


def _pair_counts(p: int) -> tuple[list[int], list[int], Callable[[int, int], None]]:
    """(members, nonzero, move): counts by residue of the pair sums and products a <= b of members.

    move(x, 1) adds x to members and move(x, -1) removes it, keeping members
    sorted; either changes the counts of x + b and x * b for each member b,
    x among them, so O(|members|) counts.  nonzero holds how many sums and
    products are nonzero, so max(nonzero) is the objective of members.
    """
    members: list[int] = []
    sums, prods, nonzero = [0] * p, [0] * p, [0, 0]

    def move(x: int, step: int) -> None:
        if step > 0:
            insort(members, x)
        edge = step < 0  # the count a residue leaves as it turns: 0 on adding, 1 on removing
        turned_sums = turned_prods = 0
        for b in members:
            k = (x + b) % p
            c = sums[k]
            sums[k] = c + step
            turned_sums += c == edge
            k = x * b % p
            c = prods[k]
            prods[k] = c + step
            turned_prods += c == edge
        nonzero[0] += step * turned_sums
        nonzero[1] += step * turned_prods
        if step < 0:
            members.remove(x)

    return members, nonzero, move


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

    One walk of _class_masks, in this process; `workers` is only checked to
    be >= 1.  Adding an element never lowers the objective, so the walk cuts
    each prefix whose objective is strictly above the best so far (tested
    while min(p, k(k+1)/2) > best for k elements): every tied witness
    survives, and the classes under a cut prefix are counted, not scored.
    The cut's prefixes and every class the walk yields are scored from one
    _pair_counts, moved by mask difference.  When 2n - 1 >= p nothing is
    cut and each class is scored by objective, whose pigeonhole exits
    answer at once.  With a checkpoint_path the state (cursor, best,
    witnesses, classes) is written atomically after every checkpoint_every
    classes and the run resumes from an existing file, its best the cut's
    bound, bit-identical to an uninterrupted run.  max_steps stops after
    that many classes; it exists to exercise resumption deterministically.
    """
    if n < 1 or n > p:
        raise BadParameters(f"need 1 <= n <= p, got n={n}, p={p}")
    if workers < 1 or checkpoint_every < 1:
        raise BadParameters("workers and checkpoint_every must be >= 1")
    field = make_field(p)
    total = _class_count_guard(p, n)
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = _load_checkpoint(checkpoint_path, p, n, total)
    elif checkpoint_path and not os.path.isdir(os.path.dirname(os.path.abspath(checkpoint_path))):
        raise BadParameters(f"the directory of checkpoint {checkpoint_path!r} does not exist")
    else:
        state = _fresh_state(p, n)
    _, nonzero, move = _pair_counts(p)
    counted = 0  # the mask of the members

    def score(mask: int) -> int:
        nonlocal counted
        for x in _bits(counted & ~mask):
            move(x, -1)
        for x in _bits(mask & ~counted):
            move(x, 1)
        counted = mask
        return max(nonzero)

    def above_best(mask: int) -> bool:
        best, k = state["best_value"], mask.bit_count()
        return best is not None and min(p, k * (k + 1) // 2) > best and score(mask) > best

    start = state["cursor"]
    stop = total if max_steps is None else min(total, start + max_steps)
    # by Cauchy-Davenport every set has |A+A| >= min(p, 2n - 1), so from
    # 2n - 1 >= p on every objective is p and no prefix can be cut
    cut = above_best if 2 * n - 1 < p else None
    stream = islice(_class_masks(p, n, cut), start, None)
    for lo in range(start, stop, checkpoint_every):
        hi, visited = min(lo + checkpoint_every, stop), 0
        for visited, mask in enumerate(islice(stream, hi - lo), 1):
            if mask is None:
                continue
            value = score(mask) if cut else objective(field.fset_from_mask(mask))
            best = state["best_value"]
            if best is None or value < best:
                state["best_value"], state["witnesses"] = value, [mask]
            elif value == best:
                state["witnesses"].append(mask)
        state["classes_visited"] += visited
        state["cursor"] = hi
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, state)
    if state["cursor"] == total:
        check(state["classes_visited"] == total and not any(True for _ in stream),
              f"the class stream of ({p}, {n}) does not hold the {total} classes of Burnside's count")
    if state["best_value"] is None:
        raise BadParameters("max_steps exhausted before any class was visited")
    witnesses = sorted((canonical_form(field.fset_from_mask(m)) for m in state["witnesses"]),
                       key=lambda A: A.mask)
    return SearchRecord(p, n, state["best_value"], tuple(witnesses), "exhaustive", None,
                        state["classes_visited"])


def _anneal_walk(field: PrimeField, start: Iterable[int], rng: random.Random
                 ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(objective, sorted elements) of every set the anneal scores: start, then each proposal.

    The members and pair counts of _pair_counts follow the current set: a
    proposal (drop d, add x) is two moves, and a rejected one two more that
    take it back.
    """
    p = field.p
    members, nonzero, move = _pair_counts(p)
    for x in start:
        move(x, 1)
    value = max(nonzero)
    yield value, tuple(members)
    n, temp = len(members), ANNEAL_T0
    while True:
        drop = rng.choice(members)
        # the add-th smallest non-member, the draw of rng.choice on their sorted list
        add = rng.randrange(p - n)
        for c in members:
            if c > add:
                break
            add += 1
        move(drop, -1)
        move(add, 1)
        val = max(nonzero)
        yield val, tuple(members)
        delta = val - value
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            value = val
        else:
            move(add, -1)
            move(drop, 1)
        temp *= ANNEAL_COOLING


def anneal_extremal(p: int, n: int, seed: int = 0, iters: int = 10_000) -> SearchRecord:
    """Seed-deterministic simulated annealing over n-subsets of F_p.

    Starts from the progression {1..n}; a move swaps one element in/out;
    Metropolis acceptance on the objective difference at a temperature
    that starts at ANNEAL_T0 and is multiplied by ANNEAL_COOLING after
    each move.  iters counts the sets scored, the start set among them, so
    iters=1 reports the initial set unchanged.  The record holds the first
    set of least objective; it was accepted, since it beat the current set.
    """
    if n < 1 or n > p - 1:
        raise BadParameters(f"need 1 <= n <= p-1, got n={n}, p={p}")
    if iters < 1:
        raise BadParameters("iters must be >= 1")
    field = make_field(p)
    walk = _anneal_walk(field, range(1, n + 1), random.Random(seed))
    best_val, best_set = min(islice(walk, iters), key=lambda scored: scored[0])
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
    is subset-monotone, so the class walk cuts each prefix whose ratio set
    is F_p, and the scan stops at the first size with no proper witness.
    """
    field = make_field(p)
    entries: list[RatioScanEntry] = [RatioScanEntry(1, None, None)]
    max_n = 0
    for n in range(2, p + 1):
        _class_count_guard(p, n)
        masks = filter(None, _class_masks(p, n, lambda m: ratio_set(field.fset_from_mask(m)).card == p))
        proper = (canonical_form(field.fset_from_mask(m)) for m in masks)
        witness = min(proper, key=FSet.elements, default=None)
        entries.append(RatioScanEntry(n, witness is not None, witness))
        if witness is None:
            break
        max_n = n
    return RatioScanTable(p, tuple(entries), max_n, math.sqrt(p))
