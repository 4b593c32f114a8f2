"""Constructive covering, subset-extraction, witness and bucket machinery.

Every operation here returns a certificate that tests can re-check
independently: translate lists, explicit subsets, witness quadruples, or
exact integer inequalities.  All argmax selections tie-break toward the
smallest element/index so certificates are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    MINUS,
    PLUS,
    FSet,
    _require_operands,
    _rotation_union,
    _scaled_mask,
    negate,
    pair_counts,
    ratio_set,
    rep_fn,
    scale,
    signed_combination,
    sumset,
)
from .errors import (
    BadEpsilon,
    BadParameters,
    EmptyDecomposition,
    RatioSetFull,
    TooSmall,
    _check_guard,
    check,
)

LN100 = math.log(100.0)

# Desk-scale guards for the exhaustive existential searches.
KATZ_SHEN_MAX_BASE = 14
KATZ_SHEN_MAX_TERMS = 3
# gk_witness scores each t of R(A1) with |A1| rotations of a p-bit mask; a
# random 16-set at p = 65521 (|R| about 23,300: 373k rotations) takes 5.6-7.1 s
# of CPU time on a shared 2-core x86-64 host.
GK_MAX_ROTATIONS = 1 << 19

# max_j 16^j |Y_j|^3  >=  CHANG_CONSTANT * Ex(Y,Z)^4 / (|Y|^4 * max(m, |Z|))
# where m is the largest bucket size; see chang_floor_holds for the proof.
CHANG_CONSTANT_DEN = 400_000


@dataclass(frozen=True)
class CoverResult:
    """Greedy 99%-covering of B1 by translates of B2 (offsets c: c +/- B2)."""

    mode: str
    translates: tuple[int, ...]
    covered: FSet
    ratio_k: Fraction
    budget: int
    b1_card: int
    b2_card: int


def greedy_cover(B1: FSet, B2: FSet, mode: str = PLUS) -> CoverResult:
    """Cover 99% (in cardinality) of B1 with translates of B2.

    mode=plus uses translates c+B2 and the doubling ratio |B1+B2|/|B2|;
    mode=minus uses c-B2 and |B1-B2|/|B2|.  Each greedy step covers at
    least |U|/K of the uncovered part U: the covering counts r(c) =
    |(c+B2) cap U| satisfy sum_c r = |U||B2| and sum_c r^2 =
    sum_d r_{U+B2}(d)^2 >= (|U||B2|)^2/|U+B2|, so the best translate
    covers >= sum r^2 / sum r >= |U||B2|/|U+B2| >= |U|/K elements
    (symmetrically for minus).  Hence ceil(ln(100) * K) + 1 steps always
    suffice; the budget is checked at every step and the coverage at the end.
    r is pair_counts(B1, +/-B2) less the counts of every element covered.
    """
    field = _require_operands(B1, B2)
    if mode not in (PLUS, MINUS):
        raise ValueError(f"bad mode {mode!r}")
    p, full = field.p, field.full_mask
    op = sumset(B1, B2, mode)
    ratio_k = Fraction(op.card, B2.card)
    budget = math.ceil(LN100 * float(ratio_k)) + 1
    base = B2 if mode == PLUS else negate(B2)
    ys = list(base)
    uncovered = B1.mask
    covered_mask = 0
    translates: list[int] = []
    gains = pair_counts(list(B1), ys, p)
    # stop once <= 1% of B1 is uncovered (exact integer comparison)
    while 100 * uncovered.bit_count() > B1.card:
        best_c = gains.index(max(gains))
        translates.append(best_c)
        check(len(translates) <= budget, "covering budget exceeded")
        hit = _rotation_union(base.mask, (best_c,), p, full, PLUS) & uncovered
        covered_mask |= hit
        uncovered &= ~hit
        lost = pair_counts(list(field.fset_from_mask(hit)), ys, p)
        gains = [g - h for g, h in zip(gains, lost)]
    covered = field.fset_from_mask(covered_mask)
    check(100 * (B1.card - covered.card) <= B1.card, "coverage invariant broken")
    return CoverResult(mode, tuple(translates), covered, ratio_k, budget, B1.card, B2.card)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def katz_shen_subset(
    B0: FSet, Bs: Sequence[FSet], eps: Fraction | float
) -> tuple[FSet, Fraction]:
    """Exhaustive Katz-Shen subset extraction at desk scale.

    Returns the X in B0 with |X| >= (1-eps)|B0| minimizing
    |X+B1+...+Bk| / (prod_i(|Bi+B0|/|B0|) * |X|), plus that minimum as an
    exact rational; ties go to the X with the smaller mask, and with no Bi
    the result is (B0, 1).  Guarded to |B0| <= 14 and k <= 3 (exhaustive
    over all 2^|B0| subsets).
    """
    field = _require_operands(B0, *Bs)
    eps = Fraction(eps)
    n, d = eps.numerator, eps.denominator  # d > 0
    if not 0 < n < d:
        raise BadEpsilon(f"eps must be in (0, 1), got {eps}")
    _check_guard(B0.card <= KATZ_SHEN_MAX_BASE, f"|B0|={B0.card} exceeds exhaustive guard")
    _check_guard(len(Bs) <= KATZ_SHEN_MAX_TERMS, f"k={len(Bs)} exceeds exhaustive guard")
    if not Bs:
        return B0, Fraction(1)
    # ceil((1 - eps)|B0|) in integers
    min_card = max(1, -((n - d) * B0.card // d))
    tail = signed_combination([(Bi, PLUS) for Bi in Bs])
    # prod_i |Bi+B0| / |B0|^k as an integer numerator and denominator; the
    # chains pass one term k times, so each distinct Bi is summed once
    grown_by: dict[int, int] = {}
    num = 1
    for Bi in Bs:
        if Bi.mask not in grown_by:
            grown_by[Bi.mask] = sumset(Bi, B0).card
        num *= grown_by[Bi.mask]
    den = B0.card ** len(Bs)
    # the product is common to every X: cross-multiply |X+tail|/|X|; X = B0 comes first
    best_grown, best_card, best_mask = 0, 0, 0
    for sub in _submasks(B0.mask):
        card = sub.bit_count()
        if card < min_card:
            continue
        grown = sumset(FSet(field, sub, card), tail).card
        lhs, rhs = grown * best_card, best_grown * card
        if best_card == 0 or lhs < rhs or (lhs == rhs and sub < best_mask):
            best_grown, best_card, best_mask = grown, card, sub
    return FSet(field, best_mask, best_card), Fraction(best_grown * den, num * best_card)


@dataclass(frozen=True)
class GkWitness:
    """A quadruple (a,b,c,d), a != b, with its measured witness cardinality."""

    quadruple: tuple[int, int, int, int]
    variant: str
    expr_card: int
    target_num: int
    target_den: int


def _first_quadruple(A: FSet, ts: FSet) -> tuple[int, int, int, int]:
    """Lexicographically first (a,b,c,d) over sorted(A), a != b, with (d-c)/(b-a) in ts.

    For each (a, b) the candidate d's of every c are the rotation by c of
    (b-a)*ts, intersected with A; the lowest hit is the first d.
    """
    p, full = A.field.p, A.field.full_mask
    els = sorted(A)
    for a in els:
        for b in els:
            if a == b:
                continue
            D = _scaled_mask(b - a, ts)
            for c in els:
                hit = _rotation_union(D, (c,), p, full, PLUS) & A.mask
                if hit:
                    return a, b, c, (hit & -hit).bit_length() - 1
    raise ValueError("no quadruple of A has its ratio in ts")


def gk_witness(A1: FSet, variant: str = "plus_plus") -> GkWitness:
    """Exhaustive search for the best quadruple (a,b,c,d), a != b.

    Maximizes |(b-a)A1 +/- (b-a)A1 + (d-c)A1|; ties break toward the
    lexicographically smallest quadruple.  Dilation by b-a != 0 is a
    bijection, so that size is |A1 +/- A1 + t*A1| with t = (d-c)/(b-a) in
    the ratio set of A1: each t is scored once, and the first quadruple
    whose t reaches the maximum wins.
    """
    if A1.card < 2:
        raise TooSmall("gk_witness needs |A1| >= 2")
    if variant not in ("plus_plus", "plus_minus"):
        raise ValueError(f"bad variant {variant!r}")
    ratios = ratio_set(A1)
    if ratios.card == A1.field.p:
        raise RatioSetFull("ratio set equals F_p; use xi_search instead")
    rotations = ratios.card * A1.card
    _check_guard(
        rotations <= GK_MAX_ROTATIONS, f"|R(A1)|*|A1|={rotations} exceeds the gk_witness guard {GK_MAX_ROTATIONS}"
    )
    inner = sumset(A1, A1, PLUS if variant == "plus_plus" else MINUS)
    scores = {t: sumset(inner, scale(A1, t)).card for t in ratios}
    best = max(scores.values())
    best_ts = A1.field.fset(t for t, score in scores.items() if score == best)
    return GkWitness(_first_quadruple(A1, best_ts), variant, best, A1.card**2, 1)


def xi_search(A1: FSet) -> tuple[int, int]:
    """Scan all xi in F_p* for the minimizer of E+(A1, xi*A1).

    Uses E+(A, xi*A) = sum_e r_{A-A}(e) * r_{A-A}(xi*e) = r(0)^2 + c[dlog xi],
    c the autocorrelation mod p-1 of the dlogs of (A-A)* weighted by r, which
    costs |(A-A)*|^2 <= (p-1)^2 pairs.
    The returned minimum always satisfies the exact averaging bound
    energy * (p-1) <= |A1|^2 (p-1) + |A1|^4.
    """
    _require_operands(A1)
    p, dlog = A1.field.p, A1.field.dlog_table
    r = rep_fn(A1, A1, MINUS).counts
    logs = [dlog[e] for e in range(1, p) if r[e]]
    weights = [w for w in r[1:] if w]
    c = pair_counts(logs, logs, p - 1, weights, weights)
    best_xi = min(range(1, p), key=lambda xi: c[dlog[xi]])
    best_energy = r[0] ** 2 + c[dlog[best_xi]]
    n = A1.card
    check(best_energy * (p - 1) <= n * n * (p - 1) + n**4, "xi averaging bound broken")
    return best_xi, best_energy


def bucket_index(v: int) -> int:
    """Dyadic bucket of a count, N_1={1,2}, N_j=(2^(j-1), 2^j]: max(1, ceil(log2 v)), the chains' Lg."""
    if v < 1:
        raise ValueError("bucket_index needs v >= 1")
    return max(1, (v - 1).bit_length())


@dataclass(frozen=True)
class BucketDecomposition:
    """Pivot, dyadic buckets, and both sides of the bucket inequality."""

    pivot: int
    buckets: dict[int, FSet]
    s_sum: int
    energy: int
    lhs: int
    rhs_num: int
    rhs_den: int
    js_seq: dict[int, int]
    y_card: int
    z_card: int

    @property
    def max_bucket_card(self) -> int:
        return max((b.card for b in self.buckets.values()), default=0)

    @property
    def nonempty(self) -> dict[int, FSet]:
        return {j: b for j, b in self.buckets.items() if b.card}


def chang_decompose(Y: FSet, Z: FSet) -> BucketDecomposition:
    """Dyadic bucket decomposition of Y by |y0*Z cap y*Z| around the best pivot.

    For nonzero y0 and y, |y0*Z cap y*Z| = r(dlog y - dlog y0) + [0 in Z],
    where r(k) counts the pairs of Z* whose logs differ by k mod p-1, so one
    pair_counts over the logs of Z* gives every entry.  With 0*Z = {0}, an
    entry in the row or column of 0 is 1 at (0, 0) and [0 in Z] elsewhere.
    The pivot maximizes the row sum, so s_sum * |Y| >= Ex(Y,Z) exactly.
    """
    field = _require_operands(Y, Z)
    q, dlog = field.p - 1, field.dlog_table
    lz = [dlog[z] for z in Z if z]
    r = pair_counts(lz, lz, q)
    z0 = Z.mask & 1  # [0 in Z]
    els = Y.elements()  # ascending, so the first largest row wins
    logs = [dlog[y] for y in els if y]
    pivot, s_sum, e_val = -1, -1, 0
    for y0 in els:
        if y0:
            # a log difference lies in (-q, q); r[-k] is r[q - k]
            l0 = dlog[y0]
            row = z0 * Y.card
            for ly in logs:
                row += r[ly - l0]
        else:
            row = 1 + z0 * (Y.card - 1)
        e_val += row  # the rows add up to Ex(Y, Z) exactly
        if row > s_sum:
            pivot, s_sum = y0, row
    check(s_sum * Y.card >= e_val, "pivot pigeonhole broken")
    bucket_masks = dict.fromkeys(range(1, bucket_index(Z.card) + 1), 0)
    lp = dlog[pivot] if pivot else 0
    for y in els:
        if y and pivot:
            v = r[dlog[y] - lp] + z0
        else:
            v = 1 if y == pivot else z0
        if v:
            bucket_masks[bucket_index(v)] |= 1 << y
    buckets = {}
    lhs = 0
    # size classes run to ceil(log2 |Y|) so every nonempty bucket lands in one;
    # the walk goes up in j, so each class keeps its largest j
    js_seq = dict.fromkeys(range(1, bucket_index(Y.card) + 1), 0)
    for j, m in bucket_masks.items():
        b = buckets[j] = field.fset_from_mask(m)
        if b.card:
            lhs = max(lhs, 16**j * b.card**3)
            js_seq[bucket_index(b.card)] = j
    return BucketDecomposition(
        pivot=pivot,
        buckets=buckets,
        s_sum=s_sum,
        energy=e_val,
        lhs=lhs,
        rhs_num=e_val**4,
        rhs_den=Y.card**4 * Z.card,
        js_seq=js_seq,
        y_card=Y.card,
        z_card=Z.card,
    )


def chang_floor_holds(d: BucketDecomposition) -> bool:
    """Exact, provable floor for the bucket inequality.

    Claim: with L = max_j 16^j |Y_j|^3 and m = max_j |Y_j|,

        400000 * L * |Y|^4 * max(m, |Z|)  >=  Ex(Y,Z)^4.

    Proof sketch (all steps exact): Ex/|Y| <= s_sum <= sum_j 2^j |Y_j|.
    Grouping buckets by the dyadic class s of their size and writing
    j_s for the largest bucket index in class s,

        sum_j 2^j |Y_j| <= 2 * sum_{s} 2^s 2^{j_s},

    and since 2^s <= 2|Y_{j_s}|,

        2^s 2^{j_s} = 2^{0.75s} 2^{0.25s} 2^{j_s}
                   <= 2^{0.75} L^{1/4} 2^{0.25s}.

    The geometric sum over occupied classes s is at most
    c1 * (2m)^{1/4} with c1 = 2^{1/4}/(2^{1/4}-1), so

        Ex <= 4*c1 * |Y| * L^{1/4} * m^{1/4},

    i.e. Ex^4 <= (4*c1)^4 * |Y|^4 * L * m with (4*c1)^4 < 400000.
    Replacing m by max(m, |Z|) only weakens the right side.  The plain
    |Z|-form (rhs_den = |Y|^4 |Z|) follows whenever m <= |Z|; it is NOT
    universal (take Z a multiplicative Sidon set and Y = F_p*: the ratio
    decays like 16/|Z|), so only the max(m,|Z|) form is asserted.
    """
    scale_card = max(d.max_bucket_card, d.z_card)
    return CHANG_CONSTANT_DEN * d.lhs * d.y_card**4 * scale_card >= d.energy**4


def select_j0(d: BucketDecomposition) -> tuple[int, int]:
    """Bucket index maximizing 2^j |Y_j| plus its certificate value.

    certificate * 2 * (number of bucket slots) >= s_sum, exactly.
    """
    best_j, best_val = 0, -1
    for j in sorted(d.buckets):
        if d.buckets[j].card == 0:
            continue
        val = 2**j * d.buckets[j].card
        if val > best_val:
            best_j, best_val = j, val
    if best_j == 0:
        raise EmptyDecomposition("no nonempty bucket")
    check(best_val * 2 * len(d.buckets) >= d.s_sum, "j0 pigeonhole broken")
    return best_j, best_val


@dataclass(frozen=True)
class PlunneckeAudit:
    """Both Pluennecke-Ruzsa checks as exact integer comparisons."""

    k: int
    lhs_doubling: int  # |A+A| * |B|
    rhs_doubling: int  # |A+B|^2
    lhs_iterated: int  # |kB| * |A|^(k-1)
    rhs_iterated: int  # |A+B|^k

    @property
    def doubling_ok(self) -> bool:
        return self.lhs_doubling <= self.rhs_doubling

    @property
    def iterated_ok(self) -> bool:
        return self.lhs_iterated <= self.rhs_iterated

    @property
    def passed(self) -> bool:
        return self.doubling_ok and self.iterated_ok


def plunnecke_audit(A: FSet, B: FSet, k: int = 4) -> PlunneckeAudit:
    """Check |A+A||B| <= |A+B|^2 and |kB||A|^(k-1) <= |A+B|^k exactly."""
    _require_operands(A, B)
    if not 2 <= k <= 6:
        raise BadParameters(f"k must be in [2, 6], got {k}")
    ab = sumset(A, B).card
    kb = signed_combination([(B, PLUS)] * k)
    return PlunneckeAudit(
        k=k,
        lhs_doubling=sumset(A, A).card * B.card,
        rhs_doubling=ab**2,
        lhs_iterated=kb.card * A.card ** (k - 1),
        rhs_iterated=ab**k,
    )
