"""Proof chains as pipelines of exact checks and diagnostic ratios.

Each pipeline mirrors one proof: constant-free consequences of counting,
Cauchy-Schwarz, pigeonholing or set containment become *exact* steps that
must pass for every input, while steps whose statements carry unspecified
universal constants are *diagnostic* steps that only report the measured
ratio.  Square roots of the modulus are avoided by squaring both sides;
dyadic logs use max(1, ceil(log2 n)) so every ratio stays a positive
exact rational.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    MINUS,
    PLUS,
    FSet,
    _require_operands,
    _scaled_mask,
    negate,
    pattern_combination,
    product_set,
    ratio_set,
    scale,
    signed_combination,
    sumset,
)
from .energy import multiplicative_energy
from .errors import EmptyOperand
from .lemmas import (
    KATZ_SHEN_MAX_BASE,
    BucketDecomposition,
    _first_quadruple,
    bucket_index,
    chang_decompose,
    greedy_cover,
    gk_witness,
    katz_shen_subset,
    plunnecke_audit,
    select_j0,
    xi_search,
)

EXACT = "exact"
DIAGNOSTIC = "diagnostic"

# retained fraction per subset extraction; two applications keep >= 1/2
EXTRACTION_KEEP = math.sqrt(2.0) / 2.0
# the eps of each extraction, exact once here (Fraction of a float is exact)
_EXTRACTION_EPS = Fraction(1.0 - EXTRACTION_KEEP)


@dataclass(frozen=True, slots=True)
class ChainStep:
    name: str
    lhs_num: int
    lhs_den: int
    rhs_num: int
    rhs_den: int
    kind: str
    passed: bool | None

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.lhs_num * self.rhs_den, self.lhs_den * self.rhs_num)


# The |A| <= 5 sweep over p in {5, 7, 11, 13} has 3,136 distinct steps.
_STEP_CACHE_SIZE = 1 << 14


# Both constructors return one shared step per distinct field tuple: a sweep
# keeps every report, and most of its steps repeat from report to report.  A
# step is frozen and slotted, so sharing it changes no field, equality, hash,
# repr or pickle.  typed=True keeps 1, True and 1.0 apart, as a fresh step
# would; a miss interns the name, which an f-string builds afresh each time.
@lru_cache(maxsize=_STEP_CACHE_SIZE, typed=True)
def _shared_step(name: str, lhs_num: int, lhs_den: int, rhs_num: int, rhs_den: int, kind: str) -> ChainStep:
    passed = lhs_num * rhs_den <= rhs_num * lhs_den if kind == EXACT else None
    return ChainStep(sys.intern(name), lhs_num, lhs_den, rhs_num, rhs_den, kind, passed)


def exact_step(name: str, lhs: int, rhs: int, lhs_den: int = 1, rhs_den: int = 1) -> ChainStep:
    return _shared_step(name, lhs, lhs_den, rhs, rhs_den, EXACT)


def diag_step(name: str, lhs: int, rhs: int, lhs_den: int = 1, rhs_den: int = 1) -> ChainStep:
    return _shared_step(name, lhs, lhs_den, rhs, rhs_den, DIAGNOSTIC)


# Slotted like ChainStep, and with its quirk: assigning a name that is no
# field raises TypeError (from super()) on Python 3.10 and 3.11, not
# FrozenInstanceError.
@dataclass(frozen=True, slots=True)
class ChainReport:
    theorem: str
    sign: str | None
    inputs: dict
    steps: tuple[ChainStep, ...]
    case: str | None = None
    final_num: int = 1
    final_den: int = 1
    final_is_squared: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def violation(self) -> bool:
        return any(s.kind == EXACT and not s.passed for s in self.steps)

    @property
    def final_ratio(self) -> float:
        r = self.final_num / self.final_den
        return math.sqrt(r) if self.final_is_squared else r


def _signed(A: FSet, sign: str) -> FSet:
    return A if sign == PLUS else negate(A)


def _strip_zero(S: FSet) -> FSet:
    """Drop 0 before multiplicative steps unless the set is exactly {0}.

    The multiplicative-energy floor is false for 0-containing sets under
    the 0*Z = {0} convention, so the chains take the standard reduction
    to S \\ {0}; it costs at most half the set, recorded as the exact
    step |S| <= 2|S*|.
    """
    if 0 in S and S.card > 1:
        return S.field.fset_from_mask(S.mask & ~1)
    return S


def extract_half_subset(A: FSet, sign: str) -> tuple[FSet, str]:
    """A subset Z of A with 2|Z| >= |A| controlling |Z s A s A s A|.

    Two exhaustive subset extractions (each keeping a sqrt(2)/2 fraction)
    when |A| is small enough; otherwise a greedy element-removal descent
    minimizing |X + A + A| (labeled heuristic).  The second extraction runs
    only when the first drops an element: on A itself it would return A.
    """
    sA = _signed(A, sign)
    if A.card <= KATZ_SHEN_MAX_BASE:
        X1, _ = katz_shen_subset(A, [sA, sA, sA], _EXTRACTION_EPS)
        Z = X1 if X1.mask == A.mask else katz_shen_subset(X1, [sA, sA, sA], _EXTRACTION_EPS)[0]
        return Z, "exhaustive"
    T2 = sumset(sA, sA)
    X = A
    while 2 * (X.card - 1) >= A.card:
        best_x, best_card = -1, None
        for x in X:
            rest = X.field.fset_from_mask(X.mask ^ (1 << x))
            card = sumset(rest, T2).card
            if best_card is None or card < best_card:
                best_x, best_card = x, card
        X = X.field.fset_from_mask(X.mask ^ (1 << best_x))
    return X, "heuristic"


def _front_end(A: FSet, sign: str, steps: list[ChainStep]) -> tuple[FSet, FSet, BucketDecomposition]:
    """The small/large chains' shared Z-extraction: returns AsA, AA and Z*'s decomposition.

    Each set is built once: ZsZ and ZsZsZsZ stand for AsA and ZsAsAsA when
    Z = A, and for Z*sZ* and Z*sZ*sZ*sZ* when Z* = Z; Z*Z* is AA when Z* = A.
    """
    Z, label = extract_half_subset(A, sign)
    steps.append(exact_step(f"subset extraction ({label}): |A| <= 2|Z|", A.card, 2 * Z.card))
    zsz = sumset(Z, Z, sign)
    z4 = sumset(sumset(zsz, Z, sign), Z, sign)
    whole = Z.mask == A.mask
    za3 = z4 if whole else signed_combination([(Z, PLUS), (A, sign), (A, sign), (A, sign)])
    steps.append(exact_step("containment: |ZsZsZsZ| <= |ZsAsAsA|", z4.card, za3.card))
    asa = zsz if whole else sumset(A, A, sign)
    steps.append(
        diag_step("growth comparison: |ZsAsAsA| vs |AsA|^3/|A|^2", za3.card * A.card**2, asa.card**3)
    )
    Zs = _strip_zero(Z)
    steps.append(exact_step("zero removal: |Z| <= 2|Z*|", Z.card, 2 * Zs.card))
    d = chang_decompose(Zs, Zs)
    steps.append(exact_step("pivot pigeonhole: Ex(Z*,Z*) <= s_sum*|Z*|", d.energy, d.s_sum * Zs.card))
    zz = product_set(Zs, Zs)
    steps.append(exact_step("energy floor: |Z*|^4 <= Ex(Z*,Z*)*|Z*Z*|", Zs.card**4, d.energy * zz.card))
    if Zs.mask != Z.mask:
        zsz = sumset(Zs, Zs, sign)
        z4 = sumset(sumset(zsz, Zs, sign), Zs, sign)
    steps.append(
        diag_step("bucket bound: max 16^j|Z_j|^3 vs |ZsZ|^5 |ZsZsZsZ|", d.lhs, zsz.card**5 * z4.card)
    )
    aa = zz if Zs.mask == A.mask else product_set(A, A)
    return asa, aa, d


def _inputs(A: FSet, B: FSet | None = None) -> dict:
    out = {"p": A.field.p, "a": list(A), "a_card": A.card}
    if B is not None:
        out["b"] = list(B)
        out["b_card"] = B.card
    return out


def _case(d: BucketDecomposition, bucket: str, steps: list[ChainStep]) -> str:
    """The j0 pigeonhole step, then T12/T14's split: club iff |X_j0|^2 > p, so R(X_j0) = F_p by pigeonhole."""
    j0, cert = select_j0(d)
    name = f"j0 pigeonhole: s_sum <= 2*J*2^j0*|{bucket}_j0|"
    steps.append(exact_step(name, d.s_sum, 2 * len(d.buckets) * cert))
    X = d.buckets[j0]
    return "club" if X.card**2 > X.field.p else "spade"


@lru_cache(maxsize=4)
def _pair_decomposition(A: FSet, B: FSet) -> tuple[FSet, FSet, BucketDecomposition, FSet]:
    """A*, B*, the (A*, B*) decomposition and A*B*.

    Memoized: T15 opens with the decomposition P51 has just built for the
    same (A, B).  Callers share the result, so they must not mutate it.
    """
    As = _strip_zero(A)
    Bs = _strip_zero(B)
    return As, Bs, chang_decompose(As, Bs), product_set(As, Bs)


def _pair_front(
    A: FSet, B: FSet, pivot: str, steps: list[ChainStep]
) -> tuple[FSet, FSet, BucketDecomposition, FSet]:
    """P51 and T15's opening: zero removal, the (A*, B*) decomposition, A*B*, energy floor."""
    _require_operands(A, B)
    if (A.mask == 1) != (B.mask == 1):
        # A* = {0} against a nonzero B*: Ex = |A*B*| = 1, so the floor would ask |B*|^2 <= 1
        raise EmptyOperand("A and B must both be {0} or both have a nonzero element")
    As, Bs, d, abp = _pair_decomposition(A, B)
    steps.append(exact_step("zero removal: |A| <= 2|A*|", A.card, 2 * As.card))
    steps.append(exact_step("zero removal: |B| <= 2|B*|", B.card, 2 * Bs.card))
    steps.append(exact_step(f"{pivot} pigeonhole: Ex(A*,B*) <= s_sum*|A*|", d.energy, d.s_sum * As.card))
    steps.append(
        exact_step(
            "energy floor: |A*|^2|B*|^2 <= Ex(A*,B*)*|A*B*|",
            As.card**2 * Bs.card**2,
            d.energy * abp.card,
        )
    )
    return As, Bs, d, abp


def chain_small(A: FSet, sign: str = PLUS) -> ChainReport:
    """Small-set chain: |AsA|^8 |AA|^4 against |A|^13."""
    _require_operands(A)
    warnings = []
    p = A.field.p
    if A.card**2 > p:
        warnings.append("|A|^2 > p: small-set hypothesis not met")
    steps: list[ChainStep] = []
    asa, aa, d = _front_end(A, sign, steps)
    steps.append(
        diag_step("bucket target: max 16^j|Z_j|^3 vs |A|^11/|AA|^4", d.lhs * aa.card**4, A.card**11)
    )
    final_num = asa.card**8 * aa.card**4
    final_den = A.card**13
    steps.append(diag_step("final: |AsA|^8 |AA|^4 vs |A|^13", final_num, final_den))
    return ChainReport(
        theorem="T11",
        sign=sign,
        inputs=_inputs(A),
        steps=tuple(steps),
        final_num=final_num,
        final_den=final_den,
        warnings=tuple(warnings),
    )


def chain_large(A: FSet, sign: str = PLUS) -> ChainReport:
    """Large-set chain: spade/club case split on the ratio set of Z_j0."""
    _require_operands(A)
    warnings = []
    p = A.field.p
    if A.card**2 < p:
        warnings.append("|A|^2 < p: large-set hypothesis not met")
    steps: list[ChainStep] = []
    asa, aa, d = _front_end(A, sign, steps)
    case = _case(d, "Z", steps)
    spade_lhs = (asa.card**8 * aa.card**4) ** 2 * p
    spade_rhs = A.card**28
    steps.append(diag_step("(spade, squared): (|AsA|^8|AA|^4)^2 p vs |A|^28", spade_lhs, spade_rhs))
    club_lhs = asa.card**7 * aa.card**4
    club_rhs = A.card**10 * p
    steps.append(diag_step("(club): |AsA|^7|AA|^4 vs |A|^10 p", club_lhs, club_rhs))
    if case == "spade":
        final_num, final_den, squared = spade_lhs, spade_rhs, True
    else:
        final_num, final_den, squared = club_lhs, club_rhs, False
    return ChainReport(
        theorem="T12",
        sign=sign,
        inputs=_inputs(A),
        steps=tuple(steps),
        case=case,
        final_num=final_num,
        final_den=final_den,
        final_is_squared=squared,
        warnings=tuple(warnings),
    )


def _bucket_construction(
    A: FSet, B: FSet, j: int, Aj: FSet, sizes: tuple[int, int, int], a0B: int, steps: list[ChainStep]
) -> None:
    """The covering construction of one bucket: covers, retention, product bound.

    sizes = (|A+A|, |A+B|, |4B|) and a0B, the mask of a0*B for the pivot a0,
    are the same for every bucket, so the audit computes them once.
    """
    p = A.field.p
    tag = f"bucket j={j}"
    aa, ab, b4 = sizes
    steps.append(
        diag_step(f"{tag} ceiling: 16^j|A_j|^3 vs |A+A||A+B|^4|4B|", 16**j * Aj.card**3, aa * ab**4 * b4)
    )
    ratio_full = Aj.card >= 2 and ratio_set(Aj).card == p
    steps.append(
        diag_step(
            f"{tag} (a/c): 16^j|A_j|^3 vs |A+B|^10/(|A|^3|B|)",
            16**j * Aj.card**3 * A.card**3 * B.card,
            ab**10,
        )
    )
    if ratio_full:
        steps.append(
            diag_step(
                f"{tag} (b): 16^j min(|A_j|^2, p) vs |A+B|^8/|A|^3",
                16**j * min(Aj.card**2, p) * A.card**3,
                ab**8,
            )
        )
    if Aj.card < 2:
        return
    if ratio_full:
        xi, _ = xi_search(Aj)
        a, b, c, d = _first_quadruple(Aj, Aj.field.fset([xi]))
    else:
        a, b, c, d = gk_witness(Aj).quadruple
    counts = []
    covered_masks = []
    quad_signed = [(-a) % p, b, (-c) % p, d]
    covers = {}  # (x, u) repeats when a = c or b = d
    for x, u in zip((a, b, c, d), quad_signed):
        cover = covers.get((x, u))
        if cover is None:
            S = A.field.fset_from_mask(_scaled_mask(x, B) & a0B)
            cover = covers[x, u] = greedy_cover(scale(Aj, u), S, MINUS)
        counts.append(len(cover.translates))
        covered_masks.append(cover.covered.mask)
        steps.append(
            exact_step(
                f"{tag} cover budget (x={x}): translates <= ceil(ln100*K)+1",
                len(cover.translates),
                cover.budget,
            )
        )
        steps.append(
            diag_step(f"{tag} translate count (x={x}) vs |A+B|/2^j", counts[-1] * 2**j, ab)
        )
    keep_mask = 0
    for t in Aj:
        images = (t * quad_signed[0] % p, t * quad_signed[1] % p, t * quad_signed[2] % p, t * quad_signed[3] % p)
        if all(cm >> img & 1 for cm, img in zip(covered_masks, images)):
            keep_mask |= 1 << t
    Ap = A.field.fset_from_mask(keep_mask)
    steps.append(exact_step(f"{tag} retention: 4|A_j| <= 5|A'|", 4 * Aj.card, 5 * Ap.card))
    if Ap.card == 0:
        return
    lhs4 = signed_combination([(scale(Ap, u), PLUS) for u in quad_signed]).card
    n_prod = counts[0] * counts[1] * counts[2] * counts[3]
    steps.append(
        exact_step(f"{tag} four-cover product: |-aA'+bA'-cA'+dA'| <= n_a n_b n_c n_d |4B|", lhs4, n_prod * b4)
    )
    Ad1, Ad2 = scale(Ap, b - a), scale(Ap, d - c)
    two_term = sumset(Ad1, Ad2)
    three_term = sumset(two_term, Ad1)  # (b-a)A' + (b-a)A' + (d-c)A'
    if ratio_full:
        steps.append(
            diag_step(
                f"{tag} two-term growth (xi route): |(b-a)A'+(d-c)A'| vs min(|A_j|^2, p)",
                two_term.card,
                min(Aj.card**2, p),
            )
        )
    else:
        steps.append(
            diag_step(f"{tag} three-term growth: |(b-a)A'+(b-a)A'+(d-c)A'| vs |A_j|^2", three_term.card, Aj.card**2)
        )
    steps.append(
        diag_step(
            f"{tag} doubling transfer: 3-term sum vs (|A'+A'|/|A'|)|(b-a)A'+(d-c)A'|",
            three_term.card * Ap.card,
            sumset(Ap, Ap).card * two_term.card,
        )
    )


@lru_cache(maxsize=4)
def _p51(A: FSet, B: FSet) -> tuple[tuple[ChainStep, ...], BucketDecomposition, int, int]:
    """Steps, (A*, B*) decomposition and final ratio of the P51 audit.

    Memoized: T13 and T14 extend the audit of the (A, B) just audited.
    Callers share the result, so they must not mutate the decomposition.
    """
    steps: list[ChainStep] = []
    As, Bs, d, ab_prod = _pair_front(A, B, "a0", steps)
    steps.append(
        exact_step("a0 row: |A*||B*|^2 <= s_sum*|A*B*|", As.card * Bs.card**2, d.s_sum * ab_prod.card)
    )
    ab = sumset(As, Bs).card
    sizes = (sumset(As, As).card, ab, pattern_combination(Bs, "++++").card)
    a0B = _scaled_mask(d.pivot, Bs)
    for j, Aj in sorted(d.nonempty.items()):
        _bucket_construction(As, Bs, j, Aj, sizes, a0B, steps)
    pa = plunnecke_audit(A, B, 4)
    steps.append(exact_step("PR doubling: |A+A||B| <= |A+B|^2", pa.lhs_doubling, pa.rhs_doubling))
    steps.append(exact_step("PR iterated: |4B||A|^3 <= |A+B|^4", pa.lhs_iterated, pa.rhs_iterated))
    final_num = d.lhs * As.card**3 * Bs.card
    final_den = ab**10
    steps.append(
        diag_step("final (a): max 16^j|A_j|^3 vs |A+B|^10/(|A|^3|B|)", final_num, final_den)
    )
    return tuple(steps), d, final_num, final_den


def prop51_audit(A: FSet, B: FSet) -> ChainReport:
    """Per-bucket covering construction behind the different-set estimates."""
    steps, _, final_num, final_den = _p51(A, B)
    return ChainReport(
        theorem="P51",
        sign=None,
        inputs=_inputs(A, B),
        steps=steps,
        final_num=final_num,
        final_den=final_den,
    )


def chain_unbalanced(A: FSet, B: FSet, theorem: str = "T13") -> ChainReport:
    """Different-set chains: bucket pigeonhole plus the ratio-set case split."""
    if theorem not in ("T13", "T14"):
        raise ValueError(f"bad theorem {theorem!r}")
    base_steps, d, _, _ = _p51(A, B)
    steps = list(base_steps)
    p = A.field.p
    case = _case(d, "A", steps)
    ab = sumset(A, B).card
    abp = product_set(A, B).card
    lg_b = bucket_index(B.card)
    lg_a = bucket_index(A.card)
    t13_num = ab**10 * abp**4 * lg_b**4
    t13_den = A.card**6 * B.card**9
    steps.append(diag_step("T1.3: |A+B|^10|AB|^4 Lg(B)^4 vs |A|^6|B|^9", t13_num, t13_den))
    steps.append(
        diag_step(
            "T1.3 (symmetric): |A+B|^10|AB|^4 Lg(A)^4 vs |B|^6|A|^9",
            ab**10 * abp**4 * lg_a**4,
            B.card**6 * A.card**9,
        )
    )
    spade_num = (ab**10 * abp**4 * lg_b**4) ** 2 * p
    spade_den = (A.card**7 * B.card**9) ** 2
    club_num = ab**8 * abp**4 * lg_b**4
    club_den = p * A.card**3 * B.card**8
    steps.append(
        diag_step("T1.4 (spade, squared): (|A+B|^10|AB|^4 Lg^4)^2 p vs (|A|^7|B|^9)^2", spade_num, spade_den)
    )
    steps.append(diag_step("T1.4 (club): |A+B|^8|AB|^4 Lg^4 vs p|A|^3|B|^8", club_num, club_den))
    if theorem == "T13":
        final_num, final_den, squared = t13_num, t13_den, False
    elif case == "spade":
        final_num, final_den, squared = spade_num, spade_den, True
    else:
        final_num, final_den, squared = club_num, club_den, False
    return ChainReport(
        theorem=theorem,
        sign=None,
        inputs=_inputs(A, B),
        steps=tuple(steps),
        case=case,
        final_num=final_num,
        final_den=final_den,
        final_is_squared=squared,
    )


def chain_balanced(A: FSet, B: FSet) -> ChainReport:
    """Comparable-size chain: |A+B|^10 |AB|^4 against |A|^15."""
    warnings = []
    lo, hi = sorted((A.card, B.card))
    if hi > 2 * lo:
        warnings.append("|A| and |B| differ by more than a factor of 2")
    steps: list[ChainStep] = []
    As, _, d, abp = _pair_front(A, B, "pivot", steps)
    steps.append(
        diag_step("bucket lemma: max 16^j|A_j|^3 vs Ex(A,B)^4/|A|^5", d.lhs * As.card**5, d.energy**4)
    )
    ab = sumset(A, B)
    steps.append(
        diag_step("bucket bound (c): max 16^j|A_j|^3 vs |A+B|^10/|A|^4", d.lhs * A.card**4, ab.card**10)
    )
    final_num = ab.card**10 * abp.card**4
    final_den = A.card**15
    steps.append(diag_step("final: |A+B|^10|AB|^4 vs |A|^15", final_num, final_den))
    return ChainReport(
        theorem="T15",
        sign=None,
        inputs=_inputs(A, B),
        steps=tuple(steps),
        final_num=final_num,
        final_den=final_den,
        warnings=tuple(warnings),
    )


def energy_bound_audit(A: FSet) -> ChainReport:
    """Remark diagnostics: Ex(A,A)^4 against the mixed-sumset right sides."""
    _require_operands(A)
    e4 = multiplicative_energy(A, A).value ** 4
    n = A.card
    two_plus, two_minus = sumset(A, A, PLUS), sumset(A, A, MINUS)
    a_plus, a_minus = two_plus.card, two_minus.card
    mixed = sumset(sumset(two_plus, A, MINUS), A, MINUS).card
    plus4 = sumset(sumset(two_plus, A), A).card
    minus4 = sumset(sumset(two_minus, A, MINUS), A, MINUS).card
    lg = bucket_index(n)
    steps = [
        diag_step("log form: Ex^4 vs |A|^5|A-A|^5|A+A-A-A| Lg^4", e4, n**5 * a_minus**5 * mixed * lg**4),
        diag_step("log-free form: Ex^4 vs |A|^5|A-A|^5|A+A-A-A|", e4, n**5 * a_minus**5 * mixed),
        diag_step("(byproduct, plus): Ex^4 vs |A|^5|A+A|^5|A+A+A+A|", e4, n**5 * a_plus**5 * plus4),
        diag_step("(byproduct, minus): Ex^4 vs |A|^5|A-A|^5|A-A-A-A|", e4, n**5 * a_minus**5 * minus4),
        diag_step("(byproduct 2, plus): Ex^4 vs |A|^3|A+A|^8", e4, n**3 * a_plus**8),
        diag_step("(byproduct 2, minus): Ex^4 vs |A|^3|A-A|^8", e4, n**3 * a_minus**8),
    ]
    final_num = e4
    final_den = n**5 * a_minus**5 * mixed
    return ChainReport(
        theorem="REMARK",
        sign=None,
        inputs=_inputs(A),
        steps=tuple(steps),
        final_num=final_num,
        final_den=final_den,
    )
