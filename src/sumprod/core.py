"""Prime-field context and exact set arithmetic.

Sets are fixed-width membership bitmasks indexed by residue, so sumsets are
shift-OR rotations of Python big ints and cardinalities are popcounts.
Product sets reduce to cyclic sumsets in the discrete-log domain; 0 is
handled by an explicit side rule because the log map excludes it.

Both go through one rotation-union kernel: the doubled mask
d = m | m << p holds every cyclic rotation of the p-bit mask m in one
window, so the rotation by k is the single shift d >> (p - k) and the
rotation by -k is d >> k.  The shifts are ORed together and the bits at
index >= p are cut off once, after the last one.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import (
    CompositeModulus,
    EmptyOperand,
    FieldMismatch,
    ModulusTooSmall,
    TooSmall,
    ZeroDilation,
    _check_guard,
    check,
)

PLUS = "plus"
MINUS = "minus"

# Largest modulus make_field builds: its two p-entry tables peak near 114 MB
# of RSS (0.5 s) at p = 1048573 and grow linearly beyond.
MAX_FIELD_P = 1 << 20

# pair count from which numpy beats the pure-Python loop, once it is imported
_NUMPY_PAIR_THRESHOLD = 1024
# pair count from which a process that has not loaded numpy gains by importing
# it: on a shared 2-core x86-64 host with numpy 2.4, importing numpy and
# numpy.fft took 72-92 ms of CPU, pair_counts' loop 123-160 ns per pair and
# pair_energy's Counter 185-210 ns, so they break even near 2^19 pairs
_NUMPY_COLD_PAIRS = 1 << 19
# pairs per numpy block, so the int64 difference block stays at 32 MB
_PAIR_BLOCK = 1 << 22
# pairs per FFT bin from which one FFT correlation beats np.add.at: measured
# with numpy 2.4 on a 2-core x86-64 host, at m = 65521 (n_fft = 2^17) 1024^2
# pairs take 6 ms by add.at against 8 ms by FFT, 4096^2 take 85 ms against 8 ms;
# at n_fft <= 512 the FFT's fixed ~25 us can lose up to ~15 us at the crossover
_FFT_PAIRS_PER_BIN = 16
# (sum u^2)(sum v^2) of the two histograms below which every FFT count rounds
# exactly (see _fft_pair_hist); every set of residues below MAX_FIELD_P is far below
_FFT_NORM_LIMIT = 1 << 76
# pair_energy's int64 dot is exact below this bound on its sum
_INT64_LIMIT = 1 << 63
# set bits from which one bin()/str.find pass decodes a mask faster than
# peeling low bits, each peel costing O(p) big-int work
_DENSE_BITS = 48
# elements from which _mask_from's one O(width) digit pass builds a mask faster
# than ORing them in one at a time, each OR copying the mask: on a shared 2-core
# x86-64 host the two broke even near 128 elements at p = 1009, 160-190 at
# p = 4099 and 300 at p = 65521, where 4096 elements took 0.54 ms against 3.0 ms
_MASK_PASS_ELEMENTS = 256
# rotations per block of _rotation_union, checked for saturation between blocks:
# at p = 65521 (random sets, shared 2-core x86-64 host) 1024 x 1024 went 4.0 -> 2.8 ms
# and 4096 x 4096 24.2 -> 0.8 ms, 256 x 256 (never full) 0.81 -> 0.84 ms; blocks of
# 8-32 gained nothing more there, blocks of 128-256 overshot (3.2-3.9 ms at 1024)
_UNION_BLOCK = 64


def _is_prime(n: int) -> bool:
    # Deterministic trial division; documented limit p < 2**63.
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of a nonnegative mask."""
    out = []
    if mask.bit_count() < _DENSE_BITS:
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    bits = bin(mask)[:1:-1]  # binary digits, least significant first
    k = bits.find("1")
    while k >= 0:
        out.append(k)
        k = bits.find("1", k + 1)
    return tuple(out)


def _mask_from(indices: Iterable[int], width: int) -> int:
    """Mask with bit i set for every i in indices (0 <= i < width), in one O(width) pass:
    binary digit width - 1 - i is 1 for every i."""
    digits = bytearray(b"0" * width)
    for i in indices:
        digits[width - 1 - i] = 49
    return int(digits, 2)


def _numpy_pays(pairs: int) -> bool:
    """Whether numpy takes a kernel of `pairs` pairs: from _NUMPY_PAIR_THRESHOLD on
    once numpy is imported, else from _NUMPY_COLD_PAIRS on.  Both branches are exact."""
    return pairs >= (_NUMPY_PAIR_THRESHOLD if "numpy" in sys.modules else _NUMPY_COLD_PAIRS)


@dataclass(frozen=True)
class PrimeField:
    """F_p with exp/dlog tables for the smallest primitive root g.

    exp_table[k] = g**k mod p for k in [0, p-1); dlog_table inverts it,
    with dlog_table[0] = -1 as a sentinel (0 has no discrete log).
    """

    p: int
    g: int
    exp_table: tuple[int, ...]
    dlog_table: tuple[int, ...]

    def __post_init__(self) -> None:
        # the mask of all of F_p, read on every sumset: computed once and kept
        # in the instance __dict__ rather than in a field, so equality,
        # hashing, repr and dataclasses.fields see only (p, g, tables)
        self.__dict__["full_mask"] = (1 << self.p) - 1

    def inv(self, x: int) -> int:
        """Multiplicative inverse of nonzero x."""
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        q = self.p - 1
        return self.exp_table[(q - self.dlog_table[x]) % q]

    def fset(self, elements: Iterable[int]) -> "FSet":
        mask = 0
        for e in elements:
            mask |= 1 << (e % self.p)
        return FSet(self, mask, mask.bit_count())

    def fset_from_mask(self, mask: int) -> "FSet":
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        if mask >> self.p:
            raise ValueError("mask has bits at index >= p")
        return FSet(self, mask, mask.bit_count())

    def full_set(self) -> "FSet":
        """F_p as one FSet per field, kept in the instance __dict__ as full_mask
        is: the full answers of sumset and product_set share it and its element cache."""
        full = self.__dict__.get("_full_set")
        if full is None:
            full = self.__dict__["_full_set"] = FSet(self, self.full_mask, self.p)
        return full

    def __repr__(self) -> str:  # tables are bulky and fully determined by p
        return f"PrimeField(p={self.p}, g={self.g})"


@lru_cache(maxsize=64)
def make_field(p: int) -> PrimeField:
    """Build the PrimeField for an odd prime p <= MAX_FIELD_P (smallest primitive root)."""
    if p < 3:
        raise ModulusTooSmall(f"modulus must be >= 3, got {p}")
    _check_guard(p <= MAX_FIELD_P, f"p={p} exceeds the field-size guard {MAX_FIELD_P}")
    if not _is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    factors = _prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    exp_table = [1] * (p - 1)
    for k in range(1, p - 1):
        exp_table[k] = exp_table[k - 1] * g % p
    dlog_table = [-1] * p
    for k, v in enumerate(exp_table):
        dlog_table[v] = k
    return PrimeField(p, g, tuple(exp_table), tuple(dlog_table))


@dataclass(frozen=True)
class FSet:
    """A subset of F_p as a p-bit membership mask with cached cardinality.

    The ascending elements are decoded from the mask once, on first use,
    and kept in the instance __dict__ rather than in a field, so equality,
    hashing, repr and dataclasses.fields see only (field, mask, card).
    """

    field: PrimeField
    mask: int
    card: int

    def __init__(self, field: PrimeField, mask: int, card: int) -> None:
        # dataclass keeps a class's own __init__; the generated one would set
        # each field through object.__setattr__, about twice as slow as
        # writing the instance __dict__, and chain sweeps build ~1 M sets
        d = self.__dict__
        d["field"] = field
        d["mask"] = mask
        d["card"] = card

    def elements(self) -> tuple[int, ...]:
        els = self.__dict__.get("_elements")
        if els is None:
            els = self.__dict__["_elements"] = _bits(self.mask)
        return els

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> (x % self.field.p) & 1)

    def __len__(self) -> int:
        return self.card

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FSet)
            and self.field.p == other.field.p
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.mask))

    def __repr__(self) -> str:
        return f"FSet(p={self.field.p}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class RepFn:
    """Representation function counts[d] = #{(a, b): a +/- b = d}."""

    field: PrimeField
    counts: tuple[int, ...]
    total: int

    def __getitem__(self, d: int) -> int:
        return self.counts[d % self.field.p]


def _require_same_field(*sets: FSet) -> PrimeField:
    field = sets[0].field
    for s in sets[1:]:
        if s.field.p != field.p:
            raise FieldMismatch(f"operands over p={field.p} and p={s.field.p}")
    return field


def _require_nonempty(*sets: FSet) -> None:
    for s in sets:
        if s.card == 0:
            raise EmptyOperand("operation requires nonempty operands")


def _rotate(mask: int, k: int, p: int, full: int) -> int:
    """Cyclic left rotation of a p-bit mask: bit i -> bit (i + k) mod p."""
    k %= p
    if k == 0:
        return mask
    return ((mask << k) | (mask >> (p - k))) & full


def _rotation_union(mask: int, ks: Sequence[int], p: int, full: int, sign: str) -> int:
    """OR over k in ks (0 <= k <= p) of the cyclic rotation of a p-bit mask by +k or -k.

    The doubled mask d = mask | mask << p holds every rotation: bit i -> bit
    (i + k) mod p is d >> (p - k), bit i -> bit (i - k) mod p is d >> k.
    Only the low p bits of each shift are wanted, so they are cut once, at
    the end.  More than _UNION_BLOCK rotations are ORed in blocks of that
    many, and the union stops at `full` after the first block that fills it:
    no further rotation can add a bit.  A single block runs no check.
    """
    d = mask | mask << p
    acc = 0
    if len(ks) <= _UNION_BLOCK:
        if sign == PLUS:
            for k in ks:
                acc |= d >> (p - k)
        else:
            for k in ks:
                acc |= d >> k
        return acc & full
    for lo in range(0, len(ks), _UNION_BLOCK):
        if sign == PLUS:
            for k in ks[lo : lo + _UNION_BLOCK]:
                acc |= d >> (p - k)
        else:
            for k in ks[lo : lo + _UNION_BLOCK]:
                acc |= d >> k
        if acc & full == full:
            return full
    return acc & full


def sumset(A: FSet, B: FSet, sign: str = PLUS, method: str = "bitmask") -> FSet:
    """A + B or A - B in F_p.

    The bitmask method ORs cyclic rotations of A's mask, one per element
    of B (see _rotation_union), and stops once they fill F_p.  When
    |A| + |B| > p it answers F_p (field.full_set()) at once: for every x,
    the sets x - B (or x + B) and A have more than p elements between them,
    so they meet (pigeonhole, the equality case of Cauchy-Davenport).  The
    naive method is a double loop kept as the permanent oracle.
    """
    field = A.field
    if B.field is not field and B.field.p != field.p:
        raise FieldMismatch(f"operands over p={field.p} and p={B.field.p}")
    if not (A.card and B.card):
        raise EmptyOperand("operation requires nonempty operands")
    if sign not in (PLUS, MINUS):
        raise ValueError(f"bad sign {sign!r}")
    p = field.p
    if method == "bitmask":
        if A.card + B.card > p:
            return field.full_set()
        if sign == PLUS and B.card > A.card:
            A, B = B, A
        acc = _rotation_union(A.mask, B.elements(), p, field.full_mask, sign)
        return FSet(field, acc, acc.bit_count())  # rotations stay below bit p
    if method != "naive":
        raise ValueError(f"bad method {method!r}")
    if sign == PLUS:
        out = {(a + b) % p for a in A for b in B}
    else:
        out = {(a - b) % p for a in A for b in B}
    return field.fset(out)


def negate(A: FSet) -> FSet:
    """-A = {-a mod p}."""
    return dilate(A, A.field.p - 1)


def signed_combination(terms: Sequence[tuple[FSet, str]]) -> FSet:
    """Fold sumset over (set, sign) terms: {sum of eps_i * a_i}."""
    if not terms:
        raise EmptyOperand("signed_combination requires at least one term")
    first, first_sign = terms[0]
    _require_nonempty(first)
    acc = negate(first) if first_sign == MINUS else first
    for s, sign in terms[1:]:
        acc = sumset(acc, s, sign)
    return acc


def pattern_combination(A: FSet, pattern: str) -> FSet:
    """signed_combination of one set against a sign string like '++--'."""
    signs = {"+": PLUS, "-": MINUS}
    try:
        terms = [(A, signs[c]) for c in pattern]
    except KeyError:
        raise ValueError(f"bad sign pattern {pattern!r}") from None
    return signed_combination(terms)


def product_set(A: FSet, B: FSet, method: str = "log") -> FSet:
    """AB = {ab mod p}.

    The log method strips 0, maps nonzero elements through dlog, takes a
    cyclic sumset modulo p-1 and maps back (a dense result through numpy
    when _numpy_pays, see _exp_mask); 0 enters the product set iff 0 is in
    one operand (the other being nonempty per precondition).  When
    |A*| + |B*| > p - 1 (pigeonhole in the cyclic group F_p*, as in sumset)
    or the union fills it, A*B* is F_p*: no rotation or decode runs.
    """
    field = A.field
    if B.field is not field and B.field.p != field.p:
        raise FieldMismatch(f"operands over p={field.p} and p={B.field.p}")
    if not (A.card and B.card):
        raise EmptyOperand("operation requires nonempty operands")
    p = field.p
    if method == "naive":
        return field.fset({(a * b) % p for a in A for b in B})
    if method != "log":
        raise ValueError(f"bad method {method!r}")
    q = p - 1
    units = (1 << q) - 1
    zero = (A.mask | B.mask) & 1  # 0 is in AB iff it is in A or in B
    na, nb = A.card - (A.mask & 1), B.card - (B.mask & 1)  # |A*|, |B*|
    acc = 0
    if na + nb > q:
        acc = units
    elif na and nb:
        dlog = field.dlog_table
        if na < _MASK_PASS_ELEMENTS:
            la = 0
            for a in A.elements():
                if a:
                    la |= 1 << dlog[a]
        else:
            la = _mask_from((dlog[a] for a in A.elements() if a), q)
        acc = _rotation_union(la, [dlog[b] for b in B.elements() if b], q, units, PLUS)
    if acc == units:
        return field.full_set() if zero else FSet(field, field.full_mask ^ 1, q)
    exp = field.exp_table
    mask = zero
    # a few elements are encoded one at a time; more by numpy where it pays,
    # or else in one O(p) pass
    if acc.bit_count() < _DENSE_BITS:
        for k in _bits(acc):
            mask |= 1 << exp[k]
    elif _numpy_pays(na * nb):
        mask |= _exp_mask(field, acc)
    else:
        mask |= _mask_from((exp[k] for k in _bits(acc)), p)
    return FSet(field, mask, mask.bit_count())  # built from residues < p


def _exp_mask(field: PrimeField, acc: int) -> int:
    """Mask of {g^k : bit k of acc is set}: acc's bits unpacked, mapped through an
    int64 copy of exp_table (kept in the field's instance __dict__, as full_mask
    is) and packed back.  exp is a bijection, so the popcount is preserved; a
    check holds that on every call, also under python -O.
    """
    import numpy as np

    exp = field.__dict__.get("_exp_array")
    if exp is None:
        exp = field.__dict__["_exp_array"] = np.array(field.exp_table, dtype=np.int64)
    p, q = field.p, field.p - 1
    packed = np.frombuffer(acc.to_bytes((q + 7) // 8, "little"), dtype=np.uint8)
    flags = np.unpackbits(packed, count=q, bitorder="little").view(bool)
    member = np.zeros(p, dtype=np.uint8)
    member[exp[flags]] = 1
    mask = int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")
    check(mask.bit_count() == acc.bit_count(), "the log-domain decode does not preserve the popcount")
    return mask


def _scaled_mask(u: int, A: FSet) -> int:
    """Membership mask of u*A with the convention 0*A = {0}."""
    p = A.field.p
    if u % p == 0:
        return 1
    mask = 0
    for a in A.elements():
        mask |= 1 << (u * a % p)
    return mask


def dilate(A: FSet, u: int) -> FSet:
    """u*A for u != 0; a bijection, so the cardinality is preserved."""
    field = A.field
    u %= field.p
    if u == 0:
        raise ZeroDilation("dilation factor must be nonzero")
    if u == 1:
        return A
    return FSet(field, _scaled_mask(u, A), A.card)


def scale(A: FSet, u: int) -> FSet:
    """u*A with the convention 0*A = {0}; used by witness expressions."""
    if u % A.field.p == 0:
        return A.field.fset([0])
    return dilate(A, u)


def ratio_set(A: FSet) -> FSet:
    """{(a-b)/(c-d) : a,b,c,d in A, c != d}.

    Zero numerators are allowed, zero denominators excluded.  Equals
    {n/d : n in A-A, d in (A-A)\\{0}}.
    """
    if A.card < 2:
        raise TooSmall("ratio_set needs |A| >= 2")
    diff = sumset(A, A, MINUS)
    return product_set(diff, A.field.fset(A.field.inv(d) for d in diff if d))


def rep_fn(A: FSet, B: FSet, sign: str = PLUS) -> RepFn:
    """counts[d] = #{(a, b) in A x B : a +/- b = d}."""
    field = _require_same_field(A, B)
    _require_nonempty(A, B)
    if sign not in (PLUS, MINUS):
        raise ValueError(f"bad sign {sign!r}")
    ys = [-b for b in B] if sign == PLUS else list(B)
    return RepFn(field, tuple(pair_counts(list(A), ys, field.p)), A.card * B.card)


def pair_counts(xs: Sequence[int], ys: Sequence[int], m: int, xw=None, yw=None) -> list[int]:
    """counts[k] = sum of xw[i] * yw[j] (weights >= 0, default 1) over xs[i] - ys[j] = k mod m."""
    if _numpy_pays(len(xs) * len(ys)):
        return _pair_hist(xs, ys, m, xw, yw).tolist()
    counts = [0] * m
    if xw is None and yw is None:  # a third fewer steps per pair than the weighted loop
        for x in xs:
            for y in ys:
                counts[(x - y) % m] += 1
        return counts
    xw, yw = xw or [1] * len(xs), yw or [1] * len(ys)
    for x, a in zip(xs, xw):
        for y, b in zip(ys, yw):
            counts[(x - y) % m] += a * b
    return counts


def _pair_hist(xs: Sequence[int], ys: Sequence[int], m: int, xw=None, yw=None):
    """pair_counts as a numpy int64 array.

    From _FFT_PAIRS_PER_BIN pairs per bin of the FFT length on, one FFT
    correlation of the two histograms (_fft_pair_hist); below that, or when
    the histograms are too large for its counts to round exactly, every pair
    is scattered by np.add.at in blocks of at most _PAIR_BLOCK pairs.
    """
    import numpy as np
    n_fft = 1 << (2 * m - 1).bit_length()  # the smallest power of two >= 2m
    if len(xs) * len(ys) >= _FFT_PAIRS_PER_BIN * n_fft:
        counts = _fft_pair_hist(xs, ys, m, n_fft, xw, yw)
        if counts is not None:
            return counts
    weighted = xw is not None or yw is not None
    xw, yw = xw or [1] * len(xs), yw or [1] * len(ys)
    # x - y + m lies in (0, 2m): 2m bins folded once are cheaper than a % m per pair
    x, y = np.asarray(xs, dtype=np.int64) % m + m, np.asarray(ys, dtype=np.int64) % m
    rows = max(1, _PAIR_BLOCK // len(ys))
    counts = np.zeros(2 * m, dtype=np.int64)
    for i in range(0, len(x), rows):
        w = np.outer(xw[i : i + rows], yw).ravel() if weighted else 1
        np.add.at(counts, (x[i : i + rows, None] - y).ravel(), w)
    return counts[:m] + counts[m:]


def _fft_pair_hist(xs: Sequence[int], ys: Sequence[int], m: int, n: int, xw, yw):
    """pair_counts as a numpy int64 array by one FFT correlation, or None if it could round wrongly.

    u and v are the weighted histograms of xs and ys mod m, zero-padded to the
    power of two n >= 2m (a prime length would take the slower Bluestein
    route).  r = irfft(rfft(u) * conj(rfft(v))) is their linear correlation:
    r[d] counts the pairs with x - y = d and r[n - m + d] those with
    x - y = d - m, for 0 <= d < m, so folding the two halves gives the counts
    mod m.  The same operand is transformed once: r = irfft(|rfft(u)|^2).

    Exactness: by Higham (Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 24.1) each entry of r is off by at most about
    c log2(n) u_r ||u||_2 ||v||_2, with unit roundoff u_r = 2^-53 and c = 32
    generous for three transforms and a product.  With log2(n) <= 32 and
    (sum u^2)(sum v^2) < _FFT_NORM_LIMIT = 2^76 that is at most
    32 * 32 * 2^-53 * 2^38 = 1/32, so rounding recovers every count.  A set
    has sum u^2 = |X| <= m, so every set mod m <= MAX_FIELD_P = 2^20 is
    within the limit; inputs over it return None.  Two checks back the bound
    on every run, also under python -O: each entry lies within 1/4 of an
    integer, and the counts add up to sum(xw) * sum(yw).
    """
    import numpy as np
    from numpy.fft import irfft, rfft

    same = xs is ys and xw is yw
    # float64 weights sum exactly: a bin at 2^53 or above is far over the norm limit
    u = np.bincount(np.asarray(xs, dtype=np.int64) % m, xw, m).astype(np.float64)
    v = u if same else np.bincount(np.asarray(ys, dtype=np.int64) % m, yw, m).astype(np.float64)
    if float(u @ u) * float(v @ v) >= _FFT_NORM_LIMIT:
        return None
    fu = rfft(u, n)
    r = irfft(fu.real**2 + fu.imag**2 if same else fu * rfft(v, n).conj(), n)
    counts = np.rint(r)
    check(float(np.abs(r - counts).max()) < 0.25, "FFT pair counts are not within 1/4 of integers")
    counts = counts.astype(np.int64)
    counts = counts[:m] + counts[n - m :]
    total = (len(xs) if xw is None else sum(xw)) * (len(ys) if yw is None else sum(yw))
    check(int(counts.sum()) == total, "FFT pair counts do not add up to the pair total")
    return counts


def pair_energy(ys: Sequence[int], zs: Sequence[int], m: int) -> tuple[int, int]:
    """(sum over k of c(k)^2, #{k : c(k) > 0}) for c = pair_counts(ys, zs, m).

    As y - z = y' - z' exactly when y - y' = z - z', the sum is the energy
    sum_k r_Y(k) r_Z(k) with r_X(k) = #{(x, x') in X^2 : x - x' = k mod m}.
    c is a dict unless _numpy_pays; then it comes from _pair_hist, and its
    int64 dot is exact while |Y||Z| * max c < _INT64_LIMIT (sum c = |Y||Z|),
    with a sum of Python ints beyond.
    """
    if not (ys and zs):
        return 0, 0
    if not _numpy_pays(len(ys) * len(zs)):
        c = Counter((y - z) % m for y in ys for z in zs)
        return sum(map(mul, c.values(), c.values())), len(c)
    c = _pair_hist(ys, zs, m)
    support = int((c > 0).sum())
    if len(ys) * len(zs) * int(c.max()) < _INT64_LIMIT:
        return int(c @ c), support
    c = c.tolist()
    return sum(map(mul, c, c)), support
