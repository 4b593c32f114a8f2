"""Reference computations made without the program under test.

Every function here works on plain Python ints, sets and Counters, so a
check built on them shares no code with `sumprod`.  Sets are passed as
iterables of residues and the modulus is passed explicitly.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

# A rational upper bound of ln(100), so budget checks stay exact.
LN100_HI = Fraction(460517018599, 10**11)


def sum_set(A, B, p, sign=1):
    """{a + sign*b mod p} as a Python set."""
    return {(a + sign * b) % p for a in A for b in B}


def product_set(A, B, p):
    return {a * b % p for a in A for b in B}


def ratio_set(A, p):
    """{(a-b)/(c-d) : c != d} with zero numerators allowed."""
    diffs = {(a - b) % p for a in A for b in A}
    invs = [pow(d, p - 2, p) for d in diffs if d]
    return {n * i % p for n in diffs for i in invs}


def rep_counts(A, B, p, sign=1):
    """Counter of a + sign*b mod p over all pairs (a, b)."""
    counts = Counter()
    B = list(B)
    for a in A:
        counts.update([(a + sign * b) % p for b in B])
    return counts


def rep_list(A, B, p, sign=1):
    """rep_counts as a dense list indexed by residue."""
    out = [0] * p
    for d, c in rep_counts(A, B, p, sign).items():
        out[d] = c
    return out


def digest(values):
    """Short fingerprint of a sequence of ints, for references kept on disk."""
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:32]


def pair_expectations(a, b, p):
    """Expected results of the large-field operations on one pair (A, B).

    Sets and representation counts are stored as digests of their sorted
    elements and of the dense count list; energies are of (A, A).
    """
    plus = rep_list(a, b, p)
    return {
        "sum+": digest(d for d, c in enumerate(plus) if c),
        "sum-": digest(sorted(sum_set(a, b, p, -1))),
        "prod": digest(sorted(product_set(a, b, p))),
        "rep": digest(plus),
        "add_energy": additive_energy(a, a, p),
        "add_card": len(sum_set(a, a, p)),
        "mult_energy": multiplicative_energy(a, a, p),
        "mult_card": len(product_set(a, a, p)),
    }


def _ratio_counts(Y, p):
    counts = Counter()
    invs = [pow(y, p - 2, p) for y in Y]
    for x in Y:
        counts.update([x * i % p for i in invs])
    return counts


def additive_energy(Y, Z, p):
    """E+(Y,Z) = sum_d r_{Y-Y}(d) * r_{Z-Z}(d)."""
    ry = rep_counts(Y, Y, p, -1)
    rz = ry if set(Y) == set(Z) else rep_counts(Z, Z, p, -1)
    return sum(c * rz[d] for d, c in ry.items())


def multiplicative_energy(Y, Z, p):
    """Ex(Y,Z) = sum over x, y in Y of |xZ cap yZ|, with 0*Z = {0}.

    Zero-free sets use sum_d r_{Y/Y}(d) * r_{Z/Z}(d); sets holding 0 use
    the definition directly, which is only meant for small sets.
    """
    Y, Z = set(Y), set(Z)
    if 0 in Y or 0 in Z:
        rows = [{x * z % p for z in Z} for x in Y]
        return sum(len(r & s) for r in rows for s in rows)
    ry = _ratio_counts(Y, p)
    rz = ry if Y == Z else _ratio_counts(Z, p)
    return sum(c * rz[d] for d, c in ry.items())


def bucket_of(v):
    """Dyadic bucket: N_1 = {1, 2}, N_j = (2^(j-1), 2^j]."""
    return max(1, (v - 1).bit_length())


def chang(Y, Z, p):
    """Bucket decomposition of Y around the first pivot of largest row sum.

    Returns (pivot, s_sum, energy, buckets, lhs), buckets as {j: set}.
    """
    rows = {y: {y * z % p for z in Z} for y in Y}
    pivot, s_sum = -1, -1
    for y0 in sorted(Y):
        row = sum(len(rows[y0] & rows[y]) for y in Y)
        if row > s_sum:
            pivot, s_sum = y0, row
    buckets: dict[int, set] = {}
    for y in Y:
        v = len(rows[pivot] & rows[y])
        if v:
            buckets.setdefault(bucket_of(v), set()).add(y)
    lhs = max((16**j * len(b) ** 3 for j, b in buckets.items()), default=0)
    return pivot, s_sum, multiplicative_energy(Y, Z, p), buckets, lhs


def first_max_bucket(buckets):
    """Bucket index j maximizing 2^j |Y_j|, the smallest j on ties."""
    best_j, best_val = 0, -1
    for j in sorted(buckets):
        if 2**j * len(buckets[j]) > best_val:
            best_j, best_val = j, 2**j * len(buckets[j])
    return best_j


def dyadic_log(n):
    return max(1, (n - 1).bit_length())


def dilates(A, p):
    """Every u*A for u in F_p*, as frozensets."""
    return [frozenset(u * a % p for a in A) for u in range(1, p)]


def mask_of(A):
    m = 0
    for a in A:
        m |= 1 << a
    return m


def canonical_mask(A, p):
    """Least mask among the dilates of A."""
    return min(mask_of(D) for D in dilates(A, p))


def objective(A, p):
    return max(len(sum_set(A, A, p)), len(product_set(A, A, p)))


def burnside_classes(p, n):
    """Number of dilation classes of n-subsets of F_p.

    (1/(p-1)) sum_{d | p-1} phi(d) [C((p-1)/d, n/d) + C((p-1)/d, (n-1)/d)],
    each binomial taken only when d divides n, respectively n - 1: a
    dilation of order d fixes a set iff the set is a union of its d-cycles
    on F_p*, with or without 0.
    """
    q = p - 1
    total = 0
    for d in range(1, q + 1):
        if q % d:
            continue
        phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
        fixed = 0
        if n % d == 0:
            fixed += math.comb(q // d, n // d)
        if (n - 1) % d == 0:
            fixed += math.comb(q // d, (n - 1) // d)
        total += phi * fixed
    if total % q:
        raise ArithmeticError("Burnside sum is not divisible by p-1")
    return total // q


def orbit_classes_brute(p, n):
    """Dilation classes counted by listing every orbit; for tiny p only."""
    seen = set()
    classes = 0
    for combo in combinations(range(p), n):
        s = frozenset(combo)
        if s in seen:
            continue
        classes += 1
        seen.update(dilates(s, p))
    return classes


def extremal_brute(p, n):
    """(min objective, number of n-sets attaining it) over all n-sets."""
    best, count = None, 0
    for combo in combinations(range(p), n):
        val = objective(combo, p)
        if best is None or val < best:
            best, count = val, 1
        elif val == best:
            count += 1
    return best, count


def ratio_threshold_brute(p):
    """Largest n such that some n-set has a ratio set smaller than F_p."""
    best = 0
    for n in range(2, p + 1):
        if not any(len(ratio_set(c, p)) < p for c in combinations(range(p), n)):
            break
        best = n
    return best
