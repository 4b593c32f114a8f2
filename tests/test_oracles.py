"""Fast paths against their permanent naive oracles, tie-breaks included.

The oracles are the scans the fast paths replaced: greedy_cover scanned all
p translates at every step, xi_search scanned every xi against every
difference, ratio_set divided every difference by every nonzero one,
gk_witness scored every (b-a, d-c) pair, and the chains' xi route looked
for its quadruple with a scan of its own.  Decoding a mask is checked
against a test of every bit, and canonical_form against the least mask of
the dilates built as plain sets.
"""

import os
import pathlib
import random
import subprocess
import sys
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

import pytest

from sumprod import core, lemmas
from sumprod.core import (
    _DENSE_BITS,
    MINUS,
    PLUS,
    _rotate,
    dilate,
    make_field,
    negate,
    product_set,
    ratio_set,
    rep_fn,
    scale,
    sumset,
)
from sumprod.energy import MULTIPLICATIVE, additive_energy, intersection_count, multiplicative_energy
from sumprod.lemmas import GkWitness, bucket_index, chang_decompose, gk_witness, greedy_cover, xi_search
from sumprod.search import canonical_form


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(3, n + 1) if sieve[i]]


PRIMES_4099 = st.sampled_from(_primes_upto(4099))
PRIMES_257 = st.sampled_from(_primes_upto(257))
PRIMES_65521 = st.one_of(st.just(65521), st.sampled_from(_primes_upto(65521)))


def greedy_cover_scan(B1, B2, mode):
    """(translates, covered mask) of the p-translate greedy scan."""
    field = B1.field
    p, full = field.p, field.full_mask
    base = B2.mask if mode == PLUS else negate(B2).mask
    uncovered = B1.mask
    translates = []
    while 100 * uncovered.bit_count() > B1.card:
        best_c, best_gain = -1, 0
        for c in range(p):
            gain = (_rotate(base, c, p, full) & uncovered).bit_count()
            if gain > best_gain:
                best_c, best_gain = c, gain
        translates.append(best_c)
        uncovered &= ~_rotate(base, best_c, p, full)
    return tuple(translates), B1.mask & ~uncovered


def xi_scan(A):
    """First xi in 1..p-1 minimizing sum_e r(e) r(xi*e), r = r_{A-A}."""
    p = A.field.p
    r = [0] * p
    for a in A:
        for b in A:
            r[(a - b) % p] += 1
    support = [e for e in range(p) if r[e]]
    best_xi, best_energy = 0, None
    for xi in range(1, p):
        e_val = sum(r[e] * r[xi * e % p] for e in support)
        if best_energy is None or e_val < best_energy:
            best_xi, best_energy = xi, e_val
    return best_xi, best_energy


def ratio_set_loop(A):
    """Mask of {n/d : n, d in A-A, d != 0} by a double loop."""
    p = A.field.p
    diff = {(a - b) % p for a in A for b in A}
    mask = 0
    for d in diff:
        if d:
            dinv = pow(d, -1, p)
            for n in diff:
                mask |= 1 << (n * dinv % p)
    return mask


@st.composite
def _field_set(draw, primes, max_card, min_card=1):
    p = draw(primes)
    card = draw(st.integers(min_card, min(max_card, p)))
    elements = draw(st.lists(st.integers(0, p - 1), min_size=card, max_size=card, unique=True))
    return make_field(p).fset(elements)


@settings(max_examples=40, deadline=None)
@given(_field_set(PRIMES_4099, 10))
def test_xi_search_matches_scan(A):
    assert xi_search(A) == xi_scan(A)


@settings(max_examples=40, deadline=None)
@given(_field_set(PRIMES_257, 257))
def test_xi_search_matches_scan_on_dense_sets(A):
    # |A| up to p, where |A-A| is most of F_p and the differences repeat often
    assert xi_search(A) == xi_scan(A)


@pytest.mark.parametrize("kind", ["F_p*", "F_p", "half"])
def test_xi_search_large_set(kind, monkeypatch):
    # |A| >> sqrt(p): the autocorrelation runs over the distinct differences,
    # at most (p-1)^2 weighted pairs, never over (|A|^2-|A|)^2 repeated ones
    p = 1009
    field = make_field(p)
    A = {"F_p*": field.fset(range(1, p)), "F_p": field.fset(range(p)),
         "half": field.fset(range(0, p, 2))}[kind]
    pairs = []
    real = lemmas.pair_counts

    def counting(xs, ys, m, *weights):
        pairs.append(len(xs) * len(ys))
        assert pairs[-1] <= (p - 1) ** 2
        return real(xs, ys, m, *weights)

    monkeypatch.setattr(lemmas, "pair_counts", counting)
    assert xi_search(A) == xi_scan(A)
    assert len(pairs) == 1


@settings(max_examples=40, deadline=None)
@given(_field_set(PRIMES_4099, 40), st.integers(1, 12), st.randoms(use_true_random=False))
def test_greedy_cover_matches_scan(B1, n2, rng):
    p = B1.field.p
    B2 = B1.field.fset(rng.sample(range(p), min(n2, p)))
    for mode in (PLUS, MINUS):
        res = greedy_cover(B1, B2, mode)
        assert (res.translates, res.covered.mask) == greedy_cover_scan(B1, B2, mode)


@settings(max_examples=40, deadline=None)
@given(_field_set(PRIMES_257, 257), st.integers(1, 257), st.randoms(use_true_random=False))
def test_greedy_cover_matches_scan_on_dense_sets(numpy_loaded, B1, n2, rng):
    # numpy being loaded, counts of U - B2 over 1024 pairs take its branch, then shrink step by step
    p = B1.field.p
    B2 = B1.field.fset(rng.sample(range(p), min(n2, p)))
    for mode in (PLUS, MINUS):
        res = greedy_cover(B1, B2, mode)
        assert (res.translates, res.covered.mask) == greedy_cover_scan(B1, B2, mode)


def test_greedy_cover_pairs(monkeypatch):
    # the counts start from B1 - B2 and every covered element is subtracted once
    rng = random.Random(5)
    field = make_field(4099)
    B1, B2 = field.fset(rng.sample(range(4099), 1500)), field.fset(rng.sample(range(4099), 900))
    pairs = []
    real = lemmas.pair_counts

    def counting(xs, ys, m):
        pairs.append(len(xs) * len(ys))
        return real(xs, ys, m)

    monkeypatch.setattr(lemmas, "pair_counts", counting)
    res = greedy_cover(B1, B2, PLUS)
    assert (res.translates, res.covered.mask) == greedy_cover_scan(B1, B2, PLUS)
    assert sum(pairs) == (B1.card + res.covered.card) * B2.card


@settings(max_examples=25, deadline=None)
@given(_field_set(PRIMES_65521, 16, min_card=2))
def test_ratio_set_matches_loop(A):
    assert ratio_set(A).mask == ratio_set_loop(A)


@settings(max_examples=25, deadline=None)
@given(_field_set(PRIMES_65521, 48), st.integers(1, 48), st.randoms(use_true_random=False))
def test_multiplicative_energy_matches_naive(Y, nz, rng):
    p = Y.field.p
    Z = Y.field.fset(rng.sample(range(p), min(nz, p)))
    assert multiplicative_energy(Y, Z) == multiplicative_energy(Y, Z, method="naive")


@settings(max_examples=40, deadline=None)
@given(_field_set(PRIMES_65521, 40), st.integers(1, 40), st.randoms(use_true_random=False))
def test_product_set_matches_naive(A, nb, rng):
    # results of 48 or more log-domain bits take the digit pass, or numpy's decode from 1024 pairs on
    # once numpy is loaded
    p = A.field.p
    B = A.field.fset(rng.sample(range(p), min(nb, p)))
    assert product_set(A, B) == product_set(A, B, method="naive")


def product_set_cases(p):
    """Operand pairs over F_p, each with 0 in neither, one or both operands.

    Segments of one geometric progression multiply to segments: 24 x 24,
    24 x 25, 31 x 33, 32 x 32 and 2 x 512 elements give log-domain results of
    47, 48, 63, 63 and 513 elements from 576, 600, 1023, 1024 and 1024 pairs.
    Random sets take 3 x 5 up to 64 x 64 pairs, and 255 x 4 and 256 x 4 on
    both sides of the one-pass build of A's log-domain mask.
    """
    field = make_field(p)
    exp, q = field.exp_table, p - 1
    rng = random.Random(p)

    def progression(n):
        start = rng.randrange(q)
        return [exp[(start + k) % q] for k in range(n)]

    def sample(n):
        return rng.sample(range(1, p), n)

    shapes = [(progression, 24, 24), (progression, 24, 25), (progression, 31, 33),
              (progression, 32, 32), (progression, 2, 512), (sample, 3, 5), (sample, 30, 30),
              (sample, 40, 48), (sample, 64, 64), (sample, core._MASK_PASS_ELEMENTS - 1, 4),
              (sample, core._MASK_PASS_ELEMENTS, 4)]
    return [(field.fset(make(na) + [0] * ("A" in zeros)), field.fset(make(nb) + [0] * ("B" in zeros)))
            for make, na, nb in shapes for zeros in ("", "A", "B", "AB")]


@pytest.mark.parametrize("p", [4099, 65521])
def test_product_set_matches_naive_on_both_sides_of_dense_bits(p, numpy_loaded, monkeypatch):
    # numpy being loaded, a result of _DENSE_BITS or more logs from 1024 pairs or more is decoded by numpy
    decoded, exp_mask = [], core._exp_mask
    monkeypatch.setattr(core, "_exp_mask", lambda *a: decoded.append(1) or exp_mask(*a))
    sides = set()
    for A, B in product_set_cases(p):
        before = len(decoded)
        assert product_set(A, B) == product_set(A, B, method="naive")
        logs = len({a * b % p for a in A for b in B if a and b})
        pairs = (A.card - (0 in A)) * (B.card - (0 in B))
        by_numpy = logs >= _DENSE_BITS and pairs >= core._NUMPY_PAIR_THRESHOLD
        assert len(decoded) - before == by_numpy
        sides.add((logs >= _DENSE_BITS, by_numpy))
    assert sides == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("p", [4099, 65521])
def test_product_set_matches_naive_in_a_fresh_process(p):
    # no numpy loaded: every dense result is decoded in Python, and numpy stays unloaded
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, test_oracles\n"
        "from sumprod.core import product_set\n"
        f"for A, B in test_oracles.product_set_cases({p}):\n"
        "    assert product_set(A, B) == product_set(A, B, method='naive')\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def filling_pair(m, j, short=0):
    """Residues A = [0, n) and B = {0, s, ..., (j - 1)s} of Z/m, s = m // j, n = m - (j - 1)s - short.

    A + B and A - B cover m - short residues, and the j-th rotation of A, with
    B in ascending order, completes them.  With short = 0 B also gets n - j
    larger elements, so |A| = |B| and the union would run on past the j-th.
    """
    s = m // j
    n = m - (j - 1) * s - short
    b = [i * s for i in range(j)]
    if not short:
        b += range(b[-1] + 1, b[-1] + 1 + n - j)
    return list(range(n)), b


class _Slices(list):
    """A list that records the start of every slice taken of it."""

    def __init__(self, items):
        super().__init__(items)
        self.starts = []

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.starts.append(i.start)
        return list.__getitem__(self, i)


# (j, short, blocks run): the union fills in the middle of the second block, at the
# end of the first, or ends one residue short of the group after every block
UNION_CASES = [(core._UNION_BLOCK * 3 // 2, 0, 2), (core._UNION_BLOCK, 0, 1),
               (core._UNION_BLOCK * 3 // 2, 1, 2)]


@pytest.mark.parametrize("p", [4099, 65521])
@pytest.mark.parametrize("j, short, blocks", UNION_CASES)
def test_rotation_union_stops_after_the_block_that_fills(p, j, short, blocks):
    a, b = filling_pair(p, j, short)
    mask, full = sum(1 << x for x in a), (1 << p) - 1
    for sign, cover in ((PLUS, {(x + y) % p for x in a for y in b}),
                        (MINUS, {(x - y) % p for x in a for y in b})):
        ks = _Slices(b)
        acc = core._rotation_union(mask, ks, p, full, sign)
        assert acc == sum(1 << x for x in cover) and len(cover) == p - short
        assert ks.starts == [core._UNION_BLOCK * i for i in range(blocks)]


@pytest.mark.parametrize("p", [4099, 65521])
@pytest.mark.parametrize("j, short, blocks", UNION_CASES)
def test_sumset_and_product_set_that_fill_match_naive(p, j, short, blocks, numpy_loaded, monkeypatch):
    # a product set that fills F_p* is never decoded; one short of it is, by numpy, numpy being loaded
    decoded, exp_mask = [], core._exp_mask
    monkeypatch.setattr(core, "_exp_mask", lambda *a: decoded.append(1) or exp_mask(*a))
    field = make_field(p)
    a, b = filling_pair(p, j, short)
    A, B = field.fset(a), field.fset(b)
    for sign in (PLUS, MINUS):
        S = sumset(A, B, sign)
        assert S == sumset(A, B, sign, method="naive") and S.card == p - short
    q, exp = p - 1, field.exp_table
    a, b = filling_pair(q, j, short)
    for zeros in ("", "A", "B", "AB"):
        A = field.fset([exp[x] for x in a] + [0] * ("A" in zeros))
        B = field.fset([exp[x] for x in b] + [0] * ("B" in zeros))
        P = product_set(A, B)
        assert P == product_set(A, B, method="naive") and P.card == q - short + bool(zeros)
        assert (P is field.full_set()) == (not short and bool(zeros))
    assert len(decoded) == 4 * short


@pytest.mark.parametrize("p", [4099, 65521])
def test_pigeonhole_boundary_matches_naive(p):
    # |A| + |B| = p leaves one residue out; p + 1 is all of F_p, without a rotation
    field, k = make_field(p), 2
    full = field.full_set()
    for extra in (0, 1):
        A, B = field.fset(range(k)), field.fset(range(p - k + extra))
        for sign in (PLUS, MINUS):
            S = sumset(A, B, sign)
            assert S == sumset(A, B, sign, method="naive") and S.card == p - 1 + extra
            assert (S is full) == bool(extra)
    # the same in the log domain: |A*| + |B*| = p - 1 leaves g^(p - 2) out of F_p*
    q, exp = p - 1, field.exp_table
    for extra in (0, 1):
        for zeros in ("", "A", "B", "AB"):
            A = field.fset(exp[:k] + (0,) * ("A" in zeros))
            B = field.fset(exp[: q - k + extra] + (0,) * ("B" in zeros))
            P = product_set(A, B)
            assert P == product_set(A, B, method="naive")
            assert P.card == q - 1 + extra + bool(zeros) and (exp[-1] in P) == bool(extra)
            assert (P is full) == (extra and bool(zeros))


def test_pigeonhole_answer_keeps_every_error():
    field = make_field(7)
    A = field.fset(range(5))
    with pytest.raises(ValueError, match="bad sign"):
        sumset(A, A, "times")
    with pytest.raises(ValueError, match="bad method"):
        sumset(A, A, method="fft")
    with pytest.raises(ValueError, match="bad method"):
        product_set(A, A, method="fft")
    assert sumset(A, A, method="naive") == sumset(A, A) is field.full_set()


def gk_witness_pairs(A1, variant):
    """The lex-first quadruple scan scoring each (b-a, d-c) pair on its own."""
    p = A1.field.p
    sign = PLUS if variant == "plus_plus" else MINUS
    els = sorted(A1)
    cache = {}
    best_score, best_quad = -1, (0, 0, 0, 0)
    for a in els:
        for b in els:
            if a == b:
                continue
            d1 = (b - a) % p
            for c in els:
                for d in els:
                    key = (d1, (d - c) % p)
                    if key not in cache:
                        d1A = scale(A1, d1)
                        cache[key] = sumset(sumset(d1A, d1A, sign), scale(A1, key[1])).card
                    if cache[key] > best_score:
                        best_score, best_quad = cache[key], (a, b, c, d)
    return GkWitness(best_quad, variant, best_score, A1.card**2, 1)


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_gk_witness_matches_pair_scan(p):
    # every set with a proper ratio set
    field = make_field(p)
    checked = 0
    for n in range(2, 6):
        for combo in combinations(range(p), n):
            A = field.fset(combo)
            if ratio_set(A).card == p:
                continue
            for variant in ("plus_plus", "plus_minus"):
                assert gk_witness(A, variant) == gk_witness_pairs(A, variant)
            checked += 1
    assert checked > 0


def xi_quadruple_scan(A, xi):
    """Lexicographically first (a,b,c,d) in A with a != b and d-c = xi(b-a)."""
    p = A.field.p
    els = sorted(A)
    for a in els:
        for b in els:
            if a == b:
                continue
            target = xi * (b - a) % p
            for c in els:
                d = (c + target) % p
                if d in A:
                    return (a, b, c, d)
    raise ValueError("xi is not a ratio of A")


@pytest.mark.parametrize("p", [7, 11, 13])
def test_first_quadruple_matches_xi_scan(p):
    # every ratio t that each set realizes, 0 included
    field = make_field(p)
    for n in range(2, 6):
        for combo in combinations(range(p), n):
            A = field.fset(combo)
            for t in ratio_set(A):
                assert lemmas._first_quadruple(A, field.fset([t])) == xi_quadruple_scan(A, t)


@st.composite
def _sparse_or_dense_pair(draw, primes=PRIMES_65521):
    """Two sets over one prime drawn from `primes`: by default a prime <= 65521,
    p = 65521 about half the time.

    Each set is either a sparse random set or a dense one: a window of up
    to 300 consecutive residues (wrapping past p - 1) with about 3/4 of
    them kept, which at small p is most of the field.  Either may hold 0.
    """
    p = draw(primes)
    rng = draw(st.randoms(use_true_random=False))

    def one():
        if draw(st.booleans()):
            width = draw(st.integers(1, min(p, 300)))
            start = draw(st.integers(0, p - 1))
            els = {(start + i) % p for i in range(width) if rng.random() < 0.75} or {start}
        else:
            els = set(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40)))
        if draw(st.booleans()):
            els.add(0)
        return make_field(p).fset(els)

    return one(), one()


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair())
def test_sumset_matches_naive_at_large_p(ab):
    A, B = ab
    for sign in (PLUS, MINUS):
        assert sumset(A, B, sign) == sumset(A, B, sign, method="naive")


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair())
def test_additive_energy_matches_naive_at_large_p(yz):
    Y, Z = yz
    assert additive_energy(Y, Z) == additive_energy(Y, Z, method="naive")


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair())
def test_multiplicative_energy_matches_naive_at_large_p(yz):
    Y, Z = yz
    assert multiplicative_energy(Y, Z) == multiplicative_energy(Y, Z, method="naive")


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair())
def test_energies_of_one_set_match_naive_at_large_p(yz):
    # Z is Y itself, then an equal set built apart from it
    Y, _ = yz
    for Z in (Y, Y.field.fset_from_mask(Y.mask)):
        for energy in (additive_energy, multiplicative_energy):
            assert energy(Y, Z) == energy(Y, Z, method="naive")


@settings(max_examples=20, deadline=None)
@given(_sparse_or_dense_pair(st.just(65521)))
def test_chang_rows_add_up_to_multiplicative_energy(yz):
    # the rows count log differences within Z*, the energy log sums of Y* and Z*
    Y, Z = yz
    assert chang_decompose(Y, Z).energy == multiplicative_energy(Y, Z).value


def chang_scan(Y, Z):
    """(pivot, s_sum, energy, {bucket index: mask}) from every |y0*Z cap y*Z| by masks."""
    els = sorted(Y)
    rows = [sum(intersection_count(y0, y, Z, MULTIPLICATIVE) for y in els) for y0 in els]
    s_sum = max(rows)
    pivot = els[rows.index(s_sum)]  # the first y0 with the largest row
    buckets = {}
    for y in els:
        v = intersection_count(pivot, y, Z, MULTIPLICATIVE)
        if v:
            buckets[bucket_index(v)] = buckets.get(bucket_index(v), 0) | 1 << y
    return pivot, s_sum, sum(rows), buckets


@st.composite
def _chang_pair(draw):
    """Y, Z at p = 65521 with 0 in neither, one or both.

    Each is a few random residues, a coset of a subgroup of F_p* of order
    up to 20 (whose dilates meet in whole cosets, so rows differ widely),
    or both together.
    """
    field = make_field(65521)
    p = field.p
    orders = [d for d in range(1, 21) if (p - 1) % d == 0]

    def one(zero):
        els = set(draw(st.lists(st.integers(1, p - 1), max_size=12)))
        if draw(st.booleans()):
            order = draw(st.sampled_from(orders))
            h, x = pow(field.g, (p - 1) // order, p), draw(st.integers(1, p - 1))
            els |= {x * pow(h, k, p) % p for k in range(order)}
        if zero:
            els.add(0)
        return field.fset(els or {draw(st.integers(1, p - 1))})

    zeros = draw(st.sampled_from(["", "Y", "Z", "YZ"]))
    return one("Y" in zeros), one("Z" in zeros)


@settings(max_examples=40, deadline=None)
@given(_chang_pair())
def test_chang_decompose_matches_mask_scan(yz):
    Y, Z = yz
    d = chang_decompose(Y, Z)
    got = (d.pivot, d.s_sum, d.energy, {j: b.mask for j, b in d.buckets.items() if b.card})
    assert got == chang_scan(Y, Z)


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair())
def test_rep_fn_matches_loop_at_large_p(numpy_loaded, ab):
    # numpy being loaded, |A||B| >= 1024 takes pair_counts' numpy branch, smaller pairs its loop
    A, B = ab
    p = A.field.p
    for sign, op in ((PLUS, lambda a, b: a + b), (MINUS, lambda a, b: a - b)):
        want = [0] * p
        for a in A:
            for b in B:
                want[op(a, b) % p] += 1
        r = rep_fn(A, B, sign)
        assert list(r.counts) == want and r.total == A.card * B.card


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair(), st.randoms(use_true_random=False))
def test_first_quadruple_matches_xi_scan_at_large_p(ab, rng):
    # t is the ratio of a random quadruple, so it is realized
    A, _ = ab
    assume(A.card >= 2)
    els = sorted(A)
    a, b = rng.sample(els, 2)
    c, d = rng.choice(els), rng.choice(els)
    p = A.field.p
    t = (d - c) * pow(b - a, -1, p) % p
    assert lemmas._first_quadruple(A, A.field.fset([t])) == xi_quadruple_scan(A, t)


@settings(max_examples=40, deadline=None)
@given(_sparse_or_dense_pair(), st.data())
def test_dilate_matches_naive_at_large_p(ab, data):
    # dilate trusts A.card, since u != 0 maps F_p onto itself one to one
    A, _ = ab
    p = A.field.p
    u = data.draw(st.integers(1, p - 1))
    want = {u * a % p for a in A}
    uA = dilate(A, u)
    assert uA == A.field.fset(want) and uA.card == len(want)
    assert scale(A, 0) == A.field.fset([0])


def decode_scan(A):
    """Ascending elements of A by testing every residue's bit."""
    return tuple(i for i in range(A.field.p) if A.mask >> i & 1)


@st.composite
def _decode_case(draw):
    """A set over a prime <= 65521: sparse, dense, full, or with 0 added."""
    p = draw(PRIMES_65521)
    field = make_field(p)
    kind = draw(st.sampled_from(["sparse", "dense", "full"]))
    if kind == "full":
        return field.full_set()
    if kind == "dense":
        rng = draw(st.randoms(use_true_random=False))
        width = draw(st.integers(1, min(p, 2 * _DENSE_BITS + 100)))
        start = draw(st.integers(0, p - 1))
        els = {(start + i) % p for i in range(width) if rng.random() < 0.75}
    else:
        els = set(draw(st.lists(st.integers(0, p - 1), max_size=_DENSE_BITS + 2)))
    if draw(st.booleans()):
        els.add(0)
    return field.fset(els)


@settings(max_examples=60, deadline=None)
@given(_decode_case())
def test_elements_match_bit_scan(A):
    want = decode_scan(A)
    assert A.elements() == want and tuple(A) == want and len(want) == A.card
    fresh = A.field.fset_from_mask(A.mask)
    assert tuple(fresh) == want and fresh.elements() == want


@pytest.mark.parametrize("p", [3, 1009, 65521])
def test_elements_at_fixed_masks(p):
    # both sides of _bits' switch: popcounts 47 and 48 and 49 straddle _DENSE_BITS
    field = make_field(p)
    rng = random.Random(p)
    masks = [0, 1, 1 << (p - 1), field.full_mask]
    for count in (_DENSE_BITS - 1, _DENSE_BITS, _DENSE_BITS + 1):
        if count <= p:
            masks.append(sum(1 << i for i in rng.sample(range(p), count)))
    for mask in masks:
        A = field.fset_from_mask(mask)
        want = decode_scan(A)
        assert A.elements() == want and tuple(A) == want


def canonical_scan(A):
    """Least mask among the dilates uA, u in 1..p-1, each built from a plain set."""
    p, els = A.field.p, decode_scan(A)
    best = None
    for u in range(1, p):
        mask = 0
        for x in {u * a % p for a in els}:
            mask |= 1 << x  # OR, not sum(): big-int addition is 3x slower at p = 65521
        if best is None or mask < best:
            best = mask
    return best


@st.composite
def _canonical_case(draw):
    """A set over a prime <= 4099: sparse, dense, or a coset of a subgroup of F_p*.

    A coset xH is fixed by every u in H, so |H| dilates tie for the least
    mask.  Dense sets are windows of up to 120 residues with about 3/4 kept,
    most of the field at small p.  Any of them may hold 0.
    """
    p = draw(PRIMES_4099)
    field = make_field(p)
    kind = draw(st.sampled_from(["sparse", "dense", "coset"]))
    if kind == "coset":
        orders = [d for d in range(1, min(p - 1, 120) + 1) if (p - 1) % d == 0]
        order = draw(st.sampled_from(orders))
        x = draw(st.integers(1, p - 1))
        h = pow(field.g, (p - 1) // order, p)
        els = {x * pow(h, k, p) % p for k in range(order)}
    elif kind == "dense":
        rng = draw(st.randoms(use_true_random=False))
        width = draw(st.integers(1, min(p, 120)))
        start = draw(st.integers(0, p - 1))
        els = {(start + i) % p for i in range(width) if rng.random() < 0.75} or {start}
    else:
        els = set(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12)))
    if draw(st.booleans()):
        els.add(0)
    return field.fset(els)


@settings(max_examples=30, deadline=None)
@given(_canonical_case())
def test_canonical_form_matches_dilate_scan(A):
    C = canonical_form(A)
    assert C.mask == canonical_scan(A) and C.card == A.card


def test_canonical_form_matches_dilate_scan_at_65521():
    field = make_field(65521)
    A = field.fset(random.Random(16).sample(range(1, 65521), 16))
    assert canonical_form(A).mask == canonical_scan(A)
