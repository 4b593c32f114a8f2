import dataclasses
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import core
from sumprod.cli import jsonable
from sumprod.core import (
    MINUS,
    PLUS,
    dilate,
    make_field,
    negate,
    pair_counts,
    pair_energy,
    pattern_combination,
    product_set,
    ratio_set,
    rep_fn,
    scale,
    signed_combination,
    sumset,
)
from sumprod.errors import (
    CompositeModulus,
    EmptyOperand,
    FieldMismatch,
    GuardExceeded,
    ModulusTooSmall,
    TooSmall,
    ZeroDilation,
)
from sumprod.lemmas import xi_search
from sumprod.search import canonical_form

F5 = make_field(5)
F7 = make_field(7)


class TestMakeField:
    def test_f7_tables(self):
        assert F7.g == 3
        assert F7.exp_table == (1, 3, 2, 6, 4, 5)

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            make_field(4)

    def test_too_small(self):
        with pytest.raises(ModulusTooSmall):
            make_field(2)

    def test_size_guard(self, monkeypatch):
        assert 65521 < core.MAX_FIELD_P  # every prime the tests and the benchmark use
        build = make_field.__wrapped__  # past the cache of fields already built
        monkeypatch.setattr(core, "MAX_FIELD_P", 100)
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        assert build(97).p == 97
        for p in (101, 102):  # 102 is refused before the primality test
            with pytest.raises(GuardExceeded):
                build(p)
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        assert build(101).p == 101

    def test_dlog_roundtrip_large(self):
        import random

        field = make_field(99991)
        rng = random.Random(0)
        for _ in range(100):
            x = rng.randrange(1, field.p)
            assert field.exp_table[field.dlog_table[x]] == x

    def test_full_mask_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(core.PrimeField)] == [
            "p", "g", "exp_table", "dlog_table"]
        for p in (3, 7, 65521):
            F = make_field(p)
            assert F.full_mask == (1 << p) - 1
            assert repr(F) == f"PrimeField(p={p}, g={F.g})"
            twin = core.PrimeField(F.p, F.g, F.exp_table, F.dlog_table)
            twin.__dict__["full_mask"] = 0
            assert twin == F and hash(twin) == hash(F)
            back = pickle.loads(pickle.dumps(F))
            assert back == F and back.full_mask == F.full_mask
        F = make_field(65521)
        assert F.full_mask is F.full_mask  # computed once, not on each read
        assert F.full_set() is F.full_set() and F.full_set().card == 65521
        assert F.full_set() == F.fset_from_mask(F.full_mask) and F.full_set().field is F
        small = make_field(7)
        small.full_set().elements()
        back = pickle.loads(pickle.dumps(small))  # the cached set refers back to its field
        assert back == small and back.full_set() == small.full_set() and back.full_set().field is back
        assert "full_mask" not in dataclasses.asdict(make_field(7))

    def test_inverse(self):
        for x in range(1, 7):
            assert F7.inv(x) * x % 7 == 1
        with pytest.raises(ZeroDivisionError):
            F7.inv(0)


class TestFSet:
    def test_roundtrip_and_membership(self):
        A = F7.fset([9, 2, 2])  # 9 reduces to 2
        assert sorted(A) == [2]
        assert 2 in A and 9 in A and 3 not in A
        assert len(A) == 1

    def test_equality_hash(self):
        assert F7.fset([1, 2]) == F7.fset([2, 1])
        assert F7.fset([1]) != F5.fset([1])
        assert len({F7.fset([1, 2]), F7.fset([2, 1])}) == 1

    def test_negative_mask_refused(self):
        # _bits would peel the low bit of a negative mask forever
        with pytest.raises(ValueError, match="nonnegative"):
            F7.fset_from_mask(-1)
        with pytest.raises(ValueError, match="index >= p"):
            F7.fset_from_mask(1 << 7)

    def test_element_cache_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(core.FSet)] == ["field", "mask", "card"]
        F = make_field(1009)
        for mask in (0b1011, (1 << 200) - 1, F.full_mask):
            decoded, fresh = F.fset_from_mask(mask), F.fset_from_mask(mask)
            decoded.elements()
            assert decoded == fresh and hash(decoded) == hash(fresh)
            assert repr(decoded) == repr(fresh) and jsonable(decoded) == jsonable(fresh)
            for s in (decoded, fresh):
                back = pickle.loads(pickle.dumps(s))
                assert back == s and back.card == s.card and tuple(back) == tuple(s)

    def test_init_keeps_the_frozen_dataclass_behaviour(self):
        A = core.FSet(F7, 0b110, 2)
        assert vars(A) == {"field": F7, "mask": 0b110, "card": 2}
        assert core.FSet(field=F7, mask=0b110, card=2) == A == F7.fset([1, 2])
        for name in ("field", "mask", "card", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(A, name, 0)
        assert [f.name for f in dataclasses.fields(A)] == ["field", "mask", "card"]
        B = dataclasses.replace(A, mask=0b1000, card=1)
        assert (B.field, B.mask, B.card) == (F7, 0b1000, 1) and B == F7.fset([3])
        assert A.mask == 0b110 and tuple(A) == (1, 2)
        assert hash(A) == hash((7, 0b110)) and repr(A) == "FSet(p=7, {1, 2})"
        assert A != F5.fset([1, 2]) and A != (F7, 0b110, 2)

    def test_canonical_form_decodes_once(self, monkeypatch):
        # the p - 2 dilates each iterate A; only the first iteration decodes its mask
        bits, decoded = core._bits, []

        def counting_bits(mask):
            decoded.append(mask)
            return bits(mask)

        monkeypatch.setattr(core, "_bits", counting_bits)
        A = make_field(1009).fset([1, 5, 17, 400, 1008])
        canonical_form(A)
        assert decoded == [A.mask]


class TestSumset:
    def test_examples(self):
        assert sorted(sumset(F7.fset([1, 2]), F7.fset([3, 5]))) == [0, 4, 5, 6]
        assert sorted(sumset(F7.fset([1, 2]), F7.fset([3, 5]), MINUS)) == [3, 4, 5, 6]
        assert sorted(sumset(F5.fset([0]), F5.full_set())) == [0, 1, 2, 3, 4]

    def test_method_equivalence_examples(self):
        A, B = F7.fset([1, 2, 4]), F7.fset([0, 3])
        for sign in (PLUS, MINUS):
            assert sumset(A, B, sign) == sumset(A, B, sign, method="naive")

    def test_errors(self):
        with pytest.raises(FieldMismatch):
            sumset(F7.fset([1]), F5.fset([1]))
        with pytest.raises(EmptyOperand):
            sumset(F7.fset([]), F7.fset([1]))
        with pytest.raises(ValueError):
            sumset(F7.fset([1]), F7.fset([1]), "times")


class TestSignedCombination:
    def test_examples(self):
        Z = F7.fset([1, 2])
        assert sorted(signed_combination([(Z, PLUS), (Z, PLUS), (Z, MINUS)])) == [0, 1, 2, 3]
        assert sorted(pattern_combination(Z, "++--")) == [0, 1, 2, 5, 6]
        assert signed_combination([(Z, PLUS)]) == Z
        assert sorted(signed_combination([(Z, MINUS)])) == [5, 6]

    def test_empty(self):
        with pytest.raises(EmptyOperand):
            signed_combination([])
        with pytest.raises(ValueError):
            pattern_combination(F7.fset([1]), "+*")


class TestProductSet:
    def test_examples(self):
        assert sorted(product_set(F7.fset([3, 5]), F7.fset([2]))) == [3, 6]
        assert sorted(product_set(F7.fset([0, 3]), F7.fset([2, 4]))) == [0, 5, 6]
        assert sorted(product_set(F5.fset([1, 2]), F5.fset([1, 2]))) == [1, 2, 4]

    def test_zero_only(self):
        assert sorted(product_set(F5.fset([0]), F5.fset([1, 2]))) == [0]

    def test_method_equivalence_examples(self):
        A, B = F7.fset([0, 1, 5]), F7.fset([2, 6])
        assert product_set(A, B) == product_set(A, B, method="naive")


class TestRatioSet:
    def test_examples(self):
        assert sorted(ratio_set(F5.fset([0, 1]))) == [0, 1, 4]
        assert sorted(ratio_set(F7.fset([1, 2]))) == [0, 1, 6]
        assert ratio_set(F7.fset([1, 2, 4])) == F7.full_set()

    def test_too_small(self):
        with pytest.raises(TooSmall):
            ratio_set(F7.fset([3]))


def _naive_ratio_set(A):
    p = A.field.p
    return A.field.fset((a - b) * A.field.inv(c - d) % p
                        for a in A for b in A for c in A for d in A if c != d)


def _kernel_operands(p):
    """Operand pairs with 0 and p - 1, |B| > |A|, and the full set."""
    F = make_field(p)
    rng = random.Random(p)
    small = F.fset([0, p - 1])
    mid = F.fset(rng.sample(range(p), min(p, 5)) + [0, p - 1])
    wide = F.fset(rng.sample(range(p), min(p - 1, 40)))
    full = F.full_set()
    top = F.fset([p - 1])
    return [(small, mid), (mid, small), (top, wide), (wide, top), (small, full), (full, mid),
            (F.fset([0]), wide), (full, full) if p < 100 else (top, full)]


def _assert_kernel_output(S, p):
    assert S.mask >= 0 and S.mask >> p == 0  # no bit at index >= p
    assert S.card == S.mask.bit_count()


class TestKernelOutput:
    """Sets built by the rotation kernel are valid masks and match the naive oracles."""

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_sumset_and_product_set(self, p):
        for A, B in _kernel_operands(p):
            for sign in (PLUS, MINUS):
                S = sumset(A, B, sign)
                _assert_kernel_output(S, p)
                assert S == sumset(A, B, sign, method="naive")
            P = product_set(A, B)
            _assert_kernel_output(P, p)
            assert P == product_set(A, B, method="naive")

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_signed_combination_and_ratio_set(self, p):
        F = make_field(p)
        for A, B in _kernel_operands(p):
            terms = [(A, MINUS), (B, PLUS), (F.fset([p - 1]), MINUS)]
            S = signed_combination(terms)
            _assert_kernel_output(S, p)
            naive = F.fset((-a) % p for a in A)
            for T, sign in terms[1:]:
                naive = sumset(naive, T, sign, method="naive")
            assert S == naive
            if 2 <= A.card <= 8:
                R = ratio_set(A)
                _assert_kernel_output(R, p)
                assert R == _naive_ratio_set(A)
        R = ratio_set(F.full_set())
        _assert_kernel_output(R, p)
        assert R == F.full_set()

    @pytest.mark.parametrize("p", [3, 5, 13, 65521])
    def test_fset_from_mask_still_validates(self, p):
        F = make_field(p)
        assert F.fset_from_mask(F.full_mask).card == p
        with pytest.raises(ValueError, match="mask must be nonnegative"):
            F.fset_from_mask(-1)
        with pytest.raises(ValueError, match="mask has bits at index >= p"):
            F.fset_from_mask(1 << p)

    def test_operand_errors_unchanged(self):
        A7, A5, E7 = F7.fset([1, 2]), F5.fset([1]), F7.fset([])
        for op in (sumset, lambda A, B: sumset(A, B, MINUS), product_set):
            with pytest.raises(FieldMismatch) as exc:
                op(A7, A5)
            assert str(exc.value) == "operands over p=7 and p=5"
            for A, B in ((E7, A7), (A7, E7)):
                with pytest.raises(EmptyOperand) as exc:
                    op(A, B)
                assert str(exc.value) == "operation requires nonempty operands"
        with pytest.raises(FieldMismatch):  # the field test comes first
            sumset(E7, F5.fset([]))


class TestDilate:
    def test_examples(self):
        assert sorted(dilate(F7.fset([1, 2]), 3)) == [3, 6]
        assert dilate(F7.fset([1, 2]), 1) == F7.fset([1, 2])
        with pytest.raises(ZeroDilation):
            dilate(F7.fset([1, 2]), 0)

    def test_negate_and_scale(self):
        assert sorted(negate(F7.fset([1, 2]))) == [5, 6]
        assert sorted(scale(F7.fset([1, 2]), 0)) == [0]
        assert scale(F7.fset([1, 2]), 3) == dilate(F7.fset([1, 2]), 3)


class TestRepFn:
    def test_examples(self):
        assert rep_fn(F5.fset([1, 2]), F5.fset([1, 2]), MINUS).counts == (2, 1, 0, 0, 1)
        assert rep_fn(F5.fset([0]), F5.fset([0])).counts == (1, 0, 0, 0, 0)
        assert rep_fn(F7.fset([1, 2, 3]), F7.fset([1, 2, 3]), MINUS).counts == (3, 2, 1, 0, 0, 1, 2)

    def test_total(self):
        r = rep_fn(F7.fset([1, 2, 3]), F7.fset([2, 4]))
        assert r.total == 6 == sum(r.counts)
        assert r[9] == r.counts[2]

    def test_over_pair_threshold_matches_loop(self, numpy_loaded):
        field = make_field(127)
        A = field.fset(range(1, 60))
        B = field.fset(range(2, 50))  # 59*48 pairs: numpy's branch, numpy being loaded
        plus, minus = [0] * 127, [0] * 127
        for a in A:
            for b in B:
                plus[(a + b) % 127] += 1
                minus[(a - b) % 127] += 1
        assert list(rep_fn(A, B, PLUS).counts) == plus
        assert list(rep_fn(A, B, MINUS).counts) == minus


def _loop_pair_counts(xs, ys, m, xw=None, yw=None):
    xw = [1] * len(xs) if xw is None else xw
    yw = [1] * len(ys) if yw is None else yw
    counts = [0] * m
    for x, a in zip(xs, xw):
        for y, b in zip(ys, yw):
            counts[(x - y) % m] += a * b
    return counts


class TestNumpyGate:
    def test_numpy_loaded(self, numpy_loaded):
        pairs = (0, core._NUMPY_PAIR_THRESHOLD - 1, core._NUMPY_PAIR_THRESHOLD, core._NUMPY_COLD_PAIRS)
        assert [core._numpy_pays(k) for k in pairs] == [False, False, True, True]

    def test_numpy_absent(self, monkeypatch):
        # only the predicate runs while numpy is out of sys.modules: nothing here imports it
        monkeypatch.delitem(sys.modules, "numpy", raising=False)
        pairs = (core._NUMPY_PAIR_THRESHOLD, core._NUMPY_COLD_PAIRS - 1, core._NUMPY_COLD_PAIRS)
        assert [core._numpy_pays(k) for k in pairs] == [False, False, True]

    # 511 x 1026 = 2^19 - 2 pairs stay in Python, 512 x 1024 = 2^19 load numpy
    PAIR_CALLS = ("kernel(list(range(511)), list(range(1026)), 101)",
                  "kernel(list(range(512)), list(range(1024)), 101)")
    # 1024 x 1024 random units at p = 65521 multiply to all of F_p*, which is not decoded
    # at all; 512 x 1024 units whose logs are intervals make a dense product set of 1535
    PRODUCT_CALLS = (
        "import random\n"
        "field, rng = make_field(65521), random.Random(1)\n"
        "A, B = (field.fset(rng.sample(range(1, 65521), 1024)) for _ in 'AB')\n"
        "assert kernel(A, B).card == 65520",
        "exp = field.exp_table\n"
        "assert kernel(field.fset(exp[:512]), field.fset(exp[:1024])).card == 1535",
    )

    @pytest.mark.parametrize("kernel, calls", [("pair_counts", PAIR_CALLS), ("pair_energy", PAIR_CALLS),
                                               ("product_set", PRODUCT_CALLS)])
    def test_fresh_process_imports_numpy_at_break_even(self, kernel, calls):
        assert core._NUMPY_COLD_PAIRS == 512 * 1024
        code = (
            "import sys\n"
            f"from sumprod.core import make_field, {kernel} as kernel\n"
            f"{calls[0]}\n"
            "print('numpy' in sys.modules)\n"
            f"{calls[1]}\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\nTrue\n"


@pytest.mark.usefixtures("numpy_loaded")
class TestPairCounts:
    @pytest.mark.parametrize("nx, ny", [(31, 33), (1, 1023), (32, 32), (1, 1024), (59, 48)])
    def test_both_sides_of_threshold(self, nx, ny):
        # numpy being loaded, 1023 pairs take the loop, 1024 and more the numpy branch
        rng = random.Random(nx * 1000 + ny)
        xs = [rng.randrange(-50, 200) for _ in range(nx)]
        ys = [rng.randrange(-50, 200) for _ in range(ny)]
        xw = [rng.randrange(0, 5000) for _ in range(nx)]
        yw = [rng.randrange(0, 5000) for _ in range(ny)]
        for m in (1, 2, 127, 1009):
            for got, want in (
                (pair_counts(xs, ys, m), _loop_pair_counts(xs, ys, m)),
                (pair_counts(xs, ys, m, xw, yw), _loop_pair_counts(xs, ys, m, xw, yw)),
            ):
                assert got == want
                assert all(type(c) is int for c in got)

    def test_repeated_entries(self):
        xs = [3] * 40 + [5] * 30
        ys = [1] * 20 + [3] * 20
        got = pair_counts(xs, ys, 7)
        assert got == _loop_pair_counts(xs, ys, 7)
        assert got[2] == 40 * 20 + 30 * 20 and got[0] == 40 * 20 and got[4] == 30 * 20

    @pytest.mark.parametrize("nx, ny", [(2, 2), (40, 40)])
    def test_weights_are_multiplicities(self, nx, ny):
        # weights w count the same as each entry repeated w times, on both branches
        xs, ys = [3, 5] * (nx // 2), [1, 3] * (ny // 2)
        xw, yw = [40, 30] * (nx // 2), [20, 20] * (ny // 2)
        want = _loop_pair_counts(
            [x for x, w in zip(xs, xw) for _ in range(w)],
            [y for y, w in zip(ys, yw) for _ in range(w)],
            7,
        )
        assert pair_counts(xs, ys, 7, xw, yw) == want

    @pytest.mark.parametrize("block", [1, 40, 82, 205, 53 * 41 - 1])
    def test_block_boundary(self, monkeypatch, block):
        # blocks of max(1, block // 41) rows out of 53; the last one is partial
        monkeypatch.setattr(core, "_PAIR_BLOCK", block)
        rng = random.Random(block)
        xs = [rng.randrange(1000) for _ in range(53)]
        ys = [rng.randrange(1000) for _ in range(41)]
        xw = [rng.randrange(100) for _ in range(53)]
        assert pair_counts(xs, ys, 101) == _loop_pair_counts(xs, ys, 101)
        assert pair_counts(xs, ys, 101, xw) == _loop_pair_counts(xs, ys, 101, xw)


def _fft_calls(monkeypatch):
    """Record whether each _fft_pair_hist call counted (True) or left the input to np.add.at (None)."""
    calls, fft = [], core._fft_pair_hist

    def spy(*args):
        out = fft(*args)
        calls.append(None if out is None else True)
        return out

    monkeypatch.setattr(core, "_fft_pair_hist", spy)
    return calls


@pytest.mark.usefixtures("numpy_loaded")
class TestFftPairHist:
    @pytest.mark.parametrize("m", [3, 101, 4098, 4099])
    def test_both_sides_of_crossover_match_loop(self, monkeypatch, m):
        # n_fft = 8, 256, 16384, 16384: the FFT takes over at 1024, 4096, 262144 and 262144 pairs
        n_fft = 1 << (2 * m - 1).bit_length()
        start = max(core._FFT_PAIRS_PER_BIN * n_fft, core._NUMPY_PAIR_THRESHOLD)
        calls = _fft_calls(monkeypatch)
        rng = random.Random(m)
        below = math.isqrt(start - 1)
        for k, fft in ((below, False), (below + 1, True)):
            # repeated and negative entries, with weights that repeat them further
            xs = [rng.randrange(-2 * m, 2 * m) for _ in range(k)]
            ys = [rng.randrange(-2 * m, 2 * m) for _ in range(k)]
            xw = [rng.randrange(1000) for _ in range(k)]
            yw = [rng.randrange(1000) for _ in range(k)]
            calls.clear()
            assert pair_counts(xs, ys, m) == _loop_pair_counts(xs, ys, m)
            assert pair_counts(xs, ys, m, xw, yw) == _loop_pair_counts(xs, ys, m, xw, yw)
            assert pair_counts(ys, ys, m, yw, yw) == _loop_pair_counts(ys, ys, m, yw, yw)
            assert calls == ([True] * 3 if fft else [])

    @pytest.mark.parametrize("m", [65520, 65521])
    def test_matches_add_at_branch(self, monkeypatch, m):
        rng = random.Random(m)
        xs = [rng.randrange(-m, 2 * m) for _ in range(1500)]
        ys = [rng.randrange(m) for _ in range(1450)]  # 2,175,000 >= 16 * 2^17 pairs
        xw, yw = [rng.randrange(50) for _ in xs], [rng.randrange(50) for _ in ys]
        calls = _fft_calls(monkeypatch)
        ffts = [core._pair_hist(xs, ys, m), core._pair_hist(xs, ys, m, xw, yw), core._pair_hist(xs, xs, m)]
        monkeypatch.setattr(core, "_FFT_PAIRS_PER_BIN", 1 << 40)
        add_at = [core._pair_hist(xs, ys, m), core._pair_hist(xs, ys, m, xw, yw), core._pair_hist(xs, xs, m)]
        assert calls == [True] * 3
        for got, want in zip(ffts, add_at):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_autocorrelation_transforms_once(self, monkeypatch):
        import numpy.fft

        rng = random.Random(7)
        xs = [rng.randrange(-300, 300) for _ in range(80)]
        xw = [rng.randrange(1, 9) for _ in xs]
        forward, rfft = [], numpy.fft.rfft
        monkeypatch.setattr(numpy.fft, "rfft", lambda *a: forward.append(1) or rfft(*a))
        for weights in ((None, None), (xw, xw)):
            forward.clear()
            same = pair_counts(xs, xs, 101, *weights)
            assert len(forward) == 1
            copies = [None if w is None else list(w) for w in weights]
            assert same == pair_counts(xs, list(xs), 101, *copies) == _loop_pair_counts(xs, xs, 101, *weights)
            assert len(forward) == 3

    def test_over_norm_limit_takes_add_at(self, monkeypatch):
        rng = random.Random(11)
        xs = [rng.randrange(101) for _ in range(70)]
        ys = [rng.randrange(101) for _ in range(60)]  # 4200 >= 16 * 256 pairs
        calls = _fft_calls(monkeypatch)
        limit = 70 * 60  # sum u^2 >= 70 and sum v^2 >= 60: u.u * v.v reaches it
        for bound, taken in ((limit, None), (70**2 * 60**2 + 1, True)):
            monkeypatch.setattr(core, "_FFT_NORM_LIMIT", bound)
            calls.clear()
            assert pair_counts(xs, ys, 101) == _loop_pair_counts(xs, ys, 101)
            assert calls == [taken]

    def test_xi_search_matches_add_at_branch(self, monkeypatch):
        F = make_field(65521)
        A = F.fset(random.Random(64).sample(range(1, 65521), 64))
        calls = _fft_calls(monkeypatch)
        fft = xi_search(A)
        assert calls == [True]  # |(A-A)*|^2 ~ 4032^2 pairs mod 65520
        monkeypatch.setattr(core, "_FFT_PAIRS_PER_BIN", 1 << 40)
        assert xi_search(A) == fft
        assert calls == [True]

    def test_norm_check_wakes_no_blas_threads(self):
        # a float64 dot in the norm check woke OpenBLAS's threads, which spun for
        # about as long again as the calls took in their own thread; on one CPU
        # there is no other thread to spin and this passes trivially
        code = (
            "import random, time\n"
            "from sumprod.core import pair_counts\n"
            "rng = random.Random(1)\n"
            "xs, ys = ([rng.randrange(65521) for _ in range(4096)] for _ in 'xy')\n"
            "pair_counts(xs, ys, 65521)\n"
            "cpu, own = time.process_time(), time.thread_time()\n"
            "for _ in range(5):\n"
            "    pair_counts(xs, ys, 65521)\n"
            "print(time.process_time() - cpu, time.thread_time() - own)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        cpu, own = map(float, proc.stdout.split())
        assert cpu <= 1.3 * own + 0.005


def _loop_energy(ys, zs, m):
    """(sum of r_Y * r_Z, the number of distinct y - z mod m), by loops."""
    value = sum(a * b for a, b in zip(_loop_pair_counts(ys, ys, m), _loop_pair_counts(zs, zs, m)))
    return value, len({(y - z) % m for y in ys for z in zs})


@pytest.mark.usefixtures("numpy_loaded")
class TestPairEnergy:
    # numpy being loaded, a dict counts below 1024 pairs (31 x 31, 31 x 32, 17 x 60), numpy from 1024 on
    @pytest.mark.parametrize("ny, nz", [(1, 1), (31, 31), (32, 32), (31, 32), (3, 40), (70, 5),
                                        (16, 64), (17, 60)])
    @pytest.mark.parametrize("m", [1, 2, 127, 1009, 65520])
    def test_matches_loop(self, ny, nz, m):
        rng = random.Random(ny * 1000 + nz)
        ys = [rng.randrange(-50, 70000) for _ in range(ny)]
        zs = [rng.randrange(-50, 70000) for _ in range(nz)]
        for a, b in ((ys, zs), (zs, ys), (ys, ys), (ys, list(ys))):
            got = pair_energy(a, b, m)
            assert got == _loop_energy(a, b, m)
            assert [type(v) for v in got] == [int, int]

    @pytest.mark.parametrize("k", [1, 4])
    def test_repeated_entries(self, k):
        # multiplicities a, b at 3, 5 and c, d at 1, 3: y - y' is 0 or +-2 mod 7, y - z is 0, 2 or 4
        a, b, c, d = 10 * k, 5 * k, 4 * k, 2 * k
        ys, zs = [3] * a + [5] * b, [1] * c + [3] * d
        want = (a * a + b * b) * (c * c + d * d) + 2 * a * b * c * d
        assert pair_energy(ys, zs, 7) == _loop_energy(ys, zs, 7) == (want, 3)

    def test_empty_operand(self):
        assert pair_energy([], [1, 2], 7) == pair_energy(list(range(40)), [], 7) == (0, 0)

    def test_python_int_sum_beyond_int64_bound(self, monkeypatch):
        # 40 x 40 pairs of distinct residues whose largest count is 40 (y - z = 0, resp. -7),
        # so the dot's bound is 40 * 40 * 40 for both zs
        ys = list(range(0, 400, 10))
        summed = []
        monkeypatch.setattr(core, "mul", lambda a, b: summed.append(1) or a * b)
        for limit, python_ints in ((40**3 + 1, False), (40**3, True), (1, True)):
            monkeypatch.setattr(core, "_INT64_LIMIT", limit)
            summed.clear()
            for zs in (ys, list(range(7, 407, 10))):
                got = pair_energy(ys, zs, 1009)
                assert got == _loop_energy(ys, zs, 1009)
                assert [type(v) for v in got] == [int, int]
            assert bool(summed) == python_ints


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 10**6)), max_size=70),
    st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 10**6)), max_size=70),
    st.integers(1, 400),
)
def test_pair_counts_matches_loop(xws, yws, m):
    xs, xw = [x for x, _ in xws], [w for _, w in xws]
    ys, yw = [y for y, _ in yws], [w for _, w in yws]
    assert pair_counts(xs, ys, m) == _loop_pair_counts(xs, ys, m)
    assert pair_counts(xs, ys, m, xw, yw) == _loop_pair_counts(xs, ys, m, xw, yw)


_prime = st.sampled_from([5, 7, 11, 13, 17, 19, 23])


@st.composite
def _field_and_two_sets(draw):
    p = draw(_prime)
    field = make_field(p)
    a = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    b = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    return field.fset(a), field.fset(b)


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_sumset_methods_agree(ab):
    A, B = ab
    for sign in (PLUS, MINUS):
        assert sumset(A, B, sign) == sumset(A, B, sign, method="naive")


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_product_methods_agree(ab):
    A, B = ab
    assert product_set(A, B) == product_set(A, B, method="naive")


@settings(max_examples=150, deadline=None)
@given(_field_and_two_sets())
def test_cauchy_davenport(ab):
    A, B = ab
    p = A.field.p
    assert sumset(A, B).card >= min(p, A.card + B.card - 1)


@settings(max_examples=100, deadline=None)
@given(_field_and_two_sets(), st.integers(1, 22))
def test_dilation_invariance(ab, u):
    A, _ = ab
    p = A.field.p
    u = u % p or 1
    uA = dilate(A, u)
    for sign in (PLUS, MINUS):
        assert sumset(uA, uA, sign).card == sumset(A, A, sign).card
    assert product_set(uA, uA).card == product_set(A, A).card
