import importlib
import random
from operator import mul

import pytest

from sumprod import core
from sumprod.core import make_field, pair_counts, product_set, sumset
from sumprod.energy import (
    ADDITIVE,
    MULTIPLICATIVE,
    additive_energy,
    energy,
    intersection_count,
    multiplicative_energy,
)
from sumprod.errors import EmptyOperand, FieldMismatch

F5 = make_field(5)
F7 = make_field(7)


class TestAdditiveEnergy:
    def test_examples(self):
        r = additive_energy(F5.fset([0, 1]), F5.fset([0, 1]))
        assert r.value == 6
        assert (r.floor_num, r.floor_den) == (16, 3)
        assert r.meets_floor
        assert additive_energy(F5.fset([0]), F5.fset([0])).value == 1
        assert additive_energy(F7.fset([1, 2, 3]), F7.fset([1, 2, 3])).value == 19

    def test_methods_agree(self):
        Y, Z = F7.fset([0, 1, 3]), F7.fset([2, 5, 6])
        assert additive_energy(Y, Z, "naive").value == additive_energy(Y, Z).value


class TestMultiplicativeEnergy:
    def test_examples(self):
        assert multiplicative_energy(F5.fset([1, 2]), F5.fset([1, 2])).value == 6
        assert multiplicative_energy(F5.fset([0, 1]), F5.fset([1])).value == 2
        assert multiplicative_energy(F7.fset([1, 2, 4]), F7.fset([1, 2, 4])).value == 27

    def test_zero_cases_agree(self):
        # every 0-placement pattern hits a different closed-form correction
        for y_extra in ([], [0]):
            for z_extra in ([], [0]):
                Y = F7.fset([1, 3] + y_extra)
                Z = F7.fset([2, 5] + z_extra)
                assert (
                    multiplicative_energy(Y, Z, "naive").value
                    == multiplicative_energy(Y, Z).value
                )

    def test_zero_only_sets(self):
        assert multiplicative_energy(F7.fset([0]), F7.fset([0])).value == 1
        assert multiplicative_energy(F7.fset([0]), F7.fset([0]), "naive").value == 1


class TestIntersectionCount:
    def test_examples(self):
        assert intersection_count(0, 1, F5.fset([0, 1]), ADDITIVE) == 1
        Z = F5.fset([1, 3])
        assert intersection_count(2, 2, Z, ADDITIVE) == Z.card
        assert intersection_count(2, 2, Z, MULTIPLICATIVE) == Z.card
        assert intersection_count(0, 0, Z, MULTIPLICATIVE) == 1  # 0Z = {0}
        assert intersection_count(1, 2, F7.fset([1, 2, 4]), MULTIPLICATIVE) == 3

    def test_additive_is_rep_fn(self):
        from sumprod.core import MINUS, rep_fn

        Z = F7.fset([0, 2, 3])
        r = rep_fn(Z, Z, MINUS)
        for x in range(7):
            for y in range(7):
                assert intersection_count(x, y, Z, ADDITIVE) == r[x - y]


class TestDispatchAndErrors:
    def test_dispatch(self):
        Y, Z = F5.fset([1, 2]), F5.fset([1, 4])
        assert energy(Y, Z, ADDITIVE).value == additive_energy(Y, Z).value
        assert energy(Y, Z, MULTIPLICATIVE).value == multiplicative_energy(Y, Z).value
        with pytest.raises(ValueError):
            energy(Y, Z, "tropical")

    def test_errors(self):
        with pytest.raises(FieldMismatch):
            additive_energy(F5.fset([1]), F7.fset([1]))
        with pytest.raises(EmptyOperand):
            multiplicative_energy(F5.fset([]), F5.fset([1]))


def test_dual_method_random_sweep():
    rng = random.Random(7)
    for _ in range(120):
        p = rng.choice([5, 7, 11, 13, 17])
        field = make_field(p)
        Y = field.fset(rng.sample(range(p), rng.randint(1, p)))
        Z = field.fset(rng.sample(range(p), rng.randint(1, p)))
        assert additive_energy(Y, Z, "naive").value == additive_energy(Y, Z).value
        assert (
            multiplicative_energy(Y, Z, "naive").value
            == multiplicative_energy(Y, Z).value
        )


def test_additive_floor_always_holds_even_with_zero():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([5, 7, 11])
        field = make_field(p)
        Y = field.fset(rng.sample(range(p), rng.randint(1, p)))
        Z = field.fset(rng.sample(range(p), rng.randint(1, p)))
        assert additive_energy(Y, Z).meets_floor


F65521 = make_field(65521)
energy_module = importlib.import_module("sumprod.energy")  # sumprod.energy is the function


def _two_histogram_value(kind, Y, Z):
    """The energy as the sum of r_Y * r_Z over two difference histograms."""
    if kind == ADDITIVE:
        ys, zs, m = list(Y), list(Z), F65521.p
    else:
        ys, zs = ([F65521.dlog_table[x] for x in X if x] for X in (Y, Z))
        m = F65521.p - 1
    value = sum(map(mul, pair_counts(ys, ys, m), pair_counts(zs, zs, m)))
    if kind == MULTIPLICATIVE:
        # |xZ cap yZ| with 0Z = {0}: 0 is common to x, y != 0 when 0 is in Z,
        # |{0} cap {0}| = 1, and |{0} cap yZ| is 1 when 0 is in Z
        zy, zz = 0 in Y, 0 in Z
        value += zz * len(ys) ** 2 + zy * (1 + 2 * zz * len(ys))
    return value


# numpy being loaded, 16 x 16 pairs go into a dict, 512 x 512 through np.add.at,
# 2048 x 2048 through the FFT
@pytest.mark.parametrize("n, hists", [(16, []), (512, ["_pair_hist"]),
                                      (2048, ["_pair_hist", "_fft_pair_hist"])])
@pytest.mark.parametrize("zeros, same", [("", True), ("YZ", True), ("", False), ("Y", False),
                                         ("Z", False)])
@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_convolution_at_large_p_matches_two_histograms_and_op_set(
    monkeypatch, numpy_loaded, kind, zeros, same, n, hists
):
    # n elements each, 0 among them in the sets named by zeros; Z is Y itself when same
    rng = random.Random(n)
    Y, Z = (F65521.fset(rng.sample(range(1, F65521.p), n - (s in zeros)) + [0] * (s in zeros))
            for s in "YZ")
    Z = Y if same else Z
    ops = []
    monkeypatch.setattr(energy_module, "sumset", lambda *a: ops.append("sumset"))
    monkeypatch.setattr(energy_module, "product_set", lambda *a: ops.append("product_set"))
    seen = []
    for name in ("_pair_hist", "_fft_pair_hist"):
        kernel = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, k=kernel, name=name: seen.append(name) or k(*a))
    report = energy(Y, Z, kind)
    assert (ops, seen) == ([], hists)
    assert (report.y_card, report.z_card) == (n, n)
    assert report.value == _two_histogram_value(kind, Y, Z)
    assert report.op_card == (sumset if kind == ADDITIVE else product_set)(Y, Z).card
