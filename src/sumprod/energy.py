"""Exact additive and multiplicative energies with dual computation methods.

Energies are quadruple counts stored as exact Python integers; the naive
double sum over intersection cardinalities is kept permanently as the
oracle for the convolution method.  Each report carries its
Cauchy-Schwarz floor |Y|^2|Z|^2 / |Y op Z| as an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    PLUS,
    FSet,
    _require_operands,
    _rotation_union,
    _scaled_mask,
    pair_energy,
    product_set,
    sumset,
)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class EnergyReport:
    """An exact energy value with its Cauchy-Schwarz floor |Y|^2|Z|^2/|Y.Z|."""

    kind: str
    value: int
    floor_num: int
    floor_den: int
    y_card: int
    z_card: int
    op_card: int

    @property
    def meets_floor(self) -> bool:
        return self.value * self.floor_den >= self.floor_num


def intersection_count(x: int, y: int, Z: FSet, kind: str) -> int:
    """|(x+Z) cap (y+Z)| or |xZ cap yZ| (0*Z = {0} for the latter)."""
    field = _require_operands(Z)
    p = field.p
    x %= p
    y %= p
    if kind == ADDITIVE:
        xz, yz = (_rotation_union(Z.mask, (k,), p, field.full_mask, PLUS) for k in (x, y))
        return (xz & yz).bit_count()
    if kind == MULTIPLICATIVE:
        return (_scaled_mask(x, Z) & _scaled_mask(y, Z)).bit_count()
    raise ValueError(f"bad kind {kind!r}")


def _additive_naive(Y: FSet, Z: FSet) -> tuple[int, int]:
    field = Y.field
    p, full = field.p, field.full_mask
    shifted = [_rotation_union(Z.mask, (y,), p, full, PLUS) for y in Y]
    return sum((m1 & m2).bit_count() for m1 in shifted for m2 in shifted), sumset(Y, Z).card


def _additive_convolution(Y: FSet, Z: FSet) -> tuple[int, int]:
    # Z negated: the histogram counts sums, so its support is Y + Z
    return pair_energy(Y.elements(), [-z for z in Z], Y.field.p)


def _mult_naive(Y: FSet, Z: FSet) -> tuple[int, int]:
    masks = [_scaled_mask(y, Z) for y in Y]
    return sum((m1 & m2).bit_count() for m1 in masks for m2 in masks), product_set(Y, Z).card


def _mult_convolution(Y: FSet, Z: FSet) -> tuple[int, int]:
    # Nonzero part via the dlog reduction to a cyclic convolution mod p-1, Z's
    # logs negated so its support is Y*Z*; 0's rows, columns and product in closed form.
    field = Y.field
    q = field.p - 1
    ly = [field.dlog_table[y] for y in Y if y]
    lz = [-field.dlog_table[z] for z in Z if z]
    zy, zz = 0 in Y, 0 in Z
    total, support = pair_energy(ly, lz, q)
    if zz:
        total += len(ly) ** 2
    if zy:
        total += 1 + 2 * zz * len(ly)
    return total, support + (zy | zz)


def _energy(kind: str, Y: FSet, Z: FSet, method: str, naive, convolution) -> EnergyReport:
    """The report of one energy from the (value, |Y op Z|) of `naive` or `convolution`."""
    _require_operands(Y, Z)
    if method == "naive":
        value, op_card = naive(Y, Z)
    elif method == "convolution":
        value, op_card = convolution(Y, Z)
    else:
        raise ValueError(f"bad method {method!r}")
    return EnergyReport(kind, value, Y.card**2 * Z.card**2, op_card, Y.card, Z.card, op_card)


def additive_energy(Y: FSet, Z: FSet, method: str = "convolution") -> EnergyReport:
    """E+(Y,Z) = sum over (x,y) in Y^2 of |(x+Z) cap (y+Z)|, exactly."""
    return _energy(ADDITIVE, Y, Z, method, _additive_naive, _additive_convolution)


def multiplicative_energy(Y: FSet, Z: FSet, method: str = "convolution") -> EnergyReport:
    """Ex(Y,Z) = sum over (x,y) in Y^2 of |xZ cap yZ|, exactly (0*Z = {0})."""
    return _energy(MULTIPLICATIVE, Y, Z, method, _mult_naive, _mult_convolution)


def energy(Y: FSet, Z: FSet, kind: str, method: str = "convolution") -> EnergyReport:
    if kind == ADDITIVE:
        return additive_energy(Y, Z, method)
    if kind == MULTIPLICATIVE:
        return multiplicative_energy(Y, Z, method)
    raise ValueError(f"bad kind {kind!r}")
