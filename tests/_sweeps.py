"""Shared sweep computations for the acceptance gate and regression freezing."""

import hashlib
from fractions import Fraction
from itertools import combinations

from sumprod.chains import (
    EXACT,
    chain_balanced,
    chain_large,
    chain_small,
    chain_unbalanced,
    energy_bound_audit,
    prop51_audit,
)
from sumprod.core import MINUS, PLUS, make_field
from sumprod.lemmas import chang_decompose

CHAIN_PRIMES = (5, 7, 11, 13)
CHAIN_MAX_CARD = 5


def _final_key(report, sign=None):
    parts = [report.theorem]
    if sign is not None:
        parts.append(sign)
    if report.case is not None:
        parts.append(report.case)
    if report.final_is_squared:
        parts.append("sq")
    return ":".join(parts)


def chain_sweep():
    """Exhaustive |A| <= 5 sweep of every chain verifier the CLI exposes.

    Returns (violations, floors, digest) where violations lists every
    failed exact step, floors maps report keys to the minimum observed
    final ratio (exact Fraction; squared finals are tracked under separate
    keys) and digest is the SHA-256 hex digest of repr() of every report,
    in sweep order, so any change to any report byte shows.
    """
    violations = []
    floors: dict[str, Fraction] = {}
    digest = hashlib.sha256()

    def note(report, sign=None):
        digest.update(repr(report).encode())
        for s in report.steps:
            if s.kind == EXACT and not s.passed:
                violations.append((report.theorem, report.inputs, s.name))
        key = _final_key(report, sign)
        ratio = Fraction(report.final_num, report.final_den)
        if key not in floors or ratio < floors[key]:
            floors[key] = ratio

    for p in CHAIN_PRIMES:
        field = make_field(p)
        for n in range(1, CHAIN_MAX_CARD + 1):
            for combo in combinations(range(p), n):
                A = field.fset(combo)
                for sign in (PLUS, MINUS):
                    note(chain_small(A, sign), sign)
                    note(chain_large(A, sign), sign)
                note(prop51_audit(A, A))
                note(chain_unbalanced(A, A, "T13"))
                note(chain_unbalanced(A, A, "T14"))
                note(chain_balanced(A, A))
                note(energy_bound_audit(A))
    return violations, floors, digest.hexdigest()


def chang_min_ratio(instances):
    """Minimum lhs/rhs ratio of the bucket inequality over the seeded suite."""
    best = None
    for Y, Z in instances:
        d = chang_decompose(Y, Z)
        ratio = Fraction(d.lhs * d.rhs_den, d.rhs_num)
        if best is None or ratio < best:
            best = ratio
    return best
