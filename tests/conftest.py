"""Shared fixtures: the seeded instance suite and the criterion summary."""

import random

import pytest

from sumprod.chains import _p51, _pair_decomposition, _shared_step
from sumprod.core import make_field
from sumprod.lemmas import _chang_decompose, _gk_witness, _xi_search

# Primes used by the seeded random suite (5 .. 257).
SUITE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
                137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
                197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257)

SUITE_SEED = 20260823


def random_pair(rng, zero_free=True, max_card=24):
    """One random (Y, Z) pair over a random suite prime.

    Zero-free by default: the multiplicative-energy floor is only claimed
    for sets avoiding 0, so the shared suite draws from F_p*.
    """
    p = rng.choice(SUITE_PRIMES)
    field = make_field(p)
    lo = 1 if zero_free else 0
    hi = min(p - lo, max_card)
    ny = rng.randint(1, hi)
    nz = rng.randint(1, hi)
    Y = field.fset(rng.sample(range(lo, p), ny))
    Z = field.fset(rng.sample(range(lo, p), nz))
    return Y, Z


def suite_instances(count=1000, seed=SUITE_SEED):
    rng = random.Random(seed)
    return [random_pair(rng) for _ in range(count)]


@pytest.fixture(autouse=True)
def _cold_chain_memos():
    """Every test starts with empty chain and lemma memos, so none passes by test order."""
    for memo in (_p51, _pair_decomposition, _shared_step, _chang_decompose, _gk_witness, _xi_search):
        memo.cache_clear()


@pytest.fixture(scope="session")
def numpy_loaded():
    """numpy imported, so the kernels take numpy from core._NUMPY_PAIR_THRESHOLD pairs on.

    A process that has not loaded numpy keeps the pure-Python loops below
    core._NUMPY_COLD_PAIRS, so every test that asserts a numpy branch asks
    for this rather than rely on an earlier test's import.  Session scope:
    an import is not undone, and hypothesis tests can use it.
    """
    import numpy

    return numpy


_CRITERION_LINES: list[str] = []


def record_criterion(number: int, description: str, passed: bool) -> None:
    _CRITERION_LINES.append(
        f"CRITERION {number:2d}: {'PASS' if passed else 'FAIL'} - {description}"
    )


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
