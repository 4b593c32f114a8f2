"""Acceptance gate: one test per criterion, each recording a PASS/FAIL line.

All numeric assertions are exact integer or rational comparisons; floats
never appear in an assertion.  Regression floors live in
tests/data/regression_floors.json (refresh deliberately with
scripts/freeze_regressions.py).
"""

import json
import math
import pathlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import SUITE_PRIMES, record_criterion, suite_instances
from _sweeps import chain_sweep, chang_min_ratio, _final_key

from sumprod.chains import EXACT, _p51, _pair_decomposition, _shared_step
from sumprod.cli import run
from sumprod.core import MINUS, PLUS, make_field, product_set, sumset
from sumprod.energy import (
    MULTIPLICATIVE,
    additive_energy,
    intersection_count,
    multiplicative_energy,
)
from sumprod.lemmas import (
    bucket_index,
    chang_decompose,
    chang_floor_holds,
    greedy_cover,
    plunnecke_audit,
    xi_search,
)
from sumprod.search import anneal_extremal, exhaustive_extremal

DATA = pathlib.Path(__file__).parent / "data"
FLOORS = json.loads((DATA / "regression_floors.json").read_text())


@pytest.fixture(scope="module")
def instances():
    return suite_instances(1000)


def _criterion(number, description):
    """Record the PASS/FAIL summary line whatever the test body does."""

    class _Recorder:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            record_criterion(number, description, exc_type is None)
            return False

    return _Recorder()


def test_criterion_1_energy_dual_method(instances):
    with _criterion(1, "energy dual-method equivalence, 1000 instances < 60 s"):
        start = time.perf_counter()
        for Y, Z in instances:
            assert additive_energy(Y, Z, "naive").value == additive_energy(Y, Z).value
            assert (
                multiplicative_energy(Y, Z, "naive").value
                == multiplicative_energy(Y, Z).value
            )
        assert time.perf_counter() - start < 60.0


def test_criterion_2_energy_floor(instances):
    with _criterion(2, "Cauchy-Schwarz energy floor, exact rational, zero tolerance"):
        for Y, Z in instances:
            ra = additive_energy(Y, Z)
            rm = multiplicative_energy(Y, Z)
            assert ra.value * ra.floor_den >= ra.floor_num
            assert rm.value * rm.floor_den >= rm.floor_num


def test_criterion_3_xi_bound_exhaustive():
    with _criterion(3, "xi bound exhaustive over all subsets, p in {5,7,11,13}, < 5 min"):
        start = time.perf_counter()
        for p in (5, 7, 11, 13):
            field = make_field(p)
            for n in range(2, p + 1):
                for combo in combinations(range(p), n):
                    A1 = field.fset(combo)
                    _, e_val = xi_search(A1)
                    # energy <= |A1|^2 + |A1|^4/(p-1), cross-multiplied
                    assert e_val * (p - 1) <= n * n * (p - 1) + n**4
        assert time.perf_counter() - start < 300.0


def test_criterion_4_covering_lemma():
    with _criterion(4, "covering lemma: 500 seeded instances, coverage and budget exact"):
        rng = random.Random(42)
        for _ in range(500):
            p = rng.choice(SUITE_PRIMES[:12])
            field = make_field(p)
            B1 = field.fset(rng.sample(range(p), rng.randint(1, p)))
            B2 = field.fset(rng.sample(range(p), rng.randint(1, p)))
            mode = rng.choice([PLUS, MINUS])
            res = greedy_cover(B1, B2, mode)
            assert 100 * res.covered.card >= 99 * B1.card  # coverage >= ceil(0.99|B1|)
            op = sumset(B1, B2, mode)
            K = Fraction(op.card, B2.card)
            # rational upper bound of ln(100), so the budget check stays
            # exact: ceil(ln100*K)+1 <= ceil(LN100_HI*K)+1
            LN100_HI = Fraction(460517018599, 10**11)
            assert len(res.translates) <= math.ceil(LN100_HI * K) + 1
            assert len(res.translates) <= res.budget


def test_criterion_5_chang_decomposition(instances):
    with _criterion(5, "Chang decomposition: partition, pigeonhole, derived constant, floor"):
        frozen = FLOORS["chang_ratio_floor"]
        floor = Fraction(frozen["num"], frozen["den"])
        observed = None
        for Y, Z in instances:
            d = chang_decompose(Y, Z)
            # partition correctness
            seen = 0
            for y in Y:
                v = intersection_count(d.pivot, y, Z, MULTIPLICATIVE)
                if v:
                    assert y in d.buckets[bucket_index(v)]
                    seen += 1
            assert sum(b.card for b in d.buckets.values()) == seen
            assert d.s_sum * Y.card >= d.energy
            assert chang_floor_holds(d)  # derived constant c* = 1/400000
            ratio = Fraction(d.lhs * d.rhs_den, d.rhs_num)
            if observed is None or ratio < observed:
                observed = ratio
        assert observed >= floor


def test_criterion_6_plunnecke():
    with _criterion(6, "Pluennecke-Ruzsa exact checks: 500 seeded instances"):
        rng = random.Random(99)
        for _ in range(500):
            p = rng.choice([5, 7, 11, 13, 17, 23, 41, 101])
            field = make_field(p)
            A = field.fset(rng.sample(range(p), rng.randint(1, min(p, 12))))
            B = field.fset(rng.sample(range(p), rng.randint(1, min(p, 12))))
            audit = plunnecke_audit(A, B, rng.randint(2, 6))
            assert audit.lhs_doubling <= audit.rhs_doubling
            assert audit.lhs_iterated <= audit.rhs_iterated


def test_criterion_7_chain_verifiers():
    with _criterion(7, "chain verifiers exhaustive |A| <= 5: exact steps + ratio floors, < 10 min"):
        start = time.perf_counter()
        # a step memo emptied at each prime rebuilds equal steps, so no byte moves
        violations, floors, digest = chain_sweep(_shared_step.cache_clear)
        assert violations == []
        assert digest == FLOORS["chain_report_digest"]
        for memo in (_p51.cache_info(), _pair_decomposition.cache_info(), _shared_step.cache_info()):
            assert memo.currsize <= memo.maxsize
        frozen = FLOORS["chain_final_floors"]
        assert set(floors) == set(frozen)
        for key, ratio in floors.items():
            assert ratio >= Fraction(frozen[key]["num"], frozen[key]["den"])
        assert time.perf_counter() - start < 600.0


def test_criterion_8_extremal_oracle():
    with _criterion(8, "extremal search equals the canonicalization-free oracle"):
        field = make_field(13)
        naive = min(
            max(sumset(A, A, method="naive").card, product_set(A, A, method="naive").card)
            for A in map(field.fset, combinations(range(13), 4))
        )
        rec = exhaustive_extremal(13, 4)
        assert rec.best_value == naive
        for seed in range(3):
            assert anneal_extremal(13, 4, seed=seed, iters=500).best_value >= naive
        assert exhaustive_extremal(7, 2).best_value == 3


def test_criterion_9_cauchy_davenport(instances):
    with _criterion(9, "Cauchy-Davenport across all generated instances"):
        for Y, Z in instances:
            p = Y.field.p
            assert sumset(Y, Z).card >= min(p, Y.card + Z.card - 1)


def test_criterion_10_performance():
    with _criterion(10, "performance: p=65521 ops < 1 s each; exhaustive(13,4) < 10 s"):
        field = make_field(65521)
        rng = random.Random(0)
        A = field.fset(rng.sample(range(65521), 4096))
        B = field.fset(rng.sample(range(65521), 4096))
        start = time.perf_counter()
        sumset(A, B)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        product_set(A, B)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        exhaustive_extremal(13, 4)
        assert time.perf_counter() - start < 10.0


def test_criterion_11_cli_determinism(capsys):
    with _criterion(11, "CLI byte-identical determinism for fixed flags and seed"):
        invocations = [
            ["energy", "--p", "5", "--y", "0,1", "--z", "0,1", "--kind", "add"],
            ["chain", "--theorem", "1.2", "--p", "11", "--a", "1,2,3,5"],
            ["chain", "--theorem", "prop51", "--p", "13", "--a", "1,2,3,5,8",
             "--b", "1,3,9", "--format", "csv"],
            ["extremal", "--p", "13", "--n", "4", "--mode", "anneal",
             "--iters", "100", "--seed", "7"],
            ["extremal", "--p", "11", "--n", "3", "--threads", "2"],
            ["scan-ratio", "--p", "11", "--format", "text"],
        ]
        for argv in invocations:
            assert run(argv) == 0
            first = capsys.readouterr().out
            assert run(argv) == 0
            assert capsys.readouterr().out == first
            assert first  # non-empty output


def test_chain_floor_keys_documented():
    # the frozen floor file must stay in sync with the sweep's key scheme
    sample_keys = set(FLOORS["chain_final_floors"])
    assert {"T11:plus", "T11:minus", "P51", "T15", "REMARK"} <= sample_keys
    assert all(":" not in k or k.split(":")[0] in
               {"T11", "T12", "P51", "T13", "T14", "T15", "REMARK"} for k in sample_keys)
    assert _final_key is not None

