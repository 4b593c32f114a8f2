"""The four workloads: their inputs, one round of operations, and checks.

An operation is a call into sumprod (or one `python -m sumprod.cli`
process) with a check that compares its result against `oracles`.  Calls
go through `sumprod` attributes looked up at call time, so an installed
tracer sees them.  Checks run after the timed phase.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import oracles as orc
import sumprod as sp
from reference import LARGE_FIXED_N, fixed_pair

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    # check(result, results) -> bool; results maps labels to this round's results
    check: Callable[[Any, dict], bool]


@dataclass
class Workload:
    name: str
    setup_module: str  # what a user imports: "sumprod" or "sumprod.cli"
    setup_primes: tuple[int, ...]  # every field the workload builds
    round_s: float  # measured length of one round, to size a run
    make_ops: Callable[..., list[Op]]  # (seed, temporary directory, tracer or None)


def _exact_steps_pass(report) -> bool:
    return all(s.passed for s in report.steps if s.kind == "exact")


def _final(report):
    return report.final_num, report.final_den, report.final_is_squared


def _strip_zero(A):
    return A - {0} if 0 in A and len(A) > 1 else A


def _small_large_final(A, p, sign, theorem, case):
    """(final_num, final_den, squared) of T11, or of T12 in the given case."""
    n = len(A)
    asa = len(orc.sum_set(A, A, p, sign))
    aa = len(orc.product_set(A, A, p))
    if theorem == "T11":
        return asa**8 * aa**4, n**13, False
    if case == "spade":
        return (asa**8 * aa**4) ** 2 * p, n**28, True
    return asa**7 * aa**4, n**10 * p, False


def _p51_final(A, B, p):
    As, Bs = _strip_zero(A), _strip_zero(B)
    lhs = orc.chang(As, Bs, p)[4]
    return lhs * len(As) ** 3 * len(Bs), len(orc.sum_set(As, Bs, p)) ** 10


def _cover_ok(translates, covered, budget, B1, B2, p, sign=1) -> bool:
    """Coverage >= 99% and the translate budget, recomputed with sets."""
    got = set()
    for c in translates:
        got |= {(c + sign * b) % p for b in B2} & B1
    K = Fraction(len(orc.sum_set(B1, B2, p, sign)), len(B2))
    return (
        got == set(covered)
        and 100 * len(got) >= 99 * len(B1)
        and len(translates) <= budget <= math.ceil(orc.LN100_HI * K) + 1
    )


def _chang_ok(pivot, s_sum, energy, lhs, buckets, Y, Z, p) -> bool:
    """A bucket decomposition against the oracle's; buckets maps j to members."""
    got = {int(j): set(b) for j, b in buckets.items() if b}
    return (int(pivot), int(s_sum), int(energy), got, int(lhs)) == orc.chang(Y, Z, p)


# --------------------------------------------------------------------- chains

def _chain_finals(A, p, reports) -> bool:
    """Every chain's final ratio recomputed from separately counted sizes."""
    t11p, t11m, t12p, t12m, p51, t13, t14, t15, remark = reports
    n = len(A)
    asa = {1: len(orc.sum_set(A, A, p, 1)), -1: len(orc.sum_set(A, A, p, -1))}
    aa = len(orc.product_set(A, A, p))
    As = _strip_zero(A)
    buckets = orc.chang(As, As, p)[3]
    lg = orc.dyadic_log(n)
    ok = True
    for r, sign in ((t11p, 1), (t11m, -1), (t12p, 1), (t12m, -1)):
        ok &= _final(r) == _small_large_final(A, p, sign, r.theorem, r.case)
    ok &= _final(p51) == _p51_final(A, A, p) + (False,)
    ok &= _final(t13) == (asa[1] ** 10 * aa**4 * lg**4, n**15, False)
    aj0 = buckets[orc.first_max_bucket(buckets)]
    proper = len(aj0) < 2 or len(orc.ratio_set(aj0, p)) < p
    case = "spade" if proper or len(aj0) ** 2 <= p else "club"
    spade = ((asa[1] ** 10 * aa**4 * lg**4) ** 2 * p, (n**16) ** 2, True)
    club = (asa[1] ** 8 * aa**4 * lg**4, p * n**11, False)
    ok &= t14.case == case and _final(t14) == (spade if case == "spade" else club)
    ok &= _final(t15) == (asa[1] ** 10 * len(orc.product_set(As, As, p)) ** 4, n**15, False)
    mixed = len(orc.sum_set(orc.sum_set(A, A, p), orc.sum_set(A, A, p), p, -1))
    e4 = orc.multiplicative_energy(A, A, p) ** 4
    ok &= _final(remark) == (e4, n**5 * asa[-1] ** 5 * mixed, False)
    return ok


def _chain_op(F, combo) -> Op:
    A = F.fset(combo)

    def call():
        return (
            sp.chain_small(A, sp.PLUS), sp.chain_small(A, sp.MINUS),
            sp.chain_large(A, sp.PLUS), sp.chain_large(A, sp.MINUS),
            sp.prop51_audit(A, A),
            sp.chain_unbalanced(A, A, "T13"), sp.chain_unbalanced(A, A, "T14"),
            sp.chain_balanced(A, A), sp.energy_bound_audit(A),
        )

    def check(reports, _):
        return all(_exact_steps_pass(r) for r in reports) and _chain_finals(
            set(combo), F.p, reports)

    return Op(f"chains p={F.p} A={combo}", call, check)


def chain_sweep_ops(seed: int, _tmp: Path, _tracer=None) -> list[Op]:
    """Every A with 1 <= |A| <= 5 over p in {5, 7, 11, 13}, in seeded order."""
    ops = []
    for p in (5, 7, 11, 13):
        F = sp.make_field(p)
        for n in range(1, 6):
            ops.extend(_chain_op(F, c) for c in combinations(range(p), n))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------- large field

LARGE_P = 65521
SCAN_P = 4099
# (|A|, number of pairs); |A||B| < 1024 takes rep_fn's loop, the rest numpy.
# The six pairs at 24 and at 31 put the 90th percentile in the middle of a
# group of 60-80 ms operations (canonical_form at 12 and 16, ratio_set at
# 16, the energies at 128 and 1024, product_set at 128, chang_decompose at
# 64), not at its edge next to greedy_cover, where it jumped between runs.
LARGE_SIZES = ((12, 3), (16, 3), (24, 6), (31, 6), (64, 3), (128, 2), (256, 1),
               (1024, 1), (4096, 1))
CHANG_MAX = 64
RATIO_MAX = 16


def _xi_ok(res, A, p) -> bool:
    """xi is the first minimizer of E+(A, xi A) and meets the averaging bound."""
    xi, e_val = res
    r = orc.rep_counts(A, A, p, -1)
    best_xi, best = 0, None
    for x in range(1, p):
        e = sum(c * r.get(d * x % p, 0) for d, c in r.items())
        if best is None or e < best:
            best_xi, best = x, e
    n = len(A)
    return (xi, e_val) == (best_xi, best) and e_val * (p - 1) <= n * n * (p - 1) + n**4


def _canonical_ok(res, A, p) -> bool:
    """The result is a dilate of A, and the least one."""
    ds = orc.dilates(A, p)
    return frozenset(res) in ds and res.mask == min(orc.mask_of(D) for D in ds)


def _digest_of(S):
    return orc.digest(sorted(S))


def large_field_ops(seed: int, _tmp: Path, _tracer=None) -> list[Op]:
    """Seeded zero-free pairs at p = 65521; scans over all of F_p at p = 4099.

    The largest pair is fixed rather than seeded: its reference values take
    half a minute of pure Python, so reference.json holds them.
    """
    rng = random.Random(seed)
    F, G = sp.make_field(LARGE_P), sp.make_field(SCAN_P)
    p = LARGE_P
    ops = []
    for n, count in LARGE_SIZES:
        for k in range(count):
            if n == LARGE_FIXED_N:
                a, b = fixed_pair()
                want = lambda: REFERENCE["large_pair"]  # noqa: E731
            else:
                a, b = rng.sample(range(1, p), n), rng.sample(range(1, p), n)
                want = functools.cache(lambda a=a, b=b: orc.pair_expectations(a, b, p))
            A, B, sa = F.fset(a), F.fset(b), set(a)
            tag = f"n={n}#{k}"
            ops += [
                Op(f"sumset+ {tag}", lambda A=A, B=B: sp.sumset(A, B, sp.PLUS),
                   lambda r, _, want=want: _digest_of(r) == want()["sum+"]),
                Op(f"sumset- {tag}", lambda A=A, B=B: sp.sumset(A, B, sp.MINUS),
                   lambda r, _, want=want: _digest_of(r) == want()["sum-"]),
                Op(f"product_set {tag}", lambda A=A, B=B: sp.product_set(A, B),
                   lambda r, _, want=want: _digest_of(r) == want()["prod"]),
                Op(f"rep_fn {tag}", lambda A=A, B=B: sp.rep_fn(A, B, sp.PLUS),
                   lambda r, _, want=want, n=n: orc.digest(r.counts) == want()["rep"]
                   and r.total == n * n),
                Op(f"additive_energy {tag}", lambda A=A: sp.additive_energy(A, A),
                   lambda r, _, want=want: (r.value, r.op_card)
                   == (want()["add_energy"], want()["add_card"])),
                Op(f"multiplicative_energy {tag}", lambda A=A: sp.multiplicative_energy(A, A),
                   lambda r, _, want=want: (r.value, r.op_card)
                   == (want()["mult_energy"], want()["mult_card"])),
            ]
            if n <= CHANG_MAX:
                ops.append(Op(f"chang_decompose {tag}", lambda A=A: sp.chang_decompose(A, A),
                              lambda r, _, sa=sa: _chang_ok(r.pivot, r.s_sum, r.energy, r.lhs,
                                                            r.buckets, sa, sa, p)))
            if n <= RATIO_MAX:
                ops.append(Op(f"ratio_set {tag}", lambda A=A: sp.ratio_set(A),
                              lambda r, _, sa=sa: set(r) == orc.ratio_set(sa, p)))
    q = SCAN_P
    a = set(rng.sample(range(1, q), 8))
    ops.append(Op(f"xi_search p={q} n=8", lambda A=G.fset(a): sp.xi_search(A),
                  lambda r, _, a=a: _xi_ok(r, a, q)))
    b1, b2 = set(rng.sample(range(q), 64)), set(rng.sample(range(q), 16))
    for sign, mode in ((1, sp.PLUS), (-1, sp.MINUS)):
        ops.append(Op(
            f"greedy_cover {mode} p={q} 64/16",
            lambda B1=G.fset(b1), B2=G.fset(b2), mode=mode: sp.greedy_cover(B1, B2, mode),
            lambda r, _, sign=sign: _cover_ok(r.translates, r.covered, r.budget, b1, b2, q,
                                              sign)))
    for k, n in enumerate((8, 12, 16, 16)):
        a = set(rng.sample(range(1, q), n))
        ops.append(Op(f"canonical_form p={q} n={n}#{k}", lambda A=G.fset(a): sp.canonical_form(A),
                      lambda r, _, a=a: _canonical_ok(r, a, q)))
    # spread each kind of operation over the whole timed phase
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------- extremal search

# The cells whose class counts were matched by hand against Burnside's lemma,
# plus one tiny cell; every cell is scanned with workers=1.
GRID = ((13, 4), (17, 5), (19, 5), (23, 4), (29, 4), (31, 4))
CHECKPOINTED = {(19, 5): 500, (29, 4): 2000}
RESUMED = (23, 4)
# Annealing runs of n = 8 with 60 iterations.  With 8 scans above 100 ms,
# these counts put the median among the runs at p = 1009 and the 90th
# percentile among those at p = 4099, away from the gaps between scans of
# different sizes.  The p = 4099 runs keep seeds 0..39, so the group that
# holds the 90th percentile is the same in every run (38 of the 40 runs
# improve on their start set, and canonicalize, exactly once).
ANNEAL_N = 8
ANNEAL_ITERS = 60
ANNEAL_1009_RUNS = 150
ANNEAL_4099_SEEDS = range(40)
RATIO_SCAN_PRIMES = (5, 7, 11, 13, 17)


def _record_ok(rec, p, n) -> bool:
    """Minimum, witnesses and class count against the brute-force reference."""
    best, count = REFERENCE["extremal"][f"{p},{n}"]
    masks = [w.mask for w in rec.witnesses]
    orbit_total = sum(len(set(orc.dilates(set(w), p))) for w in rec.witnesses)
    return (
        rec.best_value == best
        and rec.classes_visited == orc.burnside_classes(p, n)
        and masks == sorted(set(masks))
        and all(orc.canonical_mask(set(w), p) == w.mask for w in rec.witnesses)
        and all(orc.objective(set(w), p) == best for w in rec.witnesses)
        and orbit_total == count
    )


def _anneal_ok(rec, p, n, seed) -> bool:
    (w,) = rec.witnesses
    return (
        (rec.p, rec.n, rec.seed, rec.classes_visited) == (p, n, seed, ANNEAL_ITERS)
        and w.card == n
        and orc.objective(set(w), p) == rec.best_value
        and orc.canonical_mask(set(w), p) == w.mask
        and rec.best_value <= orc.objective(range(1, n + 1), p)
    )


def _scan_ok(table, p) -> bool:
    proper = [e for e in table.entries if e.proper_exists]
    return (
        table.max_proper_n == REFERENCE["ratio_threshold"][str(p)]
        and all(len(orc.ratio_set(set(e.witness), p)) < p and e.witness.card == e.n
                for e in proper)
    )


def _fresh_scan(p, n, path=None, every=sp.search.CHECKPOINT_EVERY, max_steps=None):
    """A scan from the start: an earlier round's checkpoint is removed first."""
    if path is not None and os.path.exists(path):
        os.remove(path)
    return sp.exhaustive_extremal(p, n, workers=1, checkpoint_path=path,
                                  checkpoint_every=every, max_steps=max_steps)


def extremal_ops(seed: int, tmp: Path, _tracer=None) -> list[Op]:
    ops = []
    for p, n in GRID:
        path = str(tmp / f"cell-{p}-{n}.json") if (p, n) in CHECKPOINTED else None
        every = CHECKPOINTED.get((p, n), sp.search.CHECKPOINT_EVERY)
        ops.append(Op(f"exhaustive {p},{n}",
                      lambda p=p, n=n, path=path, every=every: _fresh_scan(p, n, path, every),
                      lambda r, _, p=p, n=n: _record_ok(r, p, n)))
    rp, rn = RESUMED
    path = str(tmp / f"resume-{rp}-{rn}.json")
    # the resumed scan reads the checkpoint the stopped scan leaves behind
    ops.append(Op(f"exhaustive {rp},{rn} stopped",
                  lambda: _fresh_scan(rp, rn, path, max_steps=math.comb(rp, rn) // 2),
                  lambda r, _: r.best_value >= REFERENCE["extremal"][f"{rp},{rn}"][0]))
    ops.append(Op(f"exhaustive {rp},{rn} resumed",
                  lambda: sp.exhaustive_extremal(rp, rn, workers=1, checkpoint_path=path),
                  lambda r, res: r == res[f"exhaustive {rp},{rn}"]))
    rng = random.Random(seed)
    anneals = [(1009, rng.randrange(2**31)) for _ in range(ANNEAL_1009_RUNS)]
    anneals += [(4099, s) for s in ANNEAL_4099_SEEDS]
    n = ANNEAL_N
    for p, s in anneals:
        ops.append(Op(f"anneal {p},{n} seed={s}",
                      lambda p=p, s=s: sp.anneal_extremal(p, n, seed=s, iters=ANNEAL_ITERS),
                      lambda r, _, p=p, s=s: _anneal_ok(r, p, n, s)))
    for p in RATIO_SCAN_PRIMES:
        ops.append(Op(f"ratio_threshold_scan {p}", lambda p=p: sp.ratio_threshold_scan(p),
                      lambda r, _, p=p: _scan_ok(r, p)))
    rng.shuffle(ops)
    labels = [op.label for op in ops]
    i, j = labels.index(f"exhaustive {rp},{rn} stopped"), labels.index(f"exhaustive {rp},{rn} resumed")
    if j < i:
        ops[i], ops[j] = ops[j], ops[i]
    return ops


# ------------------------------------------------------------------ cli batch

def _parse(out: str, fmt: str) -> dict:
    """A non-chain report in any of the three formats, as a dict."""
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        return {k: json.loads(v) if v[:1] in "[{" else v for k, v in zip(header, row)}
    fields = {}
    for line in out.splitlines():
        if not line.startswith(" "):
            k, _, v = line.partition(": ")
            fields[k] = json.loads(v) if v[:1] in "[{" else v
    return fields


def _csv_steps(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _chain_json_ok(out, want) -> bool:
    """want(report) gives the expected (final_num, final_den)."""
    rep = json.loads(out)
    return (
        rep["violation"] is False
        and all(s["passed"] for s in rep["steps"] if s["kind"] == "exact")
        and (rep["final_num"], rep["final_den"]) == want(rep)
    )


def _csv_chain_ok(out, final) -> bool:
    rows = _csv_steps(out)
    last = rows[-1]
    return (
        all(r["passed"] == "True" for r in rows if r["kind"] == "exact")
        and last["name"].startswith("final")
        and (int(last["lhs_num"]), int(last["rhs_num"])) == final
    )


def _scaled(P, u, p):
    return {0} if u % p == 0 else {u * x % p for x in P}


def _gk_ok(out, A, p) -> bool:
    """The witness quadruple attains the largest |(b-a)A+(b-a)A+(d-c)A|."""
    rep = json.loads(out)

    def card(a, b, c, d):
        first = _scaled(A, b - a, p)
        return len(orc.sum_set(orc.sum_set(first, first, p), _scaled(A, d - c, p), p))

    best = max(card(a, b, c, d) for a in A for b in A if a != b for c in A for d in A)
    a, b, c, d = rep["quadruple"]
    return a != b and {a, b, c, d} <= A and rep["expr_card"] == card(a, b, c, d) == best


def _cover_json_ok(out, B1, B2, p) -> bool:
    rep = json.loads(out)
    K = Fraction(len(orc.sum_set(B1, B2, p)), len(B2))
    return (_cover_ok(rep["translates"], rep["covered"], rep["budget"], B1, B2, p)
            and Fraction(rep["ratio_k"]["num"], rep["ratio_k"]["den"]) == K)


def _chang_fields_ok(f, Y, Z, p) -> bool:
    return _chang_ok(f["pivot"], f["s_sum"], f["energy"], f["lhs"], f["buckets"], Y, Z, p)


def _extremal_ok(out, p, n) -> bool:
    rep = json.loads(out)
    best, _ = orc.extremal_brute(p, n)
    return (rep["best_value"], rep["classes_visited"]) == (best, orc.burnside_classes(p, n))


def _anneal_json_ok(out, p, n, seed) -> bool:
    rep = json.loads(out)
    (w,) = rep["witnesses"]
    return (
        rep["seed"] == seed and len(w) == n
        and rep["best_value"] == orc.objective(w, p) >= orc.extremal_brute(p, n)[0]
    )


def _set_ok(fields, want) -> bool:
    return fields["elements"] == sorted(want) and int(fields["card"]) == len(want)


def _cli_cases(seed: int, tmp: Path) -> list[tuple[list[str], Callable[[str], bool]]]:
    """(argv, check of stdout) for one round.

    The golden invocations and the determinism-criterion ones come first,
    with `--threads 1` instead of a worker pool; then seeded sets at
    p = 65521 in every set-spec syntax and output format.
    """
    S = lambda text: set(map(int, text.split(",")))  # noqa: E731
    cases = [
        (["set", "--p", "7", "--a", "1,2", "--b", "3,5", "--op", "sum"],
         lambda o: _set_ok(json.loads(o), orc.sum_set(S("1,2"), S("3,5"), 7))),
        (["energy", "--p", "5", "--y", "0,1", "--z", "0,1", "--kind", "add"],
         lambda o: json.loads(o)["value"] == orc.additive_energy(S("0,1"), S("0,1"), 5)),
        (["lemma", "cover", "--p", "13", "--b1", "ap:0,1,6", "--b2", "0,1"],
         lambda o: _cover_json_ok(o, set(range(6)), S("0,1"), 13)),
        (["lemma", "chang", "--p", "7", "--y", "1,2,4", "--z", "1,2,4"],
         lambda o: _chang_fields_ok(json.loads(o), S("1,2,4"), S("1,2,4"), 7)),
        (["lemma", "gk", "--p", "7", "--a", "1,2"], lambda o: _gk_ok(o, S("1,2"), 7)),
        (["chain", "--theorem", "1.1", "--p", "7", "--a", "1,2,3", "--sign", "plus"],
         lambda o: _chain_json_ok(
             o, lambda r: _small_large_final(S("1,2,3"), 7, 1, "T11", None)[:2])),
        (["chain", "--theorem", "prop51", "--p", "7", "--a", "1,2,3", "--b", "1,2"],
         lambda o: _chain_json_ok(o, lambda r: _p51_final(S("1,2,3"), S("1,2"), 7))),
        (["chain", "--theorem", "1.1", "--p", "7", "--a", "1,2,3", "--format", "csv"],
         lambda o: _csv_chain_ok(o, _small_large_final(S("1,2,3"), 7, 1, "T11", None)[:2])),
        (["extremal", "--p", "7", "--n", "2", "--threads", "1"], lambda o: _extremal_ok(o, 7, 2)),
        (["scan-ratio", "--p", "7"],
         lambda o: json.loads(o)["max_proper_n"] == orc.ratio_threshold_brute(7)),
        (["energy", "--p", "5", "--y", "0,1", "--z", "0,1", "--kind", "add"],
         lambda o: json.loads(o)["value"] == orc.additive_energy(S("0,1"), S("0,1"), 5)),
        (["chain", "--theorem", "1.2", "--p", "11", "--a", "1,2,3,5"],
         lambda o: _chain_json_ok(
             o, lambda r: _small_large_final(S("1,2,3,5"), 11, 1, "T12", r["case"])[:2])),
        (["chain", "--theorem", "prop51", "--p", "13", "--a", "1,2,3,5,8", "--b", "1,3,9",
          "--format", "csv"],
         lambda o: _csv_chain_ok(o, _p51_final(S("1,2,3,5,8"), S("1,3,9"), 13))),
        (["extremal", "--p", "13", "--n", "4", "--mode", "anneal", "--iters", "100",
          "--seed", "7"], lambda o: _anneal_json_ok(o, 13, 4, 7)),
        (["extremal", "--p", "11", "--n", "3", "--threads", "1"],
         lambda o: _extremal_ok(o, 11, 3)),
        (["scan-ratio", "--p", "11", "--format", "text"],
         lambda o: int(_parse(o, "text")["max_proper_n"]) == orc.ratio_threshold_brute(11)),
    ]
    p = LARGE_P
    rng = random.Random(seed)
    file_set = rng.sample(range(1, p), 48)
    path = tmp / "set.txt"
    path.write_text("# seeded residues, one per line\n"
                    + "".join(f"{x}  # element {i}\n" for i, x in enumerate(file_set)))
    ap_start, ap_step = rng.randrange(p), rng.randrange(1, p)
    gp_start, gp_ratio = rng.randrange(1, p), rng.randrange(2, p)
    ap = f"ap:{ap_start},{ap_step},200"
    gp = f"gp:{gp_start},{gp_ratio},40"
    gp_short = f"gp:{gp_start},{gp_ratio},10"
    f_set = set(file_set)
    ap_set = {(ap_start + i * ap_step) % p for i in range(200)}
    gp_set = {gp_start * pow(gp_ratio, i, p) % p for i in range(40)}
    gp_short_set = {gp_start * pow(gp_ratio, i, p) % p for i in range(10)}
    at = f"@{path}"
    big = ["--p", str(p)]
    cases += [
        (["set", *big, "--a", ap, "--b", gp, "--op", "sum", "--format", "json"],
         lambda o: _set_ok(_parse(o, "json"), orc.sum_set(ap_set, gp_set, p))),
        (["set", *big, "--a", at, "--b", ap, "--op", "diff", "--format", "csv"],
         lambda o: _set_ok(_parse(o, "csv"), orc.sum_set(f_set, ap_set, p, -1))),
        (["set", *big, "--a", gp, "--b", at, "--op", "prod", "--format", "text"],
         lambda o: _set_ok(_parse(o, "text"), orc.product_set(gp_set, f_set, p))),
        (["set", *big, "--a", ap, "--b", gp, "--op", "rep", "--sign", "minus"],
         lambda o: json.loads(o)["counts"] == orc.rep_list(ap_set, gp_set, p, -1)),
        (["set", *big, "--a", gp_short, "--op", "ratio", "--format", "json"],
         lambda o: _set_ok(_parse(o, "json"), orc.ratio_set(gp_short_set, p))),
        (["set", *big, "--a", at, "--op", "pattern", "--pattern", "++-", "--format", "text"],
         lambda o: _set_ok(_parse(o, "text"),
                           orc.sum_set(orc.sum_set(f_set, f_set, p), f_set, p, -1))),
        (["energy", *big, "--y", gp, "--z", at, "--kind", "mult", "--format", "json"],
         lambda o: json.loads(o)["value"] == orc.multiplicative_energy(gp_set, f_set, p)),
        (["energy", *big, "--y", at, "--z", ap, "--kind", "add", "--format", "csv"],
         lambda o: int(_parse(o, "csv")["value"]) == orc.additive_energy(f_set, ap_set, p)),
        (["lemma", "chang", *big, "--y", gp, "--z", at, "--format", "text"],
         lambda o: _chang_fields_ok(_parse(o, "text"), gp_set, f_set, p)),
    ]
    return cases


@dataclass
class CliResult:
    returncode: int
    stdout: str


def cli_batch_ops(seed: int, tmp: Path, tracer=None) -> list[Op]:
    """One fresh `python -m sumprod.cli` process per operation.

    Under tracing the process is bench/cli_child.py, which installs the
    tracer in the child and writes its totals to a file the parent merges;
    it is handed the time just before it is started, to time its start-up.
    """
    src = str(BENCH_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    summary = tmp / "child-trace.json"
    if tracer is None:
        prefix = [sys.executable, "-m", "sumprod.cli"]
    else:
        prefix = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(summary)]

    def run(argv):
        spawn = [] if tracer is None else [str(time.perf_counter_ns())]
        proc = subprocess.run(prefix + spawn + argv, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        if tracer is not None:
            tracer.merge(json.loads(summary.read_text()), time.perf_counter_ns())
        return CliResult(proc.returncode, proc.stdout)

    cases = _cli_cases(seed, tmp)
    random.Random(seed).shuffle(cases)
    ops = []
    for argv, check in cases:
        ops.append(Op("sumprod " + " ".join(argv), lambda argv=argv: run(argv),
                      lambda r, _, check=check: r.returncode == 0 and check(r.stdout)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain_sweep", "sumprod", (5, 7, 11, 13), 16.0, chain_sweep_ops),
        Workload("large_field", "sumprod", (LARGE_P, SCAN_P), 11.6, large_field_ops),
        Workload("extremal_search", "sumprod",
                 tuple(sorted({p for p, _ in GRID} | {1009, 4099} | set(RATIO_SCAN_PRIMES))),
                 13.5, extremal_ops),
        Workload("cli_batch", "sumprod.cli", (5, 7, 11, 13, LARGE_P), 8.8, cli_batch_ops),
    )
}
