import importlib
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import time

import pytest

import sumprod
from sumprod.cli import parse_set, run
from sumprod.core import MAX_FIELD_P, make_field

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Golden invocations pin the serialized schema of every report type.
GOLDEN_CASES = {
    "set_sum.json": ["set", "--p", "7", "--a", "1,2", "--b", "3,5", "--op", "sum"],
    "energy_add.json": ["energy", "--p", "5", "--y", "0,1", "--z", "0,1", "--kind", "add"],
    "lemma_cover.json": ["lemma", "cover", "--p", "13", "--b1", "ap:0,1,6", "--b2", "0,1"],
    "lemma_chang.json": ["lemma", "chang", "--p", "7", "--y", "1,2,4", "--z", "1,2,4"],
    "lemma_gk.json": ["lemma", "gk", "--p", "7", "--a", "1,2"],
    "chain_t11.json": ["chain", "--theorem", "1.1", "--p", "7", "--a", "1,2,3", "--sign", "plus"],
    "chain_prop51.json": ["chain", "--theorem", "prop51", "--p", "7", "--a", "1,2,3", "--b", "1,2"],
    "chain_t11.csv": ["chain", "--theorem", "1.1", "--p", "7", "--a", "1,2,3", "--format", "csv"],
    "chain_t12_spade.json": ["chain", "--theorem", "1.2", "--p", "11", "--a", "1,2,3,5,8"],
    "chain_t12_club.json": ["chain", "--theorem", "1.2", "--p", "11", "--a", "1,2,3,4,5,6,7,8,9,10"],
    "chain_t13.json": ["chain", "--theorem", "1.3", "--p", "11", "--a", "1,3,4,5,9", "--b", "2,6,7"],
    "chain_t14_spade.json": ["chain", "--theorem", "1.4", "--p", "11", "--a", "1,2,3,4", "--b", "1,2"],
    "chain_t14_club.json": ["chain", "--theorem", "1.4", "--p", "11", "--a", "1,3,4,5,9", "--b", "2,6,7"],
    "chain_t15.json": ["chain", "--theorem", "1.5", "--p", "11", "--a", "1,2,3,4,5,6,7,8,9,10",
                       "--b", "1,2,3"],
    "chain_remark.json": ["chain", "--theorem", "remark", "--p", "11", "--a", "1,2,3,5,8"],
    "extremal.json": ["extremal", "--p", "7", "--n", "2", "--threads", "1"],
    "scan_ratio.json": ["scan-ratio", "--p", "7"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name, capsys):
    assert run(GOLDEN_CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "golden" / name).read_text()


@pytest.mark.parametrize("name, case", [
    ("chain_t12_spade.json", "spade"), ("chain_t12_club.json", "club"),
    ("chain_t14_spade.json", "spade"), ("chain_t14_club.json", "club"),
])
def test_golden_covers_both_cases(name, case):
    assert json.loads((DATA / "golden" / name).read_text())["case"] == case


def test_golden_t15_warns_on_unequal_sizes():
    warnings = json.loads((DATA / "golden" / "chain_t15.json").read_text())["warnings"]
    assert warnings == ["|A| and |B| differ by more than a factor of 2"]


class TestParseSet:
    def test_literal(self):
        f = make_field(7)
        assert sorted(parse_set("1,2,9", f)) == [1, 2]

    def test_arithmetic_progression(self):
        f = make_field(13)
        assert sorted(parse_set("ap:1,3,4", f)) == [1, 4, 7, 10]

    def test_geometric_progression(self):
        f = make_field(7)
        assert sorted(parse_set("gp:1,3,3", f)) == [1, 2, 3]

    def test_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1\n2  # a comment\n# whole-line comment\n\n3\n")
        assert sorted(parse_set(f"@{path}", make_field(7))) == [1, 2, 3]

    def test_bad_specs(self):
        from sumprod.cli import UsageError

        f = make_field(7)
        for spec in ("1,x", "ap:1,2", "gp:1,7,3", "@/nonexistent-file", "ap:0,1,0"):
            with pytest.raises(UsageError):
                parse_set(spec, f)


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["set", "--p", "7", "--a", "1", "--op", "ratio", "--b", "1"]) == 2
        assert run(["energy", "--p", "5", "--y", "0,1", "--z", "0,1", "--kind", "add"]) == 0
        capsys.readouterr()

    def test_violation_is_one(self, capsys):
        # the multiplicative floor genuinely fails when 0 is in the set
        assert run(["energy", "--p", "5", "--y", "0", "--z", "0,1", "--kind", "mult"]) == 1
        capsys.readouterr()

    def test_usage_is_two(self, capsys):
        assert run(["set", "--p", "6", "--a", "1", "--op", "ratio"]) == 2
        assert run(["set", "--p", "7", "--a", "1,2", "--op", "sum"]) == 2  # missing --b
        assert run(["nonsense"]) == 2
        capsys.readouterr()

    def test_guard_is_three(self, capsys, monkeypatch):
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        args = ["lemma", "katzshen", "--p", "17", "--b0", "ap:0,1,16", "--bs", "0,1",
                "--eps", "1/4"]
        assert run(args) == 3
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        assert run(args) == 0
        capsys.readouterr()

    def test_gk_guard_is_three(self, capsys, monkeypatch):
        from sumprod import lemmas

        # {1, 2} at p = 7: |R| = 3 ratios, 2 rotations each
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        monkeypatch.setattr(lemmas, "GK_MAX_ROTATIONS", 5)
        scored = []  # gk_witness scales A1 by each t it scores
        real_scale = lemmas.scale
        monkeypatch.setattr(lemmas, "scale", lambda A, t: scored.append(t) or real_scale(A, t))
        args = ["lemma", "gk", "--p", "7", "--a", "1,2"]
        assert run(args) == 3
        assert capsys.readouterr().err == "guard exceeded: |R(A1)|*|A1|=6 exceeds the gk_witness guard 5\n"
        assert scored == []
        monkeypatch.setenv("SPW_GUARD_OVERRIDE", "1")
        assert run(args) == 0
        assert capsys.readouterr().out == (DATA / "golden" / "lemma_gk.json").read_text()
        assert sorted(scored) == [0, 1, 6]

    def test_anneal_guard_is_three(self, capsys, monkeypatch):
        from sumprod import search

        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        args = ["extremal", "--p", "13", "--n", "4", "--mode", "anneal", "--iters", "1000000000"]
        assert run(args) == 3
        assert capsys.readouterr().err == "guard exceeded: iters*n=4000000000 exceeds the anneal guard 16777216\n"
        monkeypatch.setattr(search, "ANNEAL_GUARD", 4 * 100)
        args[-1] = "100"
        assert run(args) == 0
        assert json.loads(capsys.readouterr().out)["classes_visited"] == 100
        args[-1] = "101"
        assert run(args) == 3
        capsys.readouterr()

    def test_scan_ratio_guard_is_three_before_any_walk(self, capsys, monkeypatch):
        from sumprod import search

        # the sizes 2..8 of F_67 hold 113,671,723 dilation classes
        monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
        walked = []
        monkeypatch.setattr(search, "_class_masks", lambda *args: walked.append(args))
        assert run(["scan-ratio", "--p", "67"]) == 3
        assert capsys.readouterr().err == (
            "guard exceeded: 113671723 dilation classes exceed the 100000000 guard\n")
        assert walked == []

    @pytest.mark.parametrize("argv", [
        ["lemma", "katzshen", "--p", "7", "--b0", "1,2,3", "--bs", "1,2", "--eps", "1/0"],
        ["set", "--p", "7", "--a", "1,2", "--b", "3", "--op", "sum", "--out", "{missing}/x.json"],
        ["extremal", "--p", "7", "--n", "2", "--threads", "1", "--checkpoint", "{dir}"],
        ["extremal", "--p", "7", "--n", "2", "--threads", "1", "--checkpoint", "{missing}/ck.json"],
        ["chain", "--theorem", "prop51", "--p", "5", "--a", "0", "--b", "1,2"],
    ], ids=["eps-zero-denominator", "out-in-missing-dir", "checkpoint-is-dir",
            "checkpoint-in-missing-dir", "chain-zero-against-nonzero"])
    def test_bad_input_is_two(self, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path, missing=tmp_path / "missing") for a in argv]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("state", [
        {"p": 13, "n": 4, "mode": "exhaustive"},
        # a complete state from before the version field
        {"p": 13, "n": 4, "mode": "exhaustive", "cursor": 10, "best_value": 7,
         "witnesses": [15], "seed": None, "classes_visited": 1},
        # a complete version-2 state: its cursor counted the n-sets holding 1
        {"version": 2, "p": 13, "n": 4, "mode": "exhaustive", "cursor": 220, "best_value": 7,
         "witnesses": [15, 195, 4626], "classes_visited": 62},
        # well typed at the final cursor, but {0, 1, 2, 3} has objective 7, not 1
        {"version": 3, "p": 13, "n": 4, "mode": "exhaustive", "cursor": 62, "best_value": 1,
         "witnesses": [15], "classes_visited": 62},
    ])
    def test_bad_checkpoint_is_two(self, tmp_path, capsys, state):
        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(state))
        assert run(["extremal", "--p", "13", "--n", "4", "--checkpoint", str(ck)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_with_threads(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert run(["extremal", "--p", "13", "--n", "4", "--threads", "1"]) == 0
        serial = capsys.readouterr().out
        argv = ["extremal", "--p", "13", "--n", "4", "--threads", "2", "--checkpoint", str(ck)]
        assert run(argv) == 0
        assert capsys.readouterr().out == serial
        assert json.loads(ck.read_text())["cursor"] == 62  # every class
        assert run(argv) == 0  # resumes from the finished checkpoint
        assert capsys.readouterr().out == serial


class TestFormats:
    def test_csv_scan(self, capsys):
        assert run(["scan-ratio", "--p", "7", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,proper_exists,witness"
        assert len(lines) == 4  # header + n=1,2,3

    def test_text_chain(self, capsys):
        assert run(["chain", "--theorem", "remark", "--p", "7", "--a", "1,2",
                    "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "theorem: REMARK" in out
        assert "[diag]" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert run(["set", "--p", "7", "--a", "1,2", "--b", "3,5", "--op", "sum",
                    "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(dest.read_text())
        assert payload["elements"] == [0, 4, 5, 6]

    def test_fractions_serialized_as_num_den(self, capsys):
        assert run(["lemma", "cover", "--p", "13", "--b1", "ap:0,1,6", "--b2", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio_k"] == {"num": 7, "den": 2}


def test_threads_print_the_same_bytes(capsys):
    argv = ["extremal", "--p", "11", "--n", "3"]
    assert run(argv + ["--threads", "1"]) == 0
    want = capsys.readouterr().out
    for threads in ([], ["--threads", "100000"]):  # the default is 1
        assert run(argv + threads) == 0
        assert capsys.readouterr().out == want
    assert run(argv + ["--threads", "0"]) == 2
    assert "error: workers" in capsys.readouterr().err


def test_byte_identical_repeat(capsys):
    argv = ["chain", "--theorem", "1.4", "--p", "11", "--a", "1,2,3,4", "--b", "1,2"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_seed_flows_to_anneal(capsys):
    argv = ["extremal", "--p", "13", "--n", "3", "--mode", "anneal", "--iters", "60"]
    assert run(argv + ["--seed", "5"]) == 0
    with_seed = capsys.readouterr().out
    assert run(argv + ["--seed", "5"]) == 0
    assert capsys.readouterr().out == with_seed
    assert json.loads(with_seed)["seed"] == 5
    # default seed is 0, never wall-clock
    assert run(argv) == 0
    default_out = capsys.readouterr().out
    assert json.loads(default_out)["seed"] == 0


def test_rep_subcommand(capsys):
    assert run(["set", "--p", "5", "--a", "1,2", "--b", "1,2", "--op", "rep",
                "--sign", "minus"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == [2, 1, 0, 0, 1]


@pytest.mark.parametrize("kind", ["add", "mult"])
def test_energy_json_value_is_int_at_large_p(kind, capsys, numpy_loaded):
    # 40 x 50 elements: the histogram counts 2000 pairs, 1024 or more, so numpy, being
    # loaded, counts them; a fresh CLI process counts them in Python (test_cold_cli_loads_no_numpy)
    values = []
    for method in ("convolution", "naive"):
        assert run(["energy", "--p", "65521", "--y", "ap:1,3,40", "--z", "gp:2,3,50",
                    "--kind", kind, "--method", method]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert type(value) is int
        values.append(value)
    assert values[0] == values[1]


def _python(*args, **kwargs):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


def test_invariant_violation_is_one_under_optimize():
    # with ln(100) patched to 0 the covering budget is 1, but the cover needs 3
    code = (
        "import sys, sumprod.cli, sumprod.lemmas\n"
        "assert False, 'asserts must be stripped'\n"
        "sumprod.lemmas.LN100 = 0.0\n"
        "sys.exit(sumprod.cli.run(['lemma', 'cover', '--p', '13', '--b1', 'ap:0,1,6', '--b2', '0,1']))"
    )
    proc = _python("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "exact invariant violated: covering budget exceeded\n"


@pytest.mark.parametrize(
    "offset, message",
    [("0.4", "FFT pair counts are not within 1/4 of integers"),
     ("1.0", "FFT pair counts do not add up to the pair total")],
)
def test_fft_checks_hold_under_optimize(offset, message):
    # 64 x 64 pairs mod 101 cross the FFT threshold 16 * 256; a shifted irfft must be caught
    code = (
        "import sys, numpy.fft, sumprod.cli\n"
        "assert False, 'asserts must be stripped'\n"
        "irfft = numpy.fft.irfft\n"
        f"numpy.fft.irfft = lambda *a: irfft(*a) + {offset}\n"
        "sys.exit(sumprod.cli.run(['energy', '--p', '101', '--y', 'ap:0,1,64', '--z', 'ap:0,1,64', '--kind', 'add']))"
    )
    proc = _python("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"exact invariant violated: {message}\n"


def test_decode_check_holds_under_optimize():
    # numpy loaded, 40 x 48 pairs at p = 65521 decode their dense product by numpy; a packbits
    # that sets one more bit must be caught
    code = (
        "import sys, numpy, sumprod.cli\n"
        "assert False, 'asserts must be stripped'\n"
        "packbits = numpy.packbits\n"
        "numpy.packbits = lambda *a, **k: packbits(*a, **k) | 1\n"
        "sys.exit(sumprod.cli.run(['set', '--p', '65521', '--a', 'ap:1,7,40', '--b', 'gp:3,5,48', '--op', 'prod']))"
    )
    proc = _python("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "exact invariant violated: the log-domain decode does not preserve the popcount\n"


CORE = ("sumprod", "sumprod.core", "sumprod.errors")
# What a fresh interpreter loads: the sumprod modules exactly, for a statement
# or for one `python -m sumprod.cli` run of a golden invocation per subcommand.
FRESH_IMPORTS = {
    "import sumprod": ("import sumprod", ("sumprod",)),
    "sumprod.make_field": ("import sumprod; sumprod.make_field(7)", CORE),
    "import sumprod.cli": ("import sumprod.cli", (*CORE, "sumprod.cli")),
}
FRESH_RUNS = {
    "set_sum.json": CORE,
    "energy_add.json": (*CORE, "sumprod.energy"),
    "lemma_chang.json": (*CORE, "sumprod.lemmas"),
    "chain_t13.json": (*CORE, "sumprod.energy", "sumprod.lemmas", "sumprod.chains"),
    "extremal.json": (*CORE, "sumprod.search"),
    "scan_ratio.json": (*CORE, "sumprod.search"),
    # two workers asked for: the scan runs in this process whatever the
    # count, and prints the golden extremal bytes
    "extremal.json --threads 2": (*CORE, "sumprod.search"),
}


@pytest.mark.parametrize("case", [*FRESH_IMPORTS, *FRESH_RUNS])
def test_fresh_process_loads_only_what_it_runs(case):
    if case in FRESH_IMPORTS:
        code, want = FRESH_IMPORTS[case]
        proc = _python("-v", "-c", code)
        assert proc.stdout == ""
    else:
        want = FRESH_RUNS[case]
        argv = GOLDEN_CASES.get(case) or ["extremal", "--p", "7", "--n", "2", "--threads", "2"]
        proc = _python("-v", "-m", "sumprod.cli", *argv)
        assert proc.stdout == (DATA / "golden" / case.split()[0]).read_text()
    assert proc.returncode == 0, proc.stderr
    # -v reports every module as it is loaded, including `from . import x`
    loaded = set(re.findall(r"^import '([\w.]+)'", proc.stderr, re.M))
    assert sorted(m for m in loaded if m.split(".")[0] == "sumprod") == sorted(want)
    assert "numpy" not in loaded
    # no run starts a process pool
    assert "multiprocessing" not in loaded


# Seeded sets at p = 65521 of the shapes the CLI benchmark runs: every histogram
# and product below counts at most 9,600 pairs, far below the break-even at
# which a process that has not loaded numpy imports it.
COLD_P = 65521
COLD_RNG = random.Random(65521)
COLD_GP40 = f"gp:{COLD_RNG.randrange(1, COLD_P)},{COLD_RNG.randrange(2, COLD_P)},40"
COLD_GP10 = COLD_GP40[: COLD_GP40.rindex(",")] + ",10"
COLD_AP200 = f"ap:{COLD_RNG.randrange(COLD_P)},{COLD_RNG.randrange(1, COLD_P)},200"
COLD_FILE48 = COLD_RNG.sample(range(1, COLD_P), 48)
COLD_RUNS = {
    "prod 40x48": ["set", "--a", COLD_GP40, "--b", "@FILE", "--op", "prod"],
    "ratio 10": ["set", "--a", COLD_GP10, "--op", "ratio"],
    "rep 200x40": ["set", "--a", COLD_AP200, "--b", COLD_GP40, "--op", "rep", "--sign", "minus"],
    "energy mult 40x48": ["energy", "--y", COLD_GP40, "--z", "@FILE", "--kind", "mult"],
    "energy add 48x200": ["energy", "--y", "@FILE", "--z", COLD_AP200, "--kind", "add"],
    "chang 40x48": ["lemma", "chang", "--y", COLD_GP40, "--z", "@FILE"],
}


@pytest.mark.parametrize("case", COLD_RUNS)
def test_cold_cli_loads_no_numpy(case, tmp_path, capsys, numpy_loaded):
    path = tmp_path / "set.txt"
    path.write_text("".join(f"{x}\n" for x in COLD_FILE48))
    argv = [a.replace("@FILE", f"@{path}") for a in COLD_RUNS[case]] + ["--p", str(COLD_P)]
    proc = _python("-v", "-m", "sumprod.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(re.findall(r"^import '([\w.]+)'", proc.stderr, re.M))
    assert "numpy" not in loaded
    # the same bytes as this process, where numpy is loaded and counts from 1024 pairs on
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_package_names_are_their_submodules_objects(monkeypatch):
    for name in sumprod.__all__:
        if name == "errors":
            assert sumprod.errors is importlib.import_module("sumprod.errors")
            continue
        home = sumprod._HOME[name]
        obj = getattr(sumprod, name)
        assert obj is getattr(importlib.import_module(home), name), name
        if callable(obj):
            assert obj.__module__ == home, name
    assert set(sumprod.__all__) <= set(dir(sumprod))
    # nothing is cached on the package: a rebinding in the submodule shows through
    wrapper = object()
    monkeypatch.setattr(sumprod.chains, "chain_small", wrapper)
    assert sumprod.chain_small is wrapper
    monkeypatch.undo()
    assert sumprod.chain_small is sumprod.chains.chain_small is not wrapper
    with pytest.raises(AttributeError):
        sumprod.no_such_name


FUZZ_SEED = 20261019
FUZZ_RUNS = 1000


def _fuzz_argv(rng: random.Random, tmp_path: pathlib.Path) -> list[str]:
    """One sumprod argument vector from a small grammar: mostly well formed,
    with bad primes (one above the field-size guard), set specs, numbers and
    options mixed in."""

    def pick(good, bad=(), rate=0.05):
        return rng.choice(bad) if bad and rng.random() < rate else rng.choice(good)

    p = pick(["3", "5", "7", "11", "13", "13"], ["1", "4", "-7", "x", str(MAX_FIELD_P + 2)])
    q = int(p) if p.lstrip("-").isdigit() and 1 < int(p) <= 13 else 7

    def spec():
        roll = rng.random()
        if roll < 0.5:
            return ",".join(str(rng.randrange(-q, 2 * q)) for _ in range(rng.randint(1, 5)))
        if roll < 0.9:
            start, step, length = rng.randrange(q), rng.randrange(-1, q + 1), rng.randint(-1, 2 * q)
            return f"{pick(['ap', 'gp'])}:{start},{step},{length}"
        return pick(["", "0", "1,,2", "x", "ap:1,2", "gp:1", "1;2", f"@{tmp_path / 'missing'}"])

    command = pick(["set", "energy", "lemma", "chain", "extremal", "scan-ratio"], ["bogus"])
    argv = [command]
    options = {"--p": p, "--format": pick(["json", "csv", "text"], ["xml"]),
               "--seed": str(rng.randrange(-2, 100)),
               "--out": pick([None], [str(tmp_path / "out"), str(tmp_path / "no" / "out")], 0.1)}
    if command == "set":
        options.update({"--a": spec(), "--b": pick([spec()], [None]),
                        "--op": pick(["sum", "diff", "prod", "ratio", "dilate", "pattern", "rep"], ["cube"]),
                        "--u": pick([str(rng.randrange(-q, 2 * q))], [None]),
                        "--pattern": pick(["++--", "+-", "+", "-" * rng.randint(1, 6)], [None, "", "+x"]),
                        "--sign": pick(["plus", "minus"])})
    elif command == "energy":
        options.update({"--y": spec(), "--z": spec(), "--kind": pick(["add", "mult"], ["both"]),
                        "--method": pick(["naive", "convolution"])})
    elif command == "lemma":
        argv.append(pick(["cover", "katzshen", "gk", "xi", "chang"], ["zorn"]))
        for name in ("--a", "--b1", "--b2", "--b0", "--y", "--z"):
            options[name] = pick([spec()], [None])
        options.update({"--bs": pick([spec(), f"{spec()};{spec()}"], [None, ";"]),
                        "--eps": pick(["1/4", "1/3", "1/2", "3/4"], ["0", "1", "-1/3", "1/0", "0.3", "x"], 0.2),
                        "--mode": pick(["plus", "minus"]),
                        "--variant": pick(["plus_plus", "plus_minus"])})
    elif command == "chain":
        options.update({"--theorem": pick(["1.1", "1.2", "1.3", "1.4", "1.5", "prop51", "remark"], ["2.0"]),
                        "--a": spec(), "--b": pick([spec()], [None]),
                        "--sign": pick(["plus", "minus"])})
    elif command == "extremal":
        options.update({"--n": str(rng.randint(-1, q + 1)), "--mode": pick(["exhaustive", "anneal"]),
                        "--iters": str(rng.randint(-1, 60)),
                        "--threads": pick(["1", str(rng.randint(2, 10**6))], ["0", "-3"], 0.2),
                        "--checkpoint": pick([None], [str(tmp_path / f"ck{rng.randrange(3)}.json")], 0.3)})
    for name, value in options.items():
        if value is not None and rng.random() > 0.02:  # now and then a required option is missing
            argv.append(f"{name}={value}")  # one token, so a value may start with '-'
    return argv


def test_fuzzed_argv_exit_codes(tmp_path, capsys, monkeypatch):
    # unset, so a --p above MAX_FIELD_P exceeds the field-size guard
    monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
    rng = random.Random(FUZZ_SEED)
    codes = []
    for _ in range(FUZZ_RUNS):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            code = run(argv)
        except Exception as exc:  # report the argv that let it escape
            pytest.fail(f"{argv} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert "error: " in err, argv
        elif code == 3:
            assert err.startswith("guard exceeded: "), argv
        elif code == 1:
            assert argv[0] != "chain", argv  # every exact chain step holds on every input
            # an invariant that raised, or a report that shows the violation
            reported = out or any(a.startswith("--out=") for a in argv)
            assert err.startswith("exact invariant violated: ") or reported, argv
        codes.append(code)
    assert set(codes) >= {0, 2, 3}


def _cap_address_space():
    # a missing guard then fails with MemoryError instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_field_size_guard_is_three(monkeypatch):
    # two p-entry tables at p = 10**9 + 7 would take about 90 GB; the guard
    # refuses p > MAX_FIELD_P before the primality test and the tables.
    # Run in a capped child process, never in this one.
    monkeypatch.delenv("SPW_GUARD_OVERRIDE", raising=False)
    argv = ["set", "--p", "1000000007", "--a", "1,2", "--b", "3", "--op", "sum"]
    start = time.monotonic()
    proc = _python("-m", "sumprod.cli", *argv, preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("guard exceeded: p=1000000007")
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("spec", ["ap:0,1,100000000000", "gp:1,2,100000000000"])
def test_huge_progression_length(spec):
    # a progression mod p repeats within p terms, so only p are generated;
    # run capped and timed in a child, never in this process
    argv = ["set", "--p", "13", "--a", spec, "--b", "0", "--op", "sum"]
    start = time.monotonic()
    proc = _python("-m", "sumprod.cli", *argv, preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = list(range(13)) if spec.startswith("ap") else [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    assert json.loads(proc.stdout)["elements"] == want
    assert time.monotonic() - start < 10.0
