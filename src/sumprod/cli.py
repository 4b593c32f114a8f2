"""Command-line surface: input parsing, report serialization, exit codes.

Exit codes: 0 success with all exact checks passing, 1 an exact invariant
was violated, 2 usage or input error, 3 a desk-scale guard tripped
(SPW_GUARD_OVERRIDE=1 lifts the guards at your own risk).

All randomness flows from --seed (default 0); identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

# Only core and errors here: each subcommand's handler imports the modules it
# runs, so a process loads no more than its subcommand needs.
from .core import (
    MINUS,
    PLUS,
    FSet,
    PrimeField,
    dilate,
    make_field,
    pattern_combination,
    product_set,
    ratio_set,
    rep_fn,
    sumset,
)
from .errors import GuardExceeded, InvariantViolated, WorkbenchError


class UsageError(Exception):
    pass


def parse_set(spec: str, field: PrimeField) -> FSet:
    """Residue list '1,2,3', file '@path' (one per line, # comments),
    or progression 'ap:start,step,len' / 'gp:start,ratio,len'."""
    p = field.p
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as fh:
                vals = []
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        vals.append(int(line))
            return field.fset(vals)
        if spec.startswith("ap:"):
            start, step, length = (int(t) for t in spec[3:].split(","))
            if length < 1:
                raise UsageError("progression length must be >= 1")
            # a progression mod p repeats within p terms
            return field.fset((start + i * step) % p for i in range(min(length, p)))
        if spec.startswith("gp:"):
            start, ratio, length = (int(t) for t in spec[3:].split(","))
            if length < 1:
                raise UsageError("progression length must be >= 1")
            if ratio % p == 0:
                raise UsageError("gp ratio must be nonzero mod p")
            vals, cur = [], start % p
            for _ in range(min(length, p)):
                vals.append(cur)
                cur = cur * ratio % p
            return field.fset(vals)
        return field.fset(int(t) for t in spec.split(","))
    except (ValueError, OSError) as exc:
        raise UsageError(f"cannot parse set {spec!r}: {exc}") from None


def jsonable(x):
    """Recursively convert reports to JSON-safe data.

    FSets become sorted residue lists, Fractions become {num, den},
    non-finite floats become null.
    """
    if isinstance(x, FSet):
        return sorted(x)
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


def _payload(kind: str, report) -> dict:
    out = {"type": kind}
    out.update(jsonable(report))
    # computed properties worth pinning in the schema
    if kind == "chain_report":
        out["violation"] = report.violation
        out["final_ratio"] = jsonable(report.final_ratio)
    elif kind == "energy_report":
        out["meets_floor"] = report.meets_floor
    elif kind == "bucket_decomposition":
        out["max_bucket_card"] = report.max_bucket_card
        from .lemmas import chang_floor_holds

        out["floor_holds"] = chang_floor_holds(report)
    elif kind == "search_record":
        out["exponent"] = jsonable(report.exponent)
    return out


def _flat(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))
    return "" if v is None else str(v)


def render_csv(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if payload["type"] == "chain_report":
        w.writerow(["name", "kind", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "passed"])
        for s in payload["steps"]:
            w.writerow([s["name"], s["kind"], s["lhs_num"], s["lhs_den"],
                        s["rhs_num"], s["rhs_den"], _flat(s["passed"])])
    elif payload["type"] == "ratio_scan_table":
        w.writerow(["n", "proper_exists", "witness"])
        for e in payload["entries"]:
            w.writerow([e["n"], _flat(e["proper_exists"]), _flat(e["witness"])])
    else:
        keys = sorted(payload)
        w.writerow(keys)
        w.writerow([_flat(payload[k]) for k in keys])
    return buf.getvalue()


def render_text(payload: dict) -> str:
    lines = []
    steps = payload.pop("steps", None)
    entries = payload.pop("entries", None)
    for k in sorted(payload):
        lines.append(f"{k}: {_flat(payload[k])}")
    for row in steps or []:
        mark = {True: "ok", False: "VIOLATION", None: "diag"}[row["passed"]]
        lines.append(
            f"  [{mark}] {row['name']}: {row['lhs_num']}/{row['lhs_den']}"
            f" vs {row['rhs_num']}/{row['rhs_den']}"
        )
    for row in entries or []:
        lines.append(f"  n={row['n']} proper={_flat(row['proper_exists'])} witness={_flat(row['witness'])}")
    return "\n".join(lines) + "\n"


def emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        text = render_csv(payload)
    elif fmt == "text":
        text = render_text(dict(payload))
    else:
        raise UsageError(f"bad format {fmt!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _violated(payload: dict) -> bool:
    if payload.get("violation"):
        return True
    if payload.get("meets_floor") is False:
        return True
    if payload.get("floor_holds") is False:
        return True
    return False


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sumprod", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="odd prime modulus")
    common.add_argument("--format", choices=["json", "csv", "text"], default="json")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--seed", type=int, default=0)
    sub = top.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("set", parents=[common], help="core set operations")
    ps.add_argument("--a", required=True)
    ps.add_argument("--b", default=None)
    ps.add_argument("--op", required=True,
                    choices=["sum", "diff", "prod", "ratio", "dilate", "pattern", "rep"])
    ps.add_argument("--u", type=int, default=None, help="dilation factor")
    ps.add_argument("--pattern", default=None, help="sign string like '++--'")
    ps.add_argument("--sign", choices=[PLUS, MINUS], default=PLUS)

    pe = sub.add_parser("energy", parents=[common])
    pe.add_argument("--y", required=True)
    pe.add_argument("--z", required=True)
    pe.add_argument("--kind", choices=["add", "mult"], required=True)
    pe.add_argument("--method", choices=["naive", "convolution"], default="convolution")

    pl = sub.add_parser("lemma", parents=[common])
    pl.add_argument("which", choices=["cover", "katzshen", "gk", "xi", "chang"])
    pl.add_argument("--a", default=None)
    pl.add_argument("--b1", default=None)
    pl.add_argument("--b2", default=None)
    pl.add_argument("--b0", default=None)
    pl.add_argument("--bs", default=None, help="semicolon-separated set specs")
    pl.add_argument("--y", default=None)
    pl.add_argument("--z", default=None)
    pl.add_argument("--eps", default="1/4", help="rational like 1/4")
    pl.add_argument("--mode", choices=[PLUS, MINUS], default=PLUS)
    pl.add_argument("--variant", choices=["plus_plus", "plus_minus"], default="plus_plus")

    pc = sub.add_parser("chain", parents=[common])
    pc.add_argument("--theorem", required=True,
                    choices=["1.1", "1.2", "1.3", "1.4", "1.5", "prop51", "remark"])
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", default=None)
    pc.add_argument("--sign", choices=[PLUS, MINUS], default=PLUS)

    px = sub.add_parser("extremal", parents=[common])
    px.add_argument("--n", type=int, required=True)
    px.add_argument("--mode", choices=["exhaustive", "anneal"], default="exhaustive")
    px.add_argument("--iters", type=int, default=10_000)
    px.add_argument("--threads", type=int, default=1,
                    help="must be >= 1; the scan runs in one process whatever it is (default: 1)")
    px.add_argument("--checkpoint", default=None)

    sub.add_parser("scan-ratio", parents=[common])
    return top


def _need(args, names: list[str]) -> None:
    for n in names:
        if getattr(args, n) is None:
            raise UsageError(f"--{n} is required for this subcommand")


def _run_set(args, field) -> dict:
    A = parse_set(args.a, field)
    if args.op in ("sum", "diff", "prod", "rep"):
        _need(args, ["b"])
        B = parse_set(args.b, field)
        if args.op == "sum":
            res = sumset(A, B)
        elif args.op == "diff":
            res = sumset(A, B, MINUS)
        elif args.op == "prod":
            res = product_set(A, B)
        else:
            r = rep_fn(A, B, args.sign)
            return {"type": "rep_fn", "p": field.p, "counts": list(r.counts), "total": r.total}
    elif args.op == "ratio":
        res = ratio_set(A)
    elif args.op == "dilate":
        _need(args, ["u"])
        res = dilate(A, args.u)
    else:
        _need(args, ["pattern"])
        res = pattern_combination(A, args.pattern)
    return {"type": "set", "p": field.p, "op": args.op,
            "elements": sorted(res), "card": res.card}


def _run_energy(args, field) -> dict:
    from .energy import ADDITIVE, MULTIPLICATIVE, energy

    kind = ADDITIVE if args.kind == "add" else MULTIPLICATIVE
    rep = energy(parse_set(args.y, field), parse_set(args.z, field), kind, args.method)
    return _payload("energy_report", rep)


def _run_lemma(args, field) -> dict:
    from . import lemmas

    if args.which == "cover":
        _need(args, ["b1", "b2"])
        rep = lemmas.greedy_cover(parse_set(args.b1, field), parse_set(args.b2, field), args.mode)
        return _payload("cover_result", rep)
    if args.which == "katzshen":
        _need(args, ["b0", "bs"])
        B0 = parse_set(args.b0, field)
        Bs = [parse_set(s, field) for s in args.bs.split(";") if s]
        try:
            eps = Fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse --eps {args.eps!r}: {exc}") from None
        X, ratio = lemmas.katz_shen_subset(B0, Bs, eps)
        return {"type": "katz_shen", "p": field.p, "subset": sorted(X),
                "subset_card": X.card, "ratio": jsonable(ratio)}
    if args.which == "gk":
        _need(args, ["a"])
        rep = lemmas.gk_witness(parse_set(args.a, field), args.variant)
        return _payload("gk_witness", rep)
    if args.which == "xi":
        _need(args, ["a"])
        xi, e_val = lemmas.xi_search(parse_set(args.a, field))
        return {"type": "xi_result", "p": field.p, "xi": xi, "energy": e_val}
    _need(args, ["y", "z"])
    rep = lemmas.chang_decompose(parse_set(args.y, field), parse_set(args.z, field))
    return _payload("bucket_decomposition", rep)


def _run_chain(args, field) -> dict:
    from . import chains

    A = parse_set(args.a, field)
    if args.theorem in ("1.3", "1.4", "1.5", "prop51"):
        _need(args, ["b"])
        B = parse_set(args.b, field)
    if args.theorem == "1.1":
        rep = chains.chain_small(A, args.sign)
    elif args.theorem == "1.2":
        rep = chains.chain_large(A, args.sign)
    elif args.theorem == "1.3":
        rep = chains.chain_unbalanced(A, B, "T13")
    elif args.theorem == "1.4":
        rep = chains.chain_unbalanced(A, B, "T14")
    elif args.theorem == "1.5":
        rep = chains.chain_balanced(A, B)
    elif args.theorem == "prop51":
        rep = chains.prop51_audit(A, B)
    else:
        rep = chains.energy_bound_audit(A)
    return _payload("chain_report", rep)


def _run_extremal(args, field) -> dict:
    from . import search

    if args.mode == "anneal":
        rep = search.anneal_extremal(field.p, args.n, seed=args.seed, iters=args.iters)
    else:
        rep = search.exhaustive_extremal(
            field.p, args.n, workers=args.threads, checkpoint_path=args.checkpoint
        )
    return _payload("search_record", rep)


def _run_scan_ratio(args, field) -> dict:
    from . import search

    return _payload("ratio_scan_table", search.ratio_threshold_scan(field.p))


_RUNNERS = {"set": _run_set, "energy": _run_energy, "lemma": _run_lemma, "chain": _run_chain,
            "extremal": _run_extremal, "scan-ratio": _run_scan_ratio}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        payload = _RUNNERS[args.command](args, make_field(args.p))
        emit(payload, args.format, args.out)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolated as exc:
        print(f"exact invariant violated: {exc}", file=sys.stderr)
        return 1
    except (UsageError, WorkbenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if _violated(payload) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
