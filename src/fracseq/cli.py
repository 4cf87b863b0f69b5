"""Command-line surface: catalog listing, generation, rendering,
verification, and small sequence/perm calculators.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .geometry import cubic_grid, sqrt2_pow, trace
from .perms import PermError, apply, compose, invert, named_perm, parity, parse_perm
from .render import RenderError, RenderOptions, svg_export
from .rulefile import ParseError, parse_rule_file
from .sequences import (
    compare,
    fold,
    minimal_normalized,
    normalize,
    parse_sequence,
)
from .substitution import RuleError, check_commutation, is_expansive, iterate, iterate_full


def _fmt_seq(s) -> str:
    return ",".join(str(k) for k in s)


def _cmd_list(_args) -> int:
    entries = catalog.catalog_list()
    width = max(len(e.id) for e in entries)
    for e in entries:
        print(f"{e.id:<{width}}  {_fmt_seq(e.expected_prefix[:12])},...  {e.title}")
    return 0


def _cmd_gen(args) -> int:
    values, exps = catalog.stream_values(args.id, args.terms, args.level)
    print(_fmt_seq(values))
    if exps is not None:
        print("lengths-log-sqrt2: " + _fmt_seq(exps))
    if args.bfile:
        with open(args.bfile, "wb") as fh:
            fh.write(catalog.format_bfile(values))
    return 0


def _cmd_render(args) -> int:
    entry = catalog.get_entry(args.id)
    seq, exps = iterate_full(entry.system, args.level)
    lengths = [sqrt2_pow(e) for e in exps] if exps is not None else None
    if entry.grid is not None:
        grid = entry.grid
    else:
        # unbounded entries live on the cubic grid of whatever dimension
        # this level actually reaches
        grid = cubic_grid(max(abs(k) for k in seq.items))
    poly = trace(seq, grid, lengths)
    opts = RenderOptions(rounded_corners=args.rounded, projection=args.projection)
    data = svg_export(poly, opts)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out} ({poly.edge_count} edges)")
    return 0


def _cmd_verify(args) -> int:
    ids = [e.id for e in catalog.catalog_list()] if args.all or args.id is None else [args.id]
    reports = [catalog.verify_entry(i) for i in ids]
    if args.json:
        payload = [
            {
                "id": r.entry_id,
                "passed": r.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in r.checks],
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            for c in r.checks:
                status = "PASS" if c.passed else "FAIL"
                detail = f"  ({c.detail})" if c.detail and not c.passed else ""
                print(f"{r.entry_id:<24} {c.name:<28} {status}{detail}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_perm(args) -> int:
    if args.op == "compose":
        print(compose(parse_perm(args.a), parse_perm(args.b)))
    elif args.op == "invert":
        print(invert(parse_perm(args.a)))
    elif args.op == "parity":
        print(parity(parse_perm(args.a)))
    elif args.op == "apply":
        if args.b is None:
            raise PermError("apply needs a perm and a sequence")
        print(_fmt_seq(apply(parse_perm(args.a), parse_sequence(args.b)).items))
    return 0


def _cmd_seq(args) -> int:
    if args.op == "normalize":
        print(_fmt_seq(normalize(parse_sequence(args.a)).items))
    elif args.op == "minimal":
        print(_fmt_seq(minimal_normalized(parse_sequence(args.a)).items))
    elif args.op == "compare":
        if args.b is None:
            raise ValueError("compare needs two sequences")
        c = compare(parse_sequence(args.a), parse_sequence(args.b))
        print({-1: "<", 0: "=", 1: ">"}[c])
    elif args.op == "fold":
        xs = [int(t) for t in args.a.split(",")]
        print(_fmt_seq(fold(xs).items))
    return 0


def _cmd_rule_check(args) -> int:
    with open(args.rulefile, "r", encoding="utf-8") as fh:
        text = fh.read()
    sys_ = parse_rule_file(text)
    print(f"name: {sys_.name or 'unnamed'}")
    print(f"kind: {sys_.kind}")
    print(f"digiset: {sys_.digiset}")
    expansive = is_expansive(sys_)
    print(f"expansive: {'yes' if expansive else 'NO'}")
    if sys_.kind in ("edgewise", "digitwise") and sys_.digiset.size == 2:
        commuting = [name for name in ("mu", "tau_x", "tau_y", "tau_d")
                     if check_commutation(sys_.rule, named_perm(name, 2))]
        print("commutes with: " + (", ".join(commuting) if commuting else "none of mu, tau_x, tau_y, tau_d"))
    if sys_.start or sys_.kind == "wholecurve":
        # a pairlift read from a rule file has only its start level
        level = 0 if sys_.kind == "pairlift" else 2
        print(f"level-{level} preview: {_fmt_seq(iterate(sys_, level).items[:24])}")
    return 0 if expansive else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracseq", description="fractal curves as signed integer sequences")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="ordered catalog table")

    gen = sub.add_parser("gen", help="generate an entry's sequence")
    gen.add_argument("id")
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--terms", type=int, default=32)
    group.add_argument("--level", type=int)
    gen.add_argument("--bfile", help="also write a b-file with the generated terms")

    ren = sub.add_parser("render", help="render an entry as SVG")
    ren.add_argument("id")
    ren.add_argument("--level", type=int, required=True)
    ren.add_argument("--out", required=True)
    ren.add_argument("--rounded", action="store_true")
    ren.add_argument("--projection", default="2d", choices=["2d", "iso", "ortho"])

    ver = sub.add_parser("verify", help="run catalog verification")
    ver.add_argument("id", nargs="?")
    ver.add_argument("--all", action="store_true")
    ver.add_argument("--json", action="store_true")

    pm = sub.add_parser("perm", help="signed permutation calculator")
    pm.add_argument("op", choices=["compose", "invert", "parity", "apply"])
    pm.add_argument("a")
    pm.add_argument("b", nargs="?")

    sq = sub.add_parser("seq", help="sequence calculator")
    sq.add_argument("op", choices=["normalize", "minimal", "compare", "fold"])
    sq.add_argument("a")
    sq.add_argument("b", nargs="?")

    rl = sub.add_parser("rule", help="rule-file tools")
    rl_sub = rl.add_subparsers(dest="rule_command", required=True)
    chk = rl_sub.add_parser("check", help="parse and diagnose a rule file")
    chk.add_argument("rulefile")

    return ap


_COMMANDS = {
    "list": _cmd_list,
    "gen": _cmd_gen,
    "render": _cmd_render,
    "verify": _cmd_verify,
    "perm": _cmd_perm,
    "seq": _cmd_seq,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "rule":
            return _cmd_rule_check(args)
        return _COMMANDS[args.command](args)
    except (catalog.CatalogError, PermError, ParseError, RuleError, RenderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
