"""Command-line front end.

One JSON document per invocation on stdout (newline-terminated); prose goes
to stderr.  Exit codes: 0 success / all checks pass, 1 a checked property
failed (the JSON carries the witness), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .semigroup import NumericalSemigroup
from .quantum import coproduct, group_like_detect, rep
from . import functionals as fns
from .exprparse import ExprError, parse_element, parse_functional
from .numeric import laurent_sup_norm, operator_norm, truncate
from .checks import SUITE_NAMES, morphism_report, run_suite

SCHEMA = "sgalg-report/1"
# Largest `sg norm --dim`: the truncation is a dense complex matrix, and one
# SVD at this size takes seconds on one core.
MAX_DIM = 2048
# Largest membership sieve, min*max of a generator list: the semigroup is
# built by a Python loop over that many integers.
MAX_SIEVE = 1_000_000
# Largest number of words `sg morphism` enumerates, the sum of (2k)^l over
# lengths l up to --max-len for k minimal generators of the source.
MAX_WORDS = 100_000
# Largest `sg eval --basis` and `sg coproduct --pairs` tables.
MAX_BASIS = 4096
MAX_PAIRS = 256


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _gens(text: str, flag: str = "--gens") -> NumericalSemigroup:
    try:
        gens = [int(p) for p in text.split(",") if p.strip()]
        if gens:
            _at_most(f"{flag} min*max", min(gens) * max(gens), MAX_SIEVE)
        return NumericalSemigroup(gens)
    except ValueError as exc:
        raise ExprError(f"bad generator list {text!r}: {exc}") from exc


def _max_word_len(s: NumericalSemigroup) -> int:
    """Longest word length whose word count over s stays within MAX_WORDS."""
    length, words, power = 0, 0, 1
    while True:
        power *= 2 * len(s.generators)
        if words + power > MAX_WORDS:
            return length
        words += power
        length += 1


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _at_most(flag: str, value: int, high: int) -> None:
    if value > high:
        raise ValueError(f"{flag} must be at most {high}, got {value}")


def _scalar_json(v) -> object:
    from .scalars import GaussianRational
    if isinstance(v, GaussianRational):
        return str(v)
    return {"re": v.real, "im": v.imag}


def _base(command: str, **kw) -> dict:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(kw)
    return doc


def cmd_info(args) -> int:
    s = _gens(args.gens)
    _emit(_base("info", generators=list(s.generators), gaps=list(s.gaps),
                frobenius=s.frobenius, totally_ordered=s.is_totally_ordered()))
    return 0


def cmd_eval(args) -> int:
    _at_least("--basis", args.basis, 0)
    _at_most("--basis", args.basis, MAX_BASIS)
    s = _gens(args.gens)
    x = parse_element(args.expr, s)
    op = rep(x)
    doc = _base("eval", generators=list(s.generators), expr=args.expr,
                free_terms=x.to_json_list(), operator=op.to_json_dict())
    if args.basis:
        table = []
        for i in range(args.basis):
            d = s.element_at(i)
            image = op.apply(d)
            table.append([d, [[m, str(v)] for m, v in sorted(image.items())]])
        doc["basis_action"] = table
    _emit(doc)
    return 0


def cmd_symbol(args) -> int:
    s = _gens(args.gens)
    op = rep(parse_element(args.expr, s))
    f = op.symbol()
    _emit(_base("symbol", generators=list(s.generators), expr=args.expr,
                symbol=f.to_json_dict(), in_ideal=f.is_zero))
    return 0


def cmd_split(args) -> int:
    s = _gens(args.gens)
    op = rep(parse_element(args.expr, s))
    f, k = op.split()
    _emit(_base("split", generators=list(s.generators), expr=args.expr,
                symbol=f.to_json_dict(), ideal_part=k.to_json_dict(),
                ideal_part_in_ideal=k.in_ideal()))
    return 0


def cmd_norm(args) -> int:
    _at_least("--dim", args.dim, 1)
    _at_most("--dim", args.dim, MAX_DIM)
    s = _gens(args.gens)
    op = rep(parse_element(args.expr, s))
    value = operator_norm(truncate(op, args.dim))
    f = op.symbol()
    sup, sup_err = laurent_sup_norm(f)
    _emit(_base("norm", generators=list(s.generators), expr=args.expr, dim=args.dim,
                truncated_norm=value, symbol_sup_norm=sup,
                symbol_sup_norm_error=sup_err))
    return 0


def cmd_coproduct(args) -> int:
    _at_least("--pairs", args.pairs, 0)
    _at_most("--pairs", args.pairs, MAX_PAIRS)
    s = _gens(args.gens)
    x = parse_element(args.expr, s)
    t = coproduct(x)
    doc = _base("coproduct", generators=list(s.generators), expr=args.expr,
                tensor=t.to_json_list())
    if args.pairs:
        members = s.members_upto(s.element_at(args.pairs - 1))
        table = []
        for c in members:
            for d in members:
                vals = t.apply((c, d))
                if vals:
                    table.append([[c, d], [[list(k), str(v)]
                                           for k, v in sorted(vals.items())]])
        doc["pair_action"] = table
    _emit(doc)
    return 0


def cmd_grouplike(args) -> int:
    s = _gens(args.gens)
    x = parse_element(args.expr, s)
    c = group_like_detect(x)
    _emit(_base("grouplike", generators=list(s.generators), expr=args.expr,
                group_like=c is not None, index=c))
    return 0


def cmd_haar(args) -> int:
    s = _gens(args.gens)
    x = parse_element(args.expr, s)
    value = fns.evaluate(fns.haar(), x)
    _emit(_base("haar", generators=list(s.generators), expr=args.expr,
                value=_scalar_json(value)))
    return 0


def cmd_convolve(args) -> int:
    s = _gens(args.gens)
    if len(args.functional) != 2:
        raise ExprError("exactly two --functional arguments are required")
    f = parse_functional(args.functional[0], s)
    g = parse_functional(args.functional[1], s)
    x = parse_element(args.expr, s)
    value = fns.evaluate(fns.convolve(f, g), x)
    _emit(_base("convolve", generators=list(s.generators),
                functionals=args.functional, expr=args.expr,
                value=_scalar_json(value)))
    return 0


def cmd_morphism(args) -> int:
    _at_least("--max-len", args.max_len, 1)
    s1 = _gens(getattr(args, "from"), "--from")
    s2 = _gens(args.to, "--to")
    _at_most(f"--max-len over {s1}", args.max_len, _max_word_len(s1))
    report = morphism_report(s1, s2, args.mult, args.max_len)
    _emit(_base("morphism", **report))
    return 1 if report["witness_found"] else 0


def cmd_check(args) -> int:
    s = _gens(args.gens)
    reports = run_suite(args.suite, s, seed=args.seed)
    passed = all(r["pass"] for r in reports)
    _emit(_base("check", generators=list(s.generators), suite=args.suite,
                reports=reports, **{"pass": passed}))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sg",
        description="exact semigroup operator calculus and verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_gens(p):
        p.add_argument("--gens", required=True,
                       help="comma-separated generators; 1 means the full "
                            f"non-negative integers; min*max at most {MAX_SIEVE}")

    p = sub.add_parser("info", help="gaps, frobenius number, order totality")
    with_gens(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("eval", help="canonical operator form of an expression")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--basis", type=int, default=0,
                   help="also list the action on the first N basis points, "
                        f"at most {MAX_BASIS}")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("symbol", help="image in the commutative quotient")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_symbol)

    p = sub.add_parser("split", help="lift-plus-ideal decomposition")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("norm", help="truncated operator norm")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--dim", type=int, required=True,
                   help=f"truncation size, 1 to {MAX_DIM}")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("coproduct", help="diagonal coproduct of an expression")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--pairs", type=int, default=0,
                   help="also act on pairs from the first N basis points, "
                        f"at most {MAX_PAIRS}")
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("grouplike", help="detect a canonical isometric generator")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_grouplike)

    p = sub.add_parser("haar", help="absorbing-state value of an expression")
    with_gens(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_haar)

    p = sub.add_parser("convolve", help="convolve two functionals against an expression")
    with_gens(p)
    p.add_argument("--functional", action="append", default=[],
                   help="give twice: w[a,b] | haar | pm(turns) | conv(f,g) | lin(...)")
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("morphism", help="falsify a generator-scaling morphism")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    p.add_argument("--mult", type=int, default=None,
                   help="single multiplier; scans the admissible 0..6 when absent")
    p.add_argument("--max-len", type=int, default=6,
                   help=f"longest word; at most {MAX_WORDS} words in all")
    p.set_defaults(fn=cmd_morphism)

    p = sub.add_parser("check", help="run a named verification suite")
    with_gens(p)
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ExprError as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc),
                                           "offset": exc.offset}})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
