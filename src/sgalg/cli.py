"""Command-line front end.

One JSON document per invocation on stdout (newline-terminated); prose goes
to stderr.  Exit codes: 0 success / all checks pass, 1 a checked property
failed (the JSON carries the witness), 2 usage or input error.  Passing
suite reports are unchanged; a failing one's computed also holds
"counterexample": {"case": i, "value": ...}, the first failing case, i counted
from 0 in that claim's case stream, which the report's parameters fix.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .scalars import GaussianRational
from .semigroup import NumericalSemigroup, bit_positions
from .quantum import coproduct, group_like_detect, rep
from . import functionals as fns
from .exprparse import MAX_LETTERS, ExprError, parse_element, parse_functional
from .numeric import laurent_sup_norm, operator_norm, truncate
from .checks import SUITE_NAMES, morphism_report, run_suite

SCHEMA = "sgalg-report/1"
# Largest `sg norm --dim`: the truncation and its Gram matrix are dense, and
# the Gram eigenvalues at this size take seconds on one core.
MAX_DIM = 2048
# Largest word count, the sum of (2k)^l over lengths l up to --max-len for k
# minimal generators of the source, that bounds an `sg morphism` search.
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
            # The semigroup is built by shifting an integer bitmask of
            # min*max bits, so that sieve is held to exprparse.MAX_LETTERS.
            _at_most(f"{flag} min*max", min(gens) * max(gens), MAX_LETTERS)
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
        # op.apply(d) from weights listed once in index order: sorted, no scan per point
        weights = op.weights().items()
        table = []
        for i in range(args.basis):
            d = s.element_at(i)
            image = ((d + c, exceptions.get(d, tail)) for c, (tail, exceptions) in weights)
            table.append([d, [[m, str(v)] for m, v in image if v]])
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
        # FreeTensor.apply's sums on the first N members, each term's kept points read once
        window = ((2 << s.element_at(args.pairs - 1)) - 1) & ~s.gapmask
        action: dict = {}
        for (v, w), coeff in t.terms.items():
            kept = [(d, d + w.index) for d in bit_positions(window & ~w.mask)]
            for c in bit_positions(window & ~v.mask):
                for d, image_d in kept:
                    vals = action.setdefault((c, d), {})
                    key = (c + v.index, image_d)
                    vals[key] = vals[key] + coeff if key in vals else coeff
        doc["pair_action"] = [[list(p), [[list(k), str(v)] for k, v in sorted(vals.items()) if v]]
                              for p, vals in sorted(action.items()) if any(vals.values())]
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
    if args.mult is not None:
        # The letters m*a of one image word then sum to at most an --expr's budget.
        _at_most(f"--mult * --max-len * {max(s1.generators)}",
                 args.mult * args.max_len * max(s1.generators), MAX_LETTERS)
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


class UsageError(Exception):
    """A command line that argparse rejected; the message is argparse's."""


class _ArgumentParser(argparse.ArgumentParser):
    """Prints argparse's usage lines to stderr, then raises instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sg` parser, built on the first call and shared by every later one."""
    parser = _ArgumentParser(
        prog="sg",
        description="exact semigroup operator calculus and verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, expr=True):
        """A subcommand taking --gens, then --expr unless expr is false."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--gens", required=True,
                       help="comma-separated generators; 1 means the full "
                            f"non-negative integers; min*max at most {MAX_LETTERS}")
        if expr:
            p.add_argument("--expr", required=True)
        p.set_defaults(fn=fn)
        return p

    command("info", cmd_info, "gaps, frobenius number, order totality", expr=False)
    command("eval", cmd_eval, "canonical operator form of an expression").add_argument(
        "--basis", type=int, default=0,
        help=f"also list the action on the first N basis points, at most {MAX_BASIS}")
    command("symbol", cmd_symbol, "image in the commutative quotient")
    command("split", cmd_split, "lift-plus-ideal decomposition")
    command("norm", cmd_norm, "truncated operator norm").add_argument(
        "--dim", type=int, required=True, help=f"truncation size, 1 to {MAX_DIM}")
    command("coproduct", cmd_coproduct, "diagonal coproduct of an expression").add_argument(
        "--pairs", type=int, default=0,
        help=f"also act on pairs from the first N basis points, at most {MAX_PAIRS}")
    command("grouplike", cmd_grouplike, "detect a canonical isometric generator")
    command("haar", cmd_haar, "absorbing-state value of an expression")

    p = command("convolve", cmd_convolve, "convolve two functionals against an expression",
                expr=False)
    p.add_argument("--functional", action="append", default=[],
                   help="give twice: w[a,b] | haar | pm(turns) | conv(f,g) | lin(...)")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("morphism", help="falsify a generator-scaling morphism")
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--to", required=True)
    p.add_argument("--mult", type=int, default=None,
                   help="single multiplier; scans the admissible 0..6 when absent; "
                        f"mult * max-len * the largest source generator at most {MAX_LETTERS}")
    p.add_argument("--max-len", type=int, default=6,
                   help=f"longest word; at most {MAX_WORDS} words in all")
    p.set_defaults(fn=cmd_morphism)

    p = command("check", cmd_check, "run a named verification suite", expr=False)
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "usage", "message": str(exc)}})
        return 2
    except SystemExit as exc:  # --help
        return exc.code or 0
    try:
        return args.fn(args)
    except ExprError as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc),
                                           "offset": exc.offset}})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # OverflowError: a scalar past the float range, met by the float layer.
    except (ValueError, RuntimeError, OverflowError) as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
