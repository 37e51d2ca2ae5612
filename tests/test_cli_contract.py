"""Every argv gets exactly one JSON document on stdout, exit 0, 1 or 2, and no
traceback: generated command lines over every command and flag, with values
at and just past each limit, scalars past the float range, non-ASCII digits,
and empty or malformed lists.  Sizes are drawn only where the command
finishes quickly.  `--help` is left out: it prints argparse's help text.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from sgalg import cli
from sgalg.checks import SUITE_NAMES
from sgalg.cli import main

BIG = "1" + "0" * 400  # past the float range
HUGE = "9" * 5000  # past int()'s digit limit
JUNK = ["", "x", "٣", "²", "-", "1e3", "1.5", BIG, HUGE]

SMALL_GENS = ["1", "2,3", "3,5", "3,4,5", "٣,٥"]
BAD_GENS = ["", ",", "2,,3", "2,4", "0", "-2,3", "a", "²,3", "2;3", "1000,1001", BIG + ",2"]
# min*max at the sieve's limit: the semigroup builds, and no command below is
# given work that grows with it except the cheap ones.
LIMIT_GENS = ["999,1001", "1000,1000"]

EXPRS = ["T(2)", "T*(3)*T(2)", "I", "1/2+3i", "2*T(3) - T*(2)^*", "(T(2)+I)*T*(3)",
         "T(2)*T*(2) - I", "-T(3)", "", "T(", "((((", "T(²)", "T(٣)", f"{BIG}*T(1)",
         f"1/{BIG}*T(3)", "T(999999999999)", "T(4) + T*(1000001)", "1/0", "T(2) +", "x",
         "(" * 201 + "I" + ")" * 201, "I+" * 300 + "I"]
FUNCTIONALS = ["haar", "w[0,0]", "w[2,0]", "w[-1,2]", "w[1,1]", "pm(1/3)", "pm(-6/5)",
               f"pm({BIG})", f"pm({BIG}/3)", f"pm(1/{BIG})", "pm(1/0)", "pm(",
               "conv(haar,pm(1/2))", "lin(2*haar + 1/2*w[0,0] - 3*pm(1/4))",
               f"lin({BIG}*pm(1/3))", "lin()", "", "w[", "pm(٣)", "conv(haar)"]


def ints(*values):
    return [str(v) for v in values] + JUNK


# Each command's flags and the values each may take.
COMMANDS = {
    "info": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS},
    "eval": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS,
             "--basis": ints(-1, 0, 1, 17, cli.MAX_BASIS, cli.MAX_BASIS + 1)},
    "symbol": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS},
    "split": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS},
    "norm": {"--gens": SMALL_GENS + BAD_GENS, "--expr": EXPRS,
             "--dim": ints(-1, 0, 1, 2, 64, cli.MAX_DIM + 1)},
    "coproduct": {"--gens": SMALL_GENS + BAD_GENS, "--expr": EXPRS,
                  "--pairs": ints(-1, 0, 1, 9, cli.MAX_PAIRS, cli.MAX_PAIRS + 1)},
    "grouplike": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS},
    "haar": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS},
    "convolve": {"--gens": SMALL_GENS + BAD_GENS + LIMIT_GENS, "--expr": EXPRS,
                 "--functional": FUNCTIONALS},
    "morphism": {"--from": ["1", "2,3", "3,4,5"] + BAD_GENS,
                 "--to": ["1", "2,3", "3,5"] + BAD_GENS,
                 "--mult": ints(-1, 0, 1, 2, 6, 7, 55_555, 55_556, 166_666, 166_667),
                 "--max-len": ints(-1, 0, 1, 2, 6, 8, 9, 15, 16)},
    "check": {"--gens": ["1", "2,3", "3,5"] + BAD_GENS,
              "--suite": list(SUITE_NAMES) + ["all", "nope"],
              "--seed": ints(0, 1, -1, 2**70)},
}
STRAY = ["--bogus", "--gens", "--expr=T(2)", "-x", "--", "info", "T(2)"]


def command_argv(name, flags):
    """argv for one command: each flag given (mostly) or left out, once or
    twice, its values drawn from its choices, the flags in any order, and
    sometimes a stray token."""
    parts = [st.sampled_from([1, 1, 1, 1, 0, 2]).flatmap(
        lambda n, f=f, vals=vals: st.lists(st.sampled_from(vals), min_size=n, max_size=n)
        .map(lambda vs, f=f: [[f, v] for v in vs]))
        for f, vals in flags.items()]
    return st.tuples(*parts, st.lists(st.sampled_from(STRAY), max_size=1)).flatmap(
        lambda drawn: st.permutations([p for group in drawn[:-1] for p in group]).map(
            lambda ps, stray=drawn[-1]: [name] + [t for p in ps for t in p] + stray))


ARGV = st.one_of(*(command_argv(name, flags) for name, flags in COMMANDS.items()),
                 st.lists(st.sampled_from(STRAY + JUNK + list(COMMANDS)), max_size=3))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
@example(["norm", "--gens", "1", "--expr", "T(1) + T*(1)", "--dim", str(cli.MAX_DIM)])
@example(["eval", "--gens", "999,1001", "--expr", "T(999)*T*(1001)", "--basis",
          str(cli.MAX_BASIS)])
@example(["coproduct", "--gens", "2,3", "--expr", "T(2)+T*(3)", "--pairs", str(cli.MAX_PAIRS)])
@example(["morphism", "--from", "2,3", "--to", "2,3", "--max-len", "8"])
@example(["morphism", "--from", "1", "--to", "1", "--mult", "166666", "--max-len", "6"])
@example(["check", "--gens", "2,3", "--suite", "all"])
def test_every_argv_gets_one_json_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text[:200])
    doc = json.loads(text, parse_constant=_no_constant)
    assert doc["schema"] == cli.SCHEMA
    assert code in (0, 1, 2)
    assert ("error" in doc) == (code == 2), argv
    assert "Traceback" not in err.getvalue()
