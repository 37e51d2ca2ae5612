import json
import math
import random
import sys
from pathlib import Path

import pytest

from conftest import tensor_apply
from sgalg import checks, cli
from sgalg.cli import main
from sgalg.quantum import coproduct
from sgalg.semigroup import NumericalSemigroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_info(capsys):
    code, out = run_cli(capsys, "info", "--gens", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["gaps"] == [1]
    assert doc["frobenius"] == 1
    assert doc["totally_ordered"] is False
    assert doc["schema"].startswith("sgalg-report/")


def test_info_baseline(capsys):
    code, out = run_cli(capsys, "info", "--gens", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["gaps"] == [] and doc["frobenius"] == -1 and doc["totally_ordered"]


def test_eval_deterministic(capsys):
    args = ("eval", "--gens", "2,3",
            "--expr", "(I - T*(3)*T(2)*T*(2)*T(3))", "--basis", "6")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["operator"]["components"] == [
        {"index": 0, "exceptions": [[0, "1"]], "tail": "0", "threshold": 1}]
    assert doc["basis_action"][0] == [0, [[0, "1"]]]
    assert doc["basis_action"][1] == [2, []]


def test_symbol_and_split(capsys):
    code, out = run_cli(capsys, "symbol", "--gens", "2,3", "--expr", "T(2) + T*(3)")
    assert code == 0
    assert json.loads(out)["symbol"]["coefficients"] == [[-3, "1"], [2, "1"]]

    # the rank-one remainder has symbol zero, so only the shift survives
    code, out = run_cli(capsys, "split", "--gens", "2,3",
                        "--expr", "T(2) + I - T*(3)*T(2)*T*(2)*T(3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["symbol"]["coefficients"] == [[2, "1"]]
    assert doc["ideal_part"]["components"] == [
        {"index": 0, "exceptions": [[0, "1"]], "tail": "0", "threshold": 1}]
    assert doc["ideal_part_in_ideal"] is True


def test_symbol_and_split_bytes(capsys):
    # The printed form of fractional and imaginary coefficients, byte for byte.
    expr = "1/2*T(3) + (1-1i)*T*(3)*T(7) - 2/3*T*(7) + (2/5-3/4i)*T(7)*T*(7)"
    head = ('{"schema": "sgalg-report/1", "command": "%s", "generators": [3, 7], '
            '"expr": "' + expr + '", "symbol": {"coefficients": '
            '[[-7, "-2/3"], [0, "2/5-3/4i"], [3, "1/2"], [4, "1-i"]]}, ')
    exceptions = ", ".join(f'[{d}, "-2/5+3/4i"]' for d in range(0, 19, 3))
    assert run_cli(capsys, "symbol", "--gens", "3,7", "--expr", expr) == (
        0, head % "symbol" + '"in_ideal": false}\n')
    assert run_cli(capsys, "split", "--gens", "3,7", "--expr", expr) == (
        0, head % "split" + '"ideal_part": {"components": [{"index": 0, "exceptions": ['
        + exceptions + '], "tail": "0", "threshold": 19}]}, "ideal_part_in_ideal": true}\n')


LARGE_F_EXPR = "T(31)*T*(37)*T(31) - 2*T*(31)*T(37) + 1/2*I"


GOLDENS = [
    ("morphism_s35_z_len7", 1, ("morphism", "--from", "3,5", "--to", "1", "--max-len", "7")),
    ("morphism_s345_s23_len5", 1,
     ("morphism", "--from", "3,4,5", "--to", "2,3", "--max-len", "5")),
    ("descent_s37_seed0", 0, ("check", "--suite", "descent", "--gens", "3,7", "--seed", "0")),
    ("eval_s3137_basis40", 0, ("eval", "--gens", "31,37", "--expr", LARGE_F_EXPR,
                               "--basis", "40")),
    ("split_s3137", 0, ("split", "--gens", "31,37", "--expr", LARGE_F_EXPR)),
    ("symbol_s1113_seed0", 0, ("check", "--suite", "symbol", "--gens", "11,13")),
    ("fourier_s3137_seed0", 0, ("check", "--suite", "fourier", "--gens", "31,37")),
] + [(f"{suite}_s37_seed0", 0, ("check", "--gens", "3,7", "--suite", suite, "--seed", "0"))
     for suite in ("inverse", "grading", "weakhopf", "haar", "coideal")] + [
    ("eval_s99101_basis8", 0, ("eval", "--gens", "99,101", "--expr",
                               "T*(99)*T(101)*T*(101) + 1/2*T(99)", "--basis", "8")),
    ("coproduct_s37_pairs12", 0, ("coproduct", "--gens", "3,7", "--expr",
                                  "T*(3)*T(7) - T(3)", "--pairs", "12")),
    ("norm_s37_dim40", 0, ("norm", "--gens", "3,7", "--expr",
                           "1/3*T(3)*T*(3) + 1/3*T*(3)*T(7) - 2/7*I", "--dim", "40")),
    ("shift37_s23", 0, ("check", "--gens", "2,3", "--suite", "shift37")),
    ("norms_s1", 0, ("check", "--gens", "1", "--suite", "norms")),
    ("descent_s1_seed0", 0, ("check", "--gens", "1", "--suite", "descent")),
    ("descent_s345_seed0", 0, ("check", "--gens", "3,4,5", "--suite", "descent")),
]
# Each case's id is its golden's name, so inserting a case renames no other.
# The cases that had positional ids (name-code-argvN) before keep them.
_POSITIONAL_IDS = {
    "morphism_s35_z_len7": "1-argv0", "morphism_s345_s23_len5": "1-argv1",
    "descent_s37_seed0": "0-argv2", "eval_s3137_basis40": "0-argv3",
    "split_s3137": "0-argv4", "symbol_s1113_seed0": "0-argv5",
    "fourier_s3137_seed0": "0-argv6", "inverse_s37_seed0": "0-argv7",
    "grading_s37_seed0": "0-argv8", "weakhopf_s37_seed0": "0-argv9",
    "haar_s37_seed0": "0-argv10", "coideal_s37_seed0": "0-argv11",
    "eval_s99101_basis8": "0-argv12", "coproduct_s37_pairs12": "0-argv13"}


@pytest.mark.parametrize("name, code, argv", GOLDENS, ids=[
    f"{name}-{_POSITIONAL_IDS[name]}" if name in _POSITIONAL_IDS else name
    for name, _code, _argv in GOLDENS])
def test_falsifier_and_descent_bytes(capsys, name, code, argv):
    # Every word and combination witness, every kernel dimension, the
    # operator reports and suites at F = 119 and F = 1079, the suites over
    # the exact layer's sums and products at F = 11, the members kept below
    # long masks (F = 9799) and in pair tables, and a truncation whose units
    # change the widest translation's entries, byte for byte.
    expected = (Path(__file__).parent / "reports" / f"{name}.out").read_text()
    assert run_cli(capsys, *argv) == (code, expected)


def test_nesting_limit(capsys):
    # Nesting past exprparse.MAX_NESTING exits 2 with the offset of the first
    # '(' too deep, for element and functional input alike.
    def element(depth):
        return "(" * depth + "T(2)" + ")" * depth

    def functional(depth):
        return "conv(" * depth + "haar" + ",haar)" * depth

    def run(depth):
        return (run_cli(capsys, "symbol", "--gens", "2,3", "--expr", element(depth)),
                run_cli(capsys, "convolve", "--gens", "2,3", "--functional",
                        functional(depth), "--functional", "haar", "--expr", "T(2)"))

    (code, out), (fcode, fout) = run(200)
    assert code == 0 and json.loads(out)["symbol"]["coefficients"] == [[2, "1"]]
    assert fcode == 0 and json.loads(fout)["value"] == "0"
    for depth in (201, 2000):
        (code, out), (fcode, fout) = run(depth)
        for c, o, offset in ((code, out, 200), (fcode, fout, 1004)):
            assert c == 2 and json.loads(o)["error"] == {
                "kind": "input", "offset": offset,
                "message": f"parentheses nest more than 200 deep (at byte {offset})"}


def test_eval_error_order_bytes(capsys):
    # A syntax error is reported before a generator outside the semigroup, and
    # the first such generator in the text is the one named; stdout and exit
    # code of each case, byte for byte.
    table = json.loads((Path(__file__).parent / "reports"
                        / "eval_s23_basis5_errors.json").read_text())
    for expr, code, out in table:
        assert run_cli(capsys, "eval", "--gens", "2,3", "--basis", "5",
                       "--expr", expr) == (code, out), expr


def test_flat_expressions_of_any_length(capsys):
    # A flat sum or product is a left-nested chain as long as the expression.
    code, out = run_cli(capsys, "symbol", "--gens", "1", "--expr", "+".join(["I"] * 5000))
    assert code == 0 and json.loads(out)["symbol"]["coefficients"] == [[0, "5000"]]
    code, out = run_cli(capsys, "symbol", "--gens", "2,3", "--expr", "*".join(["T(2)"] * 1000))
    assert code == 0 and json.loads(out)["symbol"]["coefficients"] == [[2000, "1"]]


def _word_text(word):
    return "*".join(f"T*({a})" if starred else f"T({a})" for a, starred in word)


def test_large_frobenius_info_symbol_split(capsys):
    # S(31,37): F = 1079 with (31-1)(37-1)/2 = 540 gaps
    code, out = run_cli(capsys, "info", "--gens", "31,37")
    assert code == 0
    doc = json.loads(out)
    assert doc["frobenius"] == 1079 and len(doc["gaps"]) == 540
    assert doc["totally_ordered"] is False

    # a word's symbol is the character at its index sum
    words = [((31, False), (37, True)),
             ((31, True), (37, False), (37, False)),
             ((37, False), (31, True), (31, True))]
    code, out = run_cli(capsys, "symbol", "--gens", "31,37",
                        "--expr", " + ".join(_word_text(w) for w in words))
    assert code == 0
    sums = sorted(sum(-a if starred else a for a, starred in w) for w in words)
    assert json.loads(out)["symbol"]["coefficients"] == [[c, "1"] for c in sums]

    # I minus a zero-index projection has symbol zero, so only the shift survives
    code, out = run_cli(capsys, "split", "--gens", "31,37",
                        "--expr", "T(31)*T*(37) + I - T*(37)*T(31)*T*(31)*T(37)")
    assert code == 0
    doc = json.loads(out)
    assert doc["symbol"]["coefficients"] == [[-6, "1"]]
    assert doc["ideal_part_in_ideal"] is True


def test_norm(capsys):
    code, out = run_cli(capsys, "norm", "--gens", "1",
                        "--expr", "T(1) + T*(1)", "--dim", "64")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["truncated_norm"] - 1.9988) < 1e-2
    assert abs(doc["symbol_sup_norm"] - 2.0) < 1e-3


def test_norm_at_the_dimension_cap(capsys):
    code, out = run_cli(capsys, "norm", "--gens", "1",
                        "--expr", "T(1) + T*(1)", "--dim", str(cli.MAX_DIM))
    assert code == 0
    value = json.loads(out)["truncated_norm"]
    assert abs(value - 2.0 * math.cos(math.pi / (cli.MAX_DIM + 1))) < 1e-12


def test_grouplike(capsys):
    code, out = run_cli(capsys, "grouplike", "--gens", "2,3", "--expr", "T(3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["group_like"] and doc["index"] == 3

    code, out = run_cli(capsys, "grouplike", "--gens", "2,3",
                        "--expr", "T(2) + T(3)")
    doc = json.loads(out)
    assert code == 0 and not doc["group_like"]


def test_haar_and_convolve(capsys):
    code, out = run_cli(capsys, "haar", "--gens", "2,3",
                        "--expr", "I - T*(3)*T(2)*T*(2)*T(3)")
    assert code == 0
    assert json.loads(out)["value"] == "1"

    code, out = run_cli(capsys, "convolve", "--gens", "2,3",
                        "--functional", "haar", "--functional", "w[0,0]",
                        "--expr", "I")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_coproduct(capsys):
    code, out = run_cli(capsys, "coproduct", "--gens", "2,3",
                        "--expr", "T(2)", "--pairs", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tensor"]) == 1
    assert doc["pair_action"][0] == [[0, 0], [[[2, 2], "1"]]]


@pytest.mark.parametrize("gens", [(2, 3), (31, 37), (99, 101)])
def test_coproduct_pair_table_matches_apply(capsys, monkeypatch, gens):
    # The table is FreeTensor.pair_images over the first N members; tensor_apply,
    # pair by pair, is its reference.  Seeded free elements stand in for the parse.
    s = NumericalSemigroup(gens)
    rng = random.Random(f"pair-table:{gens}")
    for _ in range(4):
        x = checks.random_free_element(rng, s)
        monkeypatch.setattr(cli, "parse_element", lambda _text, _s, x=x: x)
        code, out = run_cli(capsys, "coproduct", "--gens", ",".join(map(str, gens)),
                            "--expr", "I", "--pairs", "40")
        members = s.members_upto(s.element_at(39))
        expected = [[[c, d], [[list(k), str(v)] for k, v in sorted(vals.items())]]
                    for c in members for d in members
                    if (vals := tensor_apply(coproduct(x), (c, d)))]
        assert code == 0 and json.loads(out)["pair_action"] == expected


def test_morphism_exit_codes(capsys):
    code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1",
                        "--mult", "1", "--max-len", "5")
    assert code == 1
    doc = json.loads(out)
    assert doc["witness_found"]
    assert doc["results"][0]["witness"]["kind"] in ("word", "combination")

    code, out = run_cli(capsys, "morphism", "--from", "1", "--to", "1",
                        "--mult", "1", "--max-len", "5")
    assert code == 0
    assert not json.loads(out)["witness_found"]


def test_morphism_word_witness(capsys):
    code, out = run_cli(capsys, "morphism", "--from", "3,4,5", "--to", "2,3",
                        "--mult", "1", "--max-len", "3")
    assert code == 1
    witness = json.loads(out)["results"][0]["witness"]
    assert witness["kind"] == "word"
    assert witness["left"] == [["1", [[3, False], [3, True], [5, False]]]]


def test_morphism_scan_all_multipliers(capsys):
    code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1",
                        "--max-len", "6")
    assert code == 1
    doc = json.loads(out)
    by_mult = {e["multiplier"]: e for e in doc["results"]}
    assert sorted(by_mult) == list(range(7))
    assert by_mult[0]["trivial"] and by_mult[0]["witness"] is None
    assert all(by_mult[m]["witness"] is not None for m in range(1, 7))


def test_check_suite_exit_code(capsys):
    code, out = run_cli(capsys, "check", "--gens", "2,3", "--suite", "shift37")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and all(r["pass"] for r in doc["reports"])


def test_all_suites_at_frobenius_1079(capsys):
    code, out = run_cli(capsys, "check", "--gens", "31,37", "--suite", "all", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and all(r["pass"] for r in doc["reports"])


def test_parser_is_built_once_and_reused(capsys):
    # One process answering several commands, usage errors among them, gives
    # the replies of a freshly built parser for each.
    requests = [
        ("convolve", "--gens", "2,3", "--functional", "haar", "--functional", "pm(1/3)",
         "--expr", "T(2) + 2*T*(3)"),
        ("convolve", "--gens", "2,3", "--functional", "w[2,0]", "--functional", "w[2,0]",
         "--expr", "T(2) + 2*T*(3)"),
        ("convolve", "--gens", "2,3", "--functional", "haar", "--expr", "T(2)"),
        ("eval", "--gens", "2,3"),
        ("info", "--gens", "3,5"),
        ("convolve", "--gens", "2,3", "--functional", "pm(1/2)", "--functional", "haar",
         "--expr", "T*(3)"),
    ]
    reused = [run_cli(capsys, *argv) for argv in requests]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in requests:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _out in reused] == [0, 0, 2, 2, 0, 0]
    assert json.loads(reused[0][1])["value"] != json.loads(reused[1][1])["value"]


def test_usage_errors(capsys):
    code, out = run_cli(capsys, "info", "--gens", "2,4")
    assert code == 2
    assert "error" in json.loads(out)

    code, out = run_cli(capsys, "eval", "--gens", "2,3", "--expr", "T(1)")
    assert code == 2

    code, out = run_cli(capsys, "eval", "--gens", "2,3", "--expr", "T(2) +")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"

    # Command lines argparse rejects give the JSON error too; stderr keeps
    # argparse's usage lines.
    for argv, message in (
            (("norm", "--gens", "2,3", "--expr", "T(2)", "--dim", "abc"),
             "argument --dim: invalid int value: 'abc'"),
            (("norm", "--gens", "2,3", "--dim", "4"),
             "the following arguments are required: --expr"),
            (("check", "--gens", "2,3", "--suite", "nope"),
             "argument --suite: invalid choice: 'nope' (choose from "),
            (("frobenius", "--gens", "2,3"),
             "argument command: invalid choice: 'frobenius' (choose from ")):
        code = main(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (code, doc["schema"], set(doc["error"])) == (2, cli.SCHEMA, {"kind", "message"})
        assert doc["error"]["kind"] == "usage"
        assert doc["error"]["message"].startswith(message), argv
        assert captured.out.endswith("}\n")
        assert captured.err.startswith("usage: sg")
        assert f"error: {message}" in captured.err


def test_help_exits_zero_with_usage(capsys):
    for argv in (("--help",), ("norm", "--help")):
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: sg") and not captured.err


def test_word_length_must_be_positive(capsys):
    for length in ("0", "-3"):
        code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1",
                            "--max-len", length)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == "input"
        assert "--max-len" in doc["error"]["message"]


def test_table_sizes_must_be_non_negative(capsys):
    for argv in (("eval", "--gens", "2,3", "--expr", "T(2)", "--basis", "-1"),
                 ("coproduct", "--gens", "2,3", "--expr", "T(2)", "--pairs", "-1")):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == "input"
        assert argv[-2] in doc["error"]["message"]


def test_norm_dimension_is_bounded(capsys, monkeypatch):
    # Out-of-range sizes are rejected before any matrix is built.
    def no_truncate(*args):
        raise AssertionError("truncate reached")
    monkeypatch.setattr("sgalg.cli.truncate", no_truncate)
    for dim in ("2049", "10000000000", "0", "-4"):
        code, out = run_cli(capsys, "norm", "--gens", "1", "--expr", "T(1)",
                            "--dim", dim)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == "input"
        assert "--dim" in doc["error"]["message"]


def _refuse(*args, **kwargs):
    raise AssertionError("reached past the size check")


@pytest.mark.parametrize("flag, argv, guarded", [
    ("--gens", ("split", "--gens", "1000,1001", "--expr", "T(1000)"),
     "sgalg.cli.NumericalSemigroup"),
    ("--from", ("morphism", "--from", "2,500001", "--to", "1"),
     "sgalg.cli.NumericalSemigroup"),
    ("--to", ("morphism", "--from", "1", "--to", "1000,1001"),
     "sgalg.cli.morphism_report"),
    ("--max-len", ("morphism", "--from", "2,3", "--to", "1", "--max-len", "9"),
     "sgalg.cli.morphism_report"),
    ("--basis", ("eval", "--gens", "2,3", "--expr", "T(2)", "--basis", "4097"),
     "sgalg.cli._gens"),
    ("--pairs", ("coproduct", "--gens", "2,3", "--expr", "T(2)", "--pairs", "257"),
     "sgalg.cli._gens"),
])
def test_sizes_are_bounded(capsys, monkeypatch, flag, argv, guarded):
    # Each size past its limit is rejected before the work it would size.
    monkeypatch.setattr(guarded, _refuse)
    code, out = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"
    assert flag in doc["error"]["message"]


def test_expression_letters_are_bounded(capsys, monkeypatch):
    # A letter past the budget never reaches elementary: T*(a) alone would
    # shift the gap mask by a bits.
    monkeypatch.setattr("sgalg.exprparse.elementary", _refuse)
    for expr in ("T*(999999999999)", "T(10000000000) + T*(1000001)"):
        code, out = run_cli(capsys, "eval", "--gens", "2,3", "--expr", expr, "--basis", "3")
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "input", "message": "the letters sum to more than 1000000", "offset": None}


def test_word_length_bound_follows_the_source():
    # Sum of (2k)^l over l <= L: 87,380 words at L=8 over S(2,3), 65,534 at
    # L=15 over Z, and one more letter passes 100,000 in both.
    assert cli._max_word_len(NumericalSemigroup([2, 3])) == 8
    assert cli._max_word_len(NumericalSemigroup([1])) == 15
    assert cli._max_word_len(NumericalSemigroup([3, 5, 7])) == 6


def test_scalars_past_the_float_range_are_input_errors(capsys):
    # A 401-digit scalar is exact until the float layer converts it.  A point
    # mass's angle never is (see the test below), so its coefficient is used.
    big = "1" + "0" * 400
    for argv in (("norm", "--gens", "1", "--expr", f"{big}*T(1)", "--dim", "4"),
                 ("convolve", "--gens", "2,3", "--functional", f"lin({big}*pm(1/3))",
                  "--functional", "haar", "--expr", "T(2)")):
        code = main(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (code, doc["schema"], doc["error"]["kind"]) == (2, cli.SCHEMA, "input"), argv
        assert "too large" in doc["error"]["message"]
        assert captured.out.endswith("}\n") and captured.err.startswith("error: ")


def test_multiplier_is_bounded_by_the_letter_budget(capsys):
    # m * max-len * 3 over S(2,3): 55,555 * 6 * 3 is within 1,000,000, one more is not.
    code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1", "--mult", "55555")
    assert code in (0, 1) and "error" not in json.loads(out)
    for mult in ("55556", "1" + "0" * 400):
        code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1", "--mult", mult)
        assert code == 2
        assert json.loads(out)["error"]["message"].startswith("--mult * --max-len * 3 must be")


def test_multiplier_is_checked_on_its_own_generator_images(capsys, monkeypatch):
    # --mult is admissible when m*g is in the target for each source generator g:
    # no list of the multipliers up to m is built to test membership in it.
    def unreachable(*args):
        raise AssertionError("morphism_multipliers called for a given --mult")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sgalg" and hasattr(module, "morphism_multipliers"):
            monkeypatch.setattr(module, "morphism_multipliers", unreachable)
    code, out = run_cli(capsys, "morphism", "--from", "2,3", "--to", "1",
                        "--mult", "333333", "--max-len", "1")
    doc = json.loads(out)
    assert code in (0, 1) and [r["multiplier"] for r in doc["results"]] == [333333]
    for mult in ("1", "-2"):
        code, out = run_cli(capsys, "morphism", "--from", "1", "--to", "2,3", "--mult", mult)
        assert code == 2
        assert json.loads(out)["error"]["message"] == f"{mult} is not a morphism multiplier here"


def test_point_mass_angles_are_exact_turns(capsys):
    # 10^400/3 turns is 1/3 turn past a whole number of turns: the phase is
    # reduced on the integers, so the value is pm(1/3)'s to the last bit.
    big = "1" + "0" * 400
    values = []
    for turns in (f"{big}/3", "1/3"):
        code, out = run_cli(capsys, "convolve", "--gens", "2,3", "--functional", f"pm({turns})",
                            "--functional", "haar", "--expr", "T(2) + T*(3)*T(2)*T(3)")
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values[0] == values[1]


def test_fourier_suite_passes_at_large_indices(capsys):
    # The corpus over S(313,317) reaches index 1,260: the circle action holds
    # to 1e-12 because each phase reduces c*t modulo one turn exactly.
    code, out = run_cli(capsys, "check", "--gens", "313,317", "--suite", "fourier")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert [r["tolerance"] for r in doc["reports"]] == [1e-9, 1e-12, 1e-12, 1e-9]


def test_only_ascii_digits_are_numbers(capsys):
    # "²" is a digit to str.isdigit but not to int(): a syntax error at its offset.
    code, out = run_cli(capsys, "eval", "--gens", "2,3", "--expr", "T(²)")
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "input", "offset": 2, "message": "unexpected character '²' (at byte 2)"}
