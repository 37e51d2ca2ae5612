import json

import pytest

from sgalg import cli
from sgalg.cli import main
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


def test_word_length_bound_follows_the_source():
    # Sum of (2k)^l over l <= L: 87,380 words at L=8 over S(2,3), 65,534 at
    # L=15 over Z, and one more letter passes 100,000 in both.
    assert cli._max_word_len(NumericalSemigroup([2, 3])) == 8
    assert cli._max_word_len(NumericalSemigroup([1])) == 15
    assert cli._max_word_len(NumericalSemigroup([3, 5, 7])) == 6
