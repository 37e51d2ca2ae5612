"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _child(*flags: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", "oneshot",
                           "--seed", "11", *flags],
                          capture_output=True, text=True, check=True, timeout=170,
                          env=dict(os.environ, **run.CHILD_ENV))
    return json.loads(proc.stdout.splitlines()[-1])


def _reply(argv) -> tuple[int, str]:
    from sgalg import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _corrupt(reply, edit) -> tuple[int, str]:
    code, out = reply
    doc = json.loads(out)
    edit(doc)
    return code, json.dumps(doc)


def _reasons(workload, requests, replies):
    return workloads.check_replies(workload, requests, replies)[0]


def test_traced_and_untraced_replies_are_identical():
    plain = _child()
    traced = _child("--trace")
    assert plain["digests"] == traced["digests"]
    assert plain["reasons"] == traced["reasons"] == [None] * len(plain["digests"])
    assert plain["layers"] is None
    assert traced["layers"]["cli.main.calls"] == len(plain["digests"])
    assert traced["layers"]["exprparse.parse_element.calls"] > 0


def test_traced_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    emitted = set(tracing.metric_names())
    emitted |= {("bench.traced_wall_s", "s", "lower"), ("bench.trace_overhead_s", "s", "lower")}
    assert declared == emitted


def test_seed_fixes_the_request_list():
    for name in workloads.WORKLOADS:
        assert workloads.requests_for(name, 4) == workloads.requests_for(name, 4)
    assert workloads.requests_for("oneshot", 4) != workloads.requests_for("oneshot", 5)


def test_checker_counts_corrupted_oneshot_replies():
    requests = workloads.requests_for("oneshot", 3)
    picked = {}
    for req in requests:
        picked.setdefault(req["meta"]["command"], req)
    reqs = list(picked.values())
    replies = [_reply(r["argv"]) for r in reqs]
    assert _reasons("oneshot", reqs, replies) == [None] * len(reqs)

    def bad_basis(doc):
        doc["basis_action"][0][1] = [[doc["basis_action"][0][0], "7"]]

    def bad_symbol(doc):
        doc["symbol"]["coefficients"].append([999, "1"])

    def bad_frobenius(doc):
        doc["frobenius"] += 1

    def bad_grouplike(doc):
        doc["group_like"] = not doc["group_like"]

    def bad_pairs(doc):
        doc["pair_action"].append([[0, 0], [[[0, 0], "7"]]])

    def bad_value(doc):
        doc["value"] = {"re": 9.0, "im": 9.0}

    edits = {"eval": bad_basis, "symbol": bad_symbol, "split": bad_symbol,
             "info": bad_frobenius, "grouplike": bad_grouplike,
             "coproduct": bad_pairs, "haar": bad_value, "convolve": bad_value}
    assert set(edits) == set(workloads.ONESHOT_COMMANDS)
    for i, req in enumerate(reqs):
        edit = edits[req["meta"]["command"]]
        corrupted = list(replies)
        corrupted[i] = _corrupt(replies[i], edit)
        reasons = _reasons("oneshot", reqs, corrupted)
        assert reasons[i] is not None
        assert sum(r is not None for r in reasons) == 1
    assert _reasons("oneshot", reqs[:1], [None]) == ["raised"]


def test_checker_counts_corrupted_suite_falsifier_and_norm_replies():
    suite = {"argv": ["check", "--gens", "2,3", "--suite", "order", "--seed", "1"],
             "meta": {"gens": [2, 3], "suite": "order"}}
    reply = _reply(suite["argv"])
    assert _reasons("suites", [suite], [reply]) == [None]

    def fail_report(doc):
        doc["reports"][0]["pass"] = False
    assert _reasons("suites", [suite], [_corrupt(reply, fail_report)])[0] is not None

    scan = {"argv": ["morphism", "--from", "2,3", "--to", "1", "--max-len", "5"],
            "meta": {"source": [2, 3], "scan": True, "max_len": 5}}
    reply = _reply(scan["argv"])
    assert _reasons("falsifier", [scan], [reply]) == [None]

    def survive(doc):
        doc["results"][3].update(witness=None, consistent_up_to=5)
    assert _reasons("falsifier", [scan], [_corrupt(reply, survive)])[0] is not None

    norms = [{"argv": ["norm", "--gens", "2,3", "--expr", "T*(2)*T(3) + T*(3)*T(2)",
                       "--dim", str(n)],
              "meta": {"gens": [2, 3], "symbol": 0, "dim": n}} for n in (64, 128)]
    replies = [_reply(r["argv"]) for r in norms]
    reasons, extra = workloads.check_replies("norms", norms, replies)
    assert reasons == [None, None] and 0.0 < extra["norm_err_max"] < 1e-5

    def drop(doc):
        doc["truncated_norm"] -= 0.01
    corrupted = [replies[0], _corrupt(replies[1], drop)]
    assert _reasons("norms", norms, corrupted) == ["norm sequence not monotone"] * 2
