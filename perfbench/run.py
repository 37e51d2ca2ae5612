"""The sgalg benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload suites --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Every pass of a workload is a fresh process (child.py) that imports sgalg and
sends the workload's request list to ``sgalg.cli.main``, one closed-loop
client, so module-level caches start cold as they do for a real ``sg`` call.
Passes repeat while another one fits in ``--seconds``; at least one runs.
Extra probe processes sample set-up time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes (one untraced pass runs
first, to measure the tracing overhead).  The line before it gives the failure
fraction and the workload-specific figures (``req_p90_ms`` where a run has at
least 100 requests, ``norm_err_max`` on ``norms``).  The run exits non-zero
without a result when a pass cannot run at all, e.g. without ``src/sgalg``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples per run come from the passes and from this many probes.
SETUP_PROBES = 6
# Every run must end well within three minutes.
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread, so the norm workload does not depend on what else runs.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.env = dict(os.environ, **CHILD_ENV)

    def child(self, *flags: str) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass did not end within {remaining:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass failed with exit code {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - spawned
        result["process_s"] = time.monotonic() - spawned
        return result

    def passes(self, traced: bool) -> list[dict]:
        """Passes while another one fits in the run's seconds; at least one."""
        begin = time.monotonic()
        out = []
        while True:
            flags = []
            if traced:
                OUT_DIR.mkdir(exist_ok=True)
                flags = ["--trace", "--spans", str(
                    OUT_DIR / f"spans-{self.workload}-pass{len(out)}.npz")]
            out.append(self.child(*flags))
            elapsed = time.monotonic() - begin
            if elapsed + out[-1]["process_s"] > self.seconds:
                return out

    def probes(self, count: int) -> list[float]:
        return [self.child("--probe")["setup_s"] for _ in range(count)]


def _summary(workload: str, seed: int, runs: list[dict]) -> dict:
    latencies = [x for r in runs for x in r["latencies_s"]]
    failures = [why for r in runs for why in r["reasons"] if why is not None]
    detail = {"workload": workload, "seed": seed, "passes": len(runs),
              "requests_per_pass": len(runs[0]["latencies_s"]),
              "attempted": len(latencies), "failed": len(failures),
              "fail_frac": len(failures) / len(latencies),
              "failures": failures[:5]}
    if len(latencies) >= 100:
        detail["req_p90_ms"] = 1000.0 * statistics.quantiles(latencies, n=10)[-1]
    for key in runs[0]["extra"]:
        detail[key] = max(r["extra"][key] for r in runs)
    return detail


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    runner = Runner(workload, seed, seconds)
    # Probes before and after the passes, so that the samples do not all fall
    # in one moment of a machine whose speed drifts over seconds.
    setups = runner.probes(SETUP_PROBES // 2)
    runs = runner.passes(traced=False)
    setups += runner.probes(SETUP_PROBES - SETUP_PROBES // 2) + [r["setup_s"] for r in runs]
    latencies = [x for r in runs for x in r["latencies_s"]]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in runs), "s"),
        "req_p50_ms": _metric(1000.0 * statistics.median(latencies), "ms"),
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in runs), "MB"),
    }
    return _summary(workload, seed, runs), metrics


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from tracing import metric_names
    runner = Runner(workload, seed, seconds)
    plain = runner.child()
    traced = runner.passes(traced=True)
    for r in traced:
        if r["digests"] != plain["digests"]:
            raise BenchError("traced replies differ from untraced replies")
    metrics = {name: _metric(statistics.median(r["layers"][name] for r in traced), unit)
               for name, unit, _better in metric_names()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["bench.traced_wall_s"] = _metric(traced_wall, "s")
    metrics["bench.trace_overhead_s"] = _metric(traced_wall - plain["wall_s"], "s")
    return _summary(workload, seed, [plain] + traced), metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "sgalg" / "__init__.py").is_file():
        raise BenchError(f"no sgalg sources under {ROOT / 'src'}")
    return (run_traced if trace else run_end_to_end)(workload, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    try:
        for name in names:
            detail, metrics = run(name, args.seed, args.seconds, bool(args.trace))
            failed = detail["failed"]
            all_correct &= failed == 0
            if args.workload == "all":
                shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                  for k, m in metrics.items())
                print(f"{name:10s} {shown}  fail_frac={detail['fail_frac']:.3g}"
                      + "".join(f"  {k}={detail[k]:.6g}"
                                for k in ("req_p90_ms", "norm_err_max") if k in detail))
                continue
            print(json.dumps(detail))
            print(json.dumps({"correct": failed == 0,
                              "attempted": detail["attempted"],
                              "failed": failed, "metrics": metrics}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
