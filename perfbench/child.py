"""One pass of a workload in a fresh process, as one ``sg`` user would see it.

The pass imports sgalg from the checkout's ``src``, builds the workload's
request list from the seed, then sends the requests one at a time to
``sgalg.cli.main`` (one closed-loop client) and times each reply.  Replies
are checked after the timed loop.  The result is one JSON line on stdout.

    python3 perfbench/child.py --workload falsifier --seed 3 [--trace] [--probe]

``--probe`` stops once the first request could be sent, so that set-up time
can be sampled cheaply.  ``--trace`` wraps the layers first (see tracing.py)
and ``--spans PATH`` writes the spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import workloads
    from sgalg import cli

    requests = workloads.requests_for(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    replies, latencies, errors = [], [], {}
    first = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(req["argv"])
            reply = (code, out.getvalue())
        except Exception as exc:  # a request that raises is a failed reply
            reply = None
            errors[i] = repr(exc)
        latencies.append(time.perf_counter() - t0)
        replies.append(reply)
    wall = time.perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        if args.spans:
            tracer.save(args.spans)
    reasons, extra = workloads.check_replies(args.workload, requests, replies)
    for i, err in errors.items():
        reasons[i] = f"raised {err}"
    digests = [None if r is None else hashlib.sha256(f"{r[0]}\n{r[1]}".encode()).hexdigest()
               for r in replies]
    print(json.dumps({"ready": ready, "wall_s": wall, "latencies_s": latencies,
                      "rss_mb": rss_mb, "reasons": reasons, "digests": digests,
                      "extra": extra, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
