#!/usr/bin/env python
"""Service smoke check: amortized inference, correct answers, clean trace.

The CI ``service-smoke`` job (and ``make serve-smoke``) runs this
script.  It starts a real ``repro serve`` process, fires a concurrent
burst of solve requests at it, and asserts the service's load-bearing
claims:

1. every response matches a direct in-process solve of the same
   (formula, policy, budget) — the service changes *where* solving
   happens, never the answer;
2. ``GET /metrics`` (the registry is on: the service is traced) names
   every Prometheus family exactly once;
3. the burst costs strictly fewer HGT forward passes than requests,
   with at least one batch > 1 — read from the ``serve.batch_size``
   histogram in the traced run, not from the service's own say-so;
4. the SIGINT drain exits 0 and the emitted trace passes the event
   schema.

Exit code 0 on success; any failed assertion prints the evidence and
exits 1.
"""

import asyncio
import json
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.cnf import random_ksat, to_dimacs
from repro.obs import read_trace, validate_traces
from repro.policies import get_policy
from repro.serve import ServeClient
from repro.solver import Solver

BURST = 8
BUDGET = 20_000


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


async def run_burst(port: int, cnfs):
    """The burst's replies, then the service's ``/metrics`` text."""
    client = ServeClient("127.0.0.1", port)
    await client.wait_ready(timeout=30.0)
    replies = await asyncio.gather(*[
        client.solve(to_dimacs(cnf), max_conflicts=BUDGET) for cnf in cnfs
    ])
    return replies, (await client.metrics_text()).text


def main() -> None:
    trace_dir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-batch", str(BURST),
         "--hidden-dim", "8", "--trace", str(trace_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            proc.kill()
            fail(f"no listen banner: {banner!r} / {proc.stdout.read()}")
        port = int(match.group(1))
        print(f"service up on port {port}")

        cnfs = [random_ksat(12 + i, 4 * (12 + i), seed=i)
                for i in range(BURST)]
        replies, exposition = asyncio.run(run_burst(port, cnfs))

        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        print(out)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        fail(f"serve exited {proc.returncode}")

    # 1. Responses match direct solves.
    for cnf, reply in zip(cnfs, replies):
        if reply.code != 200:
            fail(f"unexpected HTTP {reply.code}: {reply.json}")
        body = reply.json
        direct = Solver(
            cnf,
            policy=get_policy(body["policy"]),
        ).solve(max_conflicts=BUDGET)
        if body["status"] != direct.status.value:
            fail(f"status mismatch: served {body['status']}, "
                 f"direct {direct.status.value}")
        if body["propagations"] != direct.stats.propagations:
            fail(f"effort mismatch: served {body['propagations']} props, "
                 f"direct {direct.stats.propagations}")
    print(f"all {BURST} responses match direct solves")

    # 2. One Prometheus family per fact.
    families = re.findall(r"^# TYPE (\S+) ", exposition, re.MULTILINE)
    duplicated = sorted({n for n in families if families.count(n) > 1})
    if duplicated:
        fail(f"/metrics repeats families: {', '.join(duplicated)}")
    if "serve_batch_size" not in families:
        fail("/metrics lacks the registry's serve_batch_size histogram")
    print(f"/metrics: {len(families)} families, none repeated")

    # 3. Amortization, from the trace's metric snapshot.
    traces = sorted(trace_dir.glob("serve-*.jsonl"))
    if not traces:
        fail(f"no trace written in {trace_dir}")
    errors = validate_traces(traces)
    if errors:
        fail("trace schema violations: " + "; ".join(errors))
    events, _ = read_trace(traces[0])
    run_end = next(e for e in events if e["event"] == "run-end")
    histogram = run_end["metrics"]["histograms"].get("serve.batch_size")
    if not histogram:
        fail("serve.batch_size histogram missing from the run metrics")
    passes, biggest = histogram["count"], histogram["max"]
    print(f"serve.batch_size: {passes} forward pass(es), "
          f"largest batch {biggest:g} "
          f"(burst of {BURST})")
    if passes >= BURST:
        fail(f"no amortization: {passes} passes for {BURST} requests")
    if biggest <= 1:
        fail("no batch larger than 1 was recorded")

    print("service smoke: OK")
    print(json.dumps({"requests": BURST, "passes": passes,
                      "max_batch": biggest}))


if __name__ == "__main__":
    main()
