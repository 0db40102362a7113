"""Sec. 4.3 — linear complexity of NeuroSelect inference.

The paper argues a full HGT forward pass costs O(|E| + |V1|): message
passing touches each edge once and linear attention is linear in the
number of variable nodes (no N x N matrix).  We time single inferences
across a geometric size sweep and assert near-linear growth: the fitted
log-log slope of time vs. (|E| + |V1|) must stay well below 2 (the
slope a quadratic-attention model would show).

Timings run with numpy's BLAS pinned to one thread, as the solve
service runs it (:func:`repro.nn.blas.single_threaded`, process-wide),
and keep the fastest of ``REPEATS`` passes: helper threads and the
mean of a few passes both let host noise outweigh the size effect.
"""

import time

import numpy as np

from conftest import save_result

from repro.bench.tables import format_dict_table
from repro.cnf import random_ksat
from repro.graph import BipartiteGraph
from repro.models import NeuroSelect
from repro.nn.blas import single_threaded

SIZES = [200, 400, 800, 1600, 3200]
REPEATS = 3


def measure_scaling():
    single_threaded()
    model = NeuroSelect(hidden_dim=16, seed=0)
    rows = []
    for n in SIZES:
        cnf = random_ksat(n, int(4.2 * n), seed=1)
        graph = BipartiteGraph(cnf)
        model.predict_proba(graph)  # warm-up (allocator, caches)
        elapsed = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            model.predict_proba(graph)
            elapsed = min(elapsed, time.perf_counter() - start)
        rows.append(
            {
                "variables": n,
                "edges+vars": graph.num_edges + graph.num_vars,
                "inference (ms)": round(1000 * elapsed, 2),
            }
        )
    return rows


def test_complexity_scaling(benchmark):
    rows = benchmark.pedantic(measure_scaling, rounds=1, iterations=1)

    sizes = np.array([r["edges+vars"] for r in rows], dtype=float)
    times = np.array([r["inference (ms)"] for r in rows], dtype=float)
    slope = np.polyfit(np.log(sizes), np.log(np.maximum(times, 1e-6)), 1)[0]

    text = format_dict_table(rows) + f"\nlog-log slope: {slope:.2f} (1.0 = linear)"
    save_result("complexity_scaling", text)

    # Paper claim: linear in |E| + |V1|.  Allow constant-factor noise at
    # the small end but reject anything resembling quadratic scaling.
    assert slope < 1.5, f"inference should scale ~linearly, got slope {slope:.2f}"
    # 16x more graph must not cost 100x more time.
    assert times[-1] < 120 * max(times[0], 1e-3)
