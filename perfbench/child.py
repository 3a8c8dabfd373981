"""One workload process: set up, run timed passes, check them, print one JSON line.

Started by run.py with ``QDLAB_WORKERS`` removed from its environment and
``src`` on its path; not meant to be run by hand.  Set-up time runs from the
moment run.py spawned this process (``--spawned``, a CLOCK_MONOTONIC
reading) to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    from qdlab.harness import worker_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "worker_count": worker_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--oracle", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import qdlab

    if not Path(qdlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qdlab imported from {qdlab.__file__}, not from this checkout", file=sys.stderr)
        return 3

    import layers
    import spans
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(layers.targets())
    warm_up(args.workdir / "warmup")
    if tracer:
        tracer.uninstall()
        warm = layers.layer_metrics(tracer.spans, tracer.counters)
    setup_s = time.monotonic() - args.spawned

    passes, outputs, traced_layers = [], [], []
    timed = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passdir = args.workdir / f"pass{len(passes)}"
        if traced:
            tracer.reset()
            tracer.install(layers.targets())
        cpu0, t0 = time.process_time(), time.perf_counter()
        outputs.append(workload.run_pass(inputs, passdir))
        t1, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
            row = layers.pass_or_warm_up(layers.layer_metrics(tracer.spans, tracer.counters), warm)
            row["trace.outside_top_share"] = 1.0 - spans.top_level_covered(tracer.spans, t0, t1) / (t1 - t0)
            traced_layers.append(row)
        passes.append({"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "traced": traced})
        timed += t1 - t0
        enough = len(passes) >= (2 if tracer else 1)
        if enough and timed + statistics.median(p["wall_s"] for p in passes) > args.budget:
            break
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gates = []
    for out in outputs:
        gates += workload.check(inputs, out)
    if args.oracle and hasattr(workload, "oracle"):
        gates += workload.oracle(inputs, outputs[0])

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "maxrss_mib": maxrss_mib,
        "gates": gates,
        "provenance": provenance(args.seed),
    }
    if tracer:
        layer = {k: statistics.median(row[k] for row in traced_layers) for k in traced_layers[0]}
        layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes if p["traced"])
            - statistics.median(p["wall_s"] for p in passes if not p["traced"])
        )
        result["layers"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
