"""qdlab benchmark: run one workload and print its metrics, last line JSON.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py          # every workload on the default and held-out seed

Run from the root of a source checkout; qdlab is imported from ``src``.
Each workload runs in fresh child processes (``child.py``), one at a time,
with ``QDLAB_WORKERS`` removed from their environment.  ``--trace 0`` starts
children of one timed pass each until ``--seconds`` of passes are done (at
least three), and reports the end-to-end metrics: the median pass wall time,
the median set-up time, the peak resident memory and the share of operations
that passed their correctness gates.  ``--trace 1`` starts one child that
alternates untraced and traced passes for ``--seconds`` and reports the
per-layer metrics.  Details (every pass, gate and the provenance) go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS  # noqa: E402  (needs HERE on the path)

WORKLOADS = ("transport", "large", "norms")
DEFAULT_SEED, HELD_OUT_SEED = 0, 1
DEFAULT_SECONDS = 30
MIN_CHILDREN = 3  # set-up time is the median over the children
DEADLINE_S = 170.0  # a run must end well inside 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "verified_frac": "1",
}


class ChildFailed(RuntimeError):
    pass


def git_state() -> dict:
    """sha and dirty flag when ROOT is a git work tree, else nulls (git is not run)."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def run_child(workload: str, seed: int, budget: float, trace: bool, oracle: bool,
              deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("QDLAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
             "--budget", repr(budget), "--trace", str(int(trace)), "--oracle", str(int(oracle)),
             "--spawned", repr(spawned), "--workdir", str(workdir)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child passed the {DEADLINE_S:.0f} s deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Start the children of one run and reduce them to the result object."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        children = [run_child(workload, seed, seconds, True, True, deadline)]
    else:
        # One pass per child, so that process-to-process variation (memory
        # placement, huge pages, BLAS thread state) is averaged by the median.
        children, timed = [], 0.0
        while len(children) < MIN_CHILDREN or timed + statistics.median(walls) <= seconds:
            children.append(run_child(workload, seed, 0.0, False, not children, deadline))
            walls = [p["wall_s"] for c in children for p in c["passes"]]
            timed = sum(walls)
    gates = [g for c in children for g in c["gates"]]
    failed = sum(not g["ok"] for g in gates)
    passes = [p for c in children for p in c["passes"]]
    if trace:
        metrics = {name: {"value": children[0]["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": max(c["maxrss_mib"] for c in children),
            "verified_frac": (len(gates) - failed) / len(gates),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git": git_state(),
        "provenance": children[0]["provenance"],
        "failed_frac": failed / len(gates),
        "children": children,
        "metrics": metrics,
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    return {"correct": failed == 0, "attempted": len(gates), "failed": failed, "metrics": metrics,
            "details": details}


def summary_lines(result: dict) -> list[str]:
    d = result["details"]
    lines = [f"# {d['workload']} seed={d['seed']} trace={d['trace']} "
             f"git={d['git']['sha']} dirty={d['git']['dirty']} provenance={json.dumps(d['provenance'])}"]
    passes = [p for c in d["children"] for p in c["passes"]]
    lines.append(f"#   passes={len(passes)} wall_s=" + ",".join(f"{p['wall_s']:.3f}" for p in passes)
                 + " cpu_s=" + ",".join(f"{p['cpu_s']:.3f}" for p in passes))
    for g in (g for c in d["children"] for g in c["gates"]):
        if not g["ok"]:
            lines.append(f"#   FAILED {g['op']}: {g['detail']}")
    lines.append(f"#   failed_frac={d['failed_frac']:.6g} (1) attempted={result['attempted']}")
    for name, m in result["metrics"].items():
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.trace and not args.workload:
        parser.error("--trace 1 needs --workload")
    if not (ROOT / "src" / "qdlab" / "__init__.py").is_file():
        print(f"no qdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(result)))
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0

        # Every workload on the default and the held-out seed.
        table = [f"{'workload':<10} {'seed':>4} " + " ".join(f"{f'{k} ({u})':>18}" for k, u in
                 [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("failed_frac", "1")])]
        results = []
        for workload in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                r = run_workload(workload, seed, args.seconds, False)
                results.append(r)
                print("\n".join(summary_lines(r)), flush=True)
                m = r["metrics"]
                table.append(f"{workload:<10} {seed:>4} " + " ".join(f"{v:>18.6g}" for v in (
                    m["wall_s"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"],
                    r["details"]["failed_frac"])))
        print("\n".join(table))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {
            f"{r['details']['workload']}.seed{r['details']['seed']}.{k}": m
            for r in results for k, m in r["metrics"].items()}}))
        return 0 if failed == 0 else 1
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
