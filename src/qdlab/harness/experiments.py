"""Experiment registry: named runs binding configs to the library operations.

Each registry entry declares its parameter schema (used by config parsing)
and a runner that writes CSV tables through an :class:`OutputSink` confined
to the configured output directory.  Runners derive all randomness from
explicit seeds in the config, so a config hash pins the output bytes; the
worker count (``QDLAB_WORKERS``) changes scheduling only, never results.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from qdlab import __version__
from qdlab.lattice import HamiltonianSpec, TorusGrid
from qdlab import propagation, diffusion, random_matrix
from .config import (
    ConfigError,
    ExperimentConfig,
    Param,
    at_least,
    config_hash,
    parse_config,
    positive,
    nonnegative,
)
from .tables import ResultTable, emit_table

__all__ = [
    "ExperimentDef",
    "EXPERIMENTS",
    "RunManifest",
    "load_config",
    "run_experiment",
    "worker_count",
]

WORKERS_ENV = "QDLAB_WORKERS"


def worker_count() -> int:
    """Worker pool size; the only environment variable the runner reads."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_ordered(fn: Callable, items: Sequence) -> list:
    """Apply fn over items, preserving order regardless of scheduling."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


class StageTimer:
    """Wall-clock accounting per named stage."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + (
                time.perf_counter() - start
            )


class OutputSink:
    """Confines all experiment writes to one declared directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.files: list[str] = []

    def write_table(self, table: ResultTable, filename: str) -> None:
        if Path(filename).name != filename:
            raise ValueError(f"output file name must be bare, got {filename!r}")
        emit_table(table, self.root / filename)
        self.files.append(filename)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to the data files."""

    config_hash: str
    version: str
    files: tuple[str, ...]
    timings: dict[str, float]


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    description: str
    params: Sequence[Param]
    runner: Callable[[ExperimentConfig, OutputSink, StageTimer], None]


# ---------------------------------------------------------------------------
# Shared parameter groups and small helpers
# ---------------------------------------------------------------------------


def _increasing_positive(label: str):
    def check(values) -> str | None:
        if not values:
            return f"precondition violated: {label} must be non-empty"
        if values[0] <= 0 or any(b <= a for a, b in zip(values, values[1:])):
            return (
                f"precondition violated: {label} must be strictly increasing "
                f"and > 0 (got {values})"
            )
        return None

    return check


def _lattice_params(d: int, L: int, lam: float, lam_check=nonnegative("lambda")) -> list[Param]:
    return [
        Param("lattice", "d", int, d, at_least(1, "d")),
        Param("lattice", "L", int, L, at_least(2, "L")),
        Param("lattice", "lambda", float, lam, lam_check),
    ]


def _seeds_param() -> Param:
    return Param(
        "sampling",
        "seeds",
        "int_list",
        (0, 1),
        lambda v: None if len(v) > 0 else "precondition violated: seeds non-empty",
    )


def _loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def _spec_for(config: ExperimentConfig, seed: int) -> HamiltonianSpec:
    grid = TorusGrid(int(config["lattice.d"]), int(config["lattice.L"]))
    return HamiltonianSpec.sample(grid, float(config["lattice.lambda"]), seed=seed)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_figure1(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    times = config["time.t_grid"]
    seeds = config["sampling.seeds"]
    tol = float(config["time.tolerance"])

    with timer.stage("evolve"):
        records = map_ordered(
            lambda s: propagation.run_trajectory(
                _spec_for(config, s), times, tol=tol, seed=s
            ),
            seeds,
        )

    for seed, rec in zip(seeds, records):
        table = ResultTable(
            [("time", "hops"), ("msd", "sites^2"), ("mass", "1"),
             ("running_time_avg_msd", "sites^2")]
        )
        for t, m, mass, avg in zip(rec.times, rec.msd, rec.mass, rec.avg_msd):
            table.add_row(float(t), float(m), float(mass), float(avg))
        sink.write_table(table, f"trajectory_seed{int(seed)}.csv")

    msd_matrix = np.asarray([rec.msd for rec in records])
    quantiles = ResultTable(
        [("time", "hops"), ("msd_q25", "sites^2"), ("msd_median", "sites^2"),
         ("msd_q75", "sites^2")]
    )
    q25, q50, q75 = np.quantile(msd_matrix, (0.25, 0.5, 0.75), axis=0)
    for t, a, b, c in zip(times, q25, q50, q75):
        quantiles.add_row(float(t), float(a), float(b), float(c))
    sink.write_table(quantiles, "quantiles.csv")

    fit = ResultTable(
        [("seed", ""), ("beta", "1"), ("amplitude", "sites"), ("flag", "")]
    )
    betas = []
    for seed, rec in zip(seeds, records):
        radii = np.sqrt(np.asarray(rec.msd))
        slope, intercept = np.polyfit(np.log(rec.times), np.log(radii), 1)
        betas.append(float(slope))
        fit.add_row(int(seed), float(slope), float(np.exp(intercept)), "")
    fit.add_row("median", float(np.median(betas)), float("nan"),
                "amplitude-not-fitted")
    sink.write_table(fit, "fit.csv")


def _run_kinetic(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    times = config["time.t_grid"]
    seeds = config["sampling.seeds"]
    tol = float(config["time.tolerance"])

    def deviations(seed: int) -> list[float]:
        spec = _spec_for(config, seed)
        return [
            propagation.propagator_deviation(spec, t, tol=tol, seed=seed)
            for t in times
        ]

    with timer.stage("deviation"):
        rows = map_ordered(deviations, seeds)

    table = ResultTable([("seed", ""), ("t", "hops"), ("deviation", "1")])
    for seed, devs in zip(seeds, rows):
        for t, dev in zip(times, devs):
            table.add_row(int(seed), float(t), float(dev))
    sink.write_table(table, "deviation.csv")

    medians = np.median(np.asarray(rows), axis=0)
    summary = ResultTable([("t", "hops"), ("median_deviation", "1")])
    for t, med in zip(times, medians):
        summary.add_row(float(t), float(med))
    sink.write_table(summary, "median.csv")

    slope = ResultTable([("slope", "1")])
    slope.add_row(_loglog_slope(times, medians))
    sink.write_table(slope, "slope.csv")


def _run_tk(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    spec = _spec_for(config, int(config["sampling.seed"]))
    s = float(config["time.s"])
    t = float(config["time.t"])
    k_max = int(config["time.k_max"])

    with timer.stage("collision"):
        long_ops = {
            k: propagation.dyson_Tk(spec, k, s + t) for k in range(k_max + 1)
        }
        split_s = {k: propagation.dyson_Tk(spec, k, s) for k in range(k_max + 1)}
        split_t = {k: propagation.dyson_Tk(spec, k, t) for k in range(k_max + 1)}

    table = ResultTable([("k", ""), ("residual", "1")])
    for k in range(k_max + 1):
        combined = sum(split_s[j] @ split_t[k - j] for j in range(k + 1))
        residual = float(np.linalg.norm(long_ops[k] - combined, 2))
        table.add_row(k, residual)
    sink.write_table(table, "tk_residuals.csv")


def _run_theta(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    d = int(config["lattice.d"])
    lam = float(config["lattice.lambda"])
    eta = float(config["spectral.eta"])
    table = ResultTable(
        [("E", "1"), ("eta", "1"), ("re_theta", "1"), ("im_theta", "1"),
         ("residual", "1"), ("iterations", ""), ("resolution", "")]
    )
    with timer.stage("solve"):
        for energy in config["spectral.E_grid"]:
            point = diffusion.EnergyPoint(
                E=float(energy), eta=eta, lam=lam, d=d
            )
            sol = diffusion.solve_theta(point)
            table.add_row(float(energy), eta, sol.theta.real, sol.theta.imag,
                          sol.residual, sol.iterations, sol.resolution)
    sink.write_table(table, "theta.csv")


def _run_anticonc(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    d = int(config["lattice.d"])
    lam = float(config["lattice.lambda"])
    point = diffusion.EnergyPoint(
        E=float(config["spectral.E"]), eta=float(config["spectral.eta"]),
        lam=lam, d=d,
    )
    grid = TorusGrid(d, int(config["lattice.L"]))
    seed = int(config["sampling.seed"])
    n_trials = int(config["sampling.n_trials"])
    with timer.stage("kernel"):
        sol = diffusion.solve_theta(point)
        kernel = diffusion.kernel_K(point, sol.theta, grid)
        step = diffusion.step_distribution(kernel)
    table = ResultTable(
        [("n_steps", ""), ("radius", "sites"), ("probability", "1"),
         ("ci_low", "1"), ("ci_high", "1")]
    )
    with timer.stage("walk"):
        for n_steps in config["walk.n_grid"]:
            est = diffusion.anticoncentration_mc(
                step, int(n_steps), step.sigma, n_trials, seed=seed
            )
            table.add_row(int(n_steps), step.sigma, est.p, est.ci_low,
                          est.ci_high)
    sink.write_table(table, "anticonc.csv")


def _run_deloc(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    d = int(config["lattice.d"])
    grid = TorusGrid(d, int(config["lattice.L"]))
    lam = float(config["lattice.lambda"])
    z = float(config["spectral.E"]) + 1j * float(config["spectral.eta"])
    seeds = config["sampling.seeds"]
    with timer.stage("columns"):
        report = diffusion.deloc_check(
            grid, lam, z, float(config["deloc.c1"]), seeds
        )
    table = ResultTable([("seed", ""), ("exterior_fraction", "1")])
    for seed, frac in zip(seeds, report.fractions):
        table.add_row(int(seed), float(frac))
    sink.write_table(table, "deloc.csv")
    summary = ResultTable(
        [("radius", "sites"), ("q25", "1"), ("median", "1"), ("q75", "1")]
    )
    summary.add_row(report.radius, report.q25, report.median, report.q75)
    sink.write_table(summary, "summary.csv")


def _run_inequalities(config: ExperimentConfig, sink: OutputSink, timer: StageTimer):
    with timer.stage("sweep"):
        report = random_matrix.matrix_inequality_suite(
            int(config["matrix.n"]),
            int(config["sampling.n_trials"]),
            seed=int(config["sampling.seed"]),
        )
    table = ResultTable(
        [("inequality", ""), ("violations", ""), ("worst_margin", "1")]
    )
    for label in sorted(report.worst_margin):
        table.add_row(label, report.violations.get(label, 0),
                      report.worst_margin[label])
    sink.write_table(table, "inequalities.csv")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


EXPERIMENTS: dict[str, ExperimentDef] = {
    e.name: e
    for e in [
        ExperimentDef(
            "figure1",
            "spread radius of an initially localized state, with power-law fit",
            _lattice_params(2, 32, 0.2)
            + [
                Param("time", "t_grid", "float_list", (0.5, 1.0, 2.0, 3.0),
                      _increasing_positive("t_grid")),
                Param("time", "tolerance", float, 1e-8, positive("tolerance")),
                _seeds_param(),
            ],
            _run_figure1,
        ),
        ExperimentDef(
            "kinetic",
            "operator-norm deviation of the disordered from the free propagator",
            # At lambda = 0 every deviation is 0 and the log-log slope undefined.
            _lattice_params(2, 16, 0.1, positive("lambda"))
            + [
                Param("time", "t_grid", "float_list", (2.0, 4.0, 8.0),
                      _increasing_positive("t_grid")),
                Param("time", "tolerance", float, 1e-3, positive("tolerance")),
                _seeds_param(),
            ],
            _run_kinetic,
        ),
        ExperimentDef(
            "tk",
            "collision-operator split: T_k(s+t) against its compositions",
            _lattice_params(1, 8, 0.5)
            + [
                Param("time", "s", float, 0.7, positive("s")),
                Param("time", "t", float, 0.9, positive("t")),
                Param("time", "k_max", int, 3,
                      lambda v: None if 0 <= v <= 4
                      else f"must be in [0, 4] (got {v})"),
                Param("sampling", "seed", int, 0),
            ],
            _run_tk,
        ),
        ExperimentDef(
            "theta",
            "self-consistent spectral shift across an energy grid",
            [
                Param("lattice", "d", int, 2, at_least(1, "d")),
                Param("lattice", "lambda", float, 0.2, nonnegative("lambda")),
                Param("spectral", "E_grid", "float_list", (-1.0, 0.0, 1.0, 2.0)),
                Param("spectral", "eta", float, 0.1, positive("eta")),
            ],
            _run_theta,
        ),
        ExperimentDef(
            "anticonc",
            "kernel-walk anticoncentration probability versus step count",
            _lattice_params(2, 32, 0.2)
            + [
                Param("spectral", "E", float, 1.0),
                Param("spectral", "eta", float, 0.08, positive("eta")),
                Param("walk", "n_grid", "int_list", (4, 16, 64),
                      lambda v: None if all(x >= 1 for x in v)
                      else "precondition violated: n_grid entries >= 1"),
                Param("sampling", "n_trials", int, 20000, positive("n_trials")),
                Param("sampling", "seed", int, 0),
            ],
            _run_anticonc,
        ),
        ExperimentDef(
            "deloc",
            "resolvent mass outside the kinetic radius, per seed",
            _lattice_params(2, 32, 0.25)
            + [
                Param("spectral", "E", float, 1.0),
                Param("spectral", "eta", float, 0.0625, positive("eta")),
                Param("deloc", "c1", float, 0.5, nonnegative("c1")),
                _seeds_param(),
            ],
            _run_deloc,
        ),
        ExperimentDef(
            "inequalities",
            "randomized trace/Jensen/Hoelder inequality sweep",
            [
                Param("matrix", "n", int, 10,
                      lambda v: None if 2 <= v <= 32
                      else f"must be in [2, 32] (got {v})"),
                Param("sampling", "n_trials", int, 200, positive("n_trials")),
                Param("sampling", "seed", int, 0),
            ],
            _run_inequalities,
        ),
    ]
}


def load_config(text: str) -> ExperimentConfig:
    """Parse INI text against the registry schemas (all violations at once)."""
    return parse_config(text, {n: e.params for n, e in EXPERIMENTS.items()})


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    payload = {
        "config_hash": manifest.config_hash,
        "version": manifest.version,
        "files": list(manifest.files),
        "timings": {k: round(v, 6) for k, v in sorted(manifest.timings.items())},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Execute one validated config; returns the manifest written alongside.

    Data files and ``manifest.json`` land in the config's output directory
    and nowhere else.  A stage failure still writes the manifest covering
    the files produced so far, then re-raises.
    """
    exp = EXPERIMENTS.get(config.experiment)
    if exp is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            [f"unknown experiment {config.experiment!r} (registry: {known})"]
        )
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    sink = OutputSink(outdir)
    timer = StageTimer()
    digest = config_hash(config)
    try:
        exp.runner(config, sink, timer)
    finally:
        manifest = RunManifest(
            config_hash=digest,
            version=__version__,
            files=tuple(sorted(sink.files)),
            timings=timer.timings,
        )
        _write_manifest(outdir / "manifest.json", manifest)
    return manifest
