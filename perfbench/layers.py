"""The traced layers: which qdlab functions are wrapped, and the per-layer metrics.

Every wrapped function reports ``<name>.calls``, ``<name>.failed`` and
``<name>.self_s``.  Hooks add exact work counts (Chebyshev steps, walk
steps, samples, bytes) read from the call's arguments and result, so no
library file has to change.  The per-layer metrics are listed in
``METRICS`` in the order and with the units ``BENCHMARK.json`` declares.

qdlab is imported inside the functions: run.py reads ``METRICS`` without
``src`` on its path.
"""

from __future__ import annotations

import functools
import inspect
import os

import numpy as np

from spans import Span, Tracer, layer_totals

# (metric name, module whose function is wrapped, attribute) -- the name is
# the layer the issue's table uses; free_propagate is defined in lattice but
# only propagation calls it.
FUNCTIONS = [
    ("lattice.apply_hamiltonian", "qdlab.lattice", "apply_hamiltonian"),
    ("lattice.dense_hamiltonian", "qdlab.lattice", "dense_hamiltonian"),
    ("propagation.evolve", "qdlab.propagation", "evolve"),
    ("propagation.run_trajectory", "qdlab.propagation", "run_trajectory"),
    ("propagation.propagator_deviation", "qdlab.propagation", "propagator_deviation"),
    ("propagation.free_propagate", "qdlab.lattice", "free_propagate"),
    ("propagation.op_norm", "qdlab.propagation", "op_norm"),
    ("spectral.resolvent_column", "qdlab.spectral", "resolvent_column"),
    ("spectral.dense_diagonalize", "qdlab.spectral", "dense_diagonalize"),
    ("spectral.spectral_projection", "qdlab.spectral", "spectral_projection"),
    ("spectral.free_cutoff_operator", "qdlab.spectral", "free_cutoff_operator"),
    ("spectral.projection_deviation", "qdlab.spectral", "projection_deviation"),
    ("diffusion.solve_theta", "qdlab.diffusion", "solve_theta"),
    ("diffusion.kernel_K", "qdlab.diffusion", "kernel_K"),
    ("diffusion.green_apply", "qdlab.diffusion", "green_apply"),
    ("diffusion.predict_observable", "qdlab.diffusion", "predict_observable"),
    ("diffusion.measure_observable", "qdlab.diffusion", "measure_observable"),
    ("diffusion.deloc_check", "qdlab.diffusion", "deloc_check"),
    ("diffusion.walk_positions", "qdlab.diffusion", "walk_positions"),
    ("diffusion.neumann_walk_sum", "qdlab.diffusion", "neumann_walk_sum"),
    ("random_matrix.gibp_check_goe", "qdlab.random_matrix", "gibp_check_goe"),
    ("harness.run_experiment", "qdlab.harness.experiments", "run_experiment"),
    ("harness.load_config", "qdlab.harness.experiments", "load_config"),
]

# Derived per-layer metrics: (name, unit, better).
EXTRA = [
    ("lattice.apply_hamiltonian.gbps_computed", "GB/s", "higher"),
    ("propagation.evolve.cheb_steps", "count", "lower"),
    ("propagation.evolve.us_per_step", "us", "lower"),
    ("propagation.op_norm.lanczos_iters", "count", "lower"),
    ("spectral.resolvent_column.s_per_call", "s", "lower"),
    ("spectral.resolvent_column.max_residual", "1", "lower"),
    ("diffusion.solve_theta.iterations", "count", "lower"),
    ("diffusion.solve_theta.resolution", "count", "lower"),
    ("diffusion.walk_positions.steps", "count", "lower"),
    ("diffusion.walk_positions.msteps_per_s", "Msteps/s", "higher"),
    ("random_matrix.gibp_check_goe.samples", "count", "lower"),
    ("random_matrix.gibp_check_goe.samples_per_s", "1/s", "higher"),
    ("harness.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.outside_top_share", "1", "lower"),
]

METRICS = [
    (f"{name}.{field}", unit, "lower")
    for name, _, _ in FUNCTIONS
    for field, unit in (("calls", "count"), ("failed", "count"), ("self_s", "s"))
] + EXTRA


_signature = functools.cache(inspect.signature)


def _bound(tracer: Tracer, name: str, args: tuple, kwargs: dict) -> dict:
    bound = _signature(tracer.originals[name]).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hamiltonian_bytes(tr, args, kwargs, result):
    a = _bound(tr, "lattice.apply_hamiltonian", args, kwargs)
    moved = a["field"].values.nbytes + a["spec"].disorder.values.nbytes + result.values.nbytes
    tr.add("lattice.apply_hamiltonian.bytes", moved)


def _evolve_steps(tr, args, kwargs, result):
    from qdlab import propagation

    a = _bound(tr, "propagation.evolve", args, kwargs)
    if a["t"] != 0.0:
        plan = propagation.plan_evolution(a["spec"], a["t"], tol=a["tol"], max_order=a["max_order"])
        tr.add("propagation.evolve.cheb_steps", plan.order)


def _column_residual(tr, args, kwargs, result):
    a = _bound(tr, "spectral.resolvent_column", args, kwargs)
    spec = a["spec"]
    site = a["site"] if a["site"] is not None else (0,) * spec.grid.d
    residual = column_residual(tr.originals["lattice.apply_hamiltonian"], spec, a["z"], site, result)
    tr.peak("spectral.resolvent_column.max_residual", residual)


def _theta(tr, args, kwargs, result):
    tr.add("diffusion.solve_theta.iterations", result.iterations)
    tr.peak("diffusion.solve_theta.resolution", result.resolution)


def _walk_steps(tr, args, kwargs, result):
    a = _bound(tr, "diffusion.walk_positions", args, kwargs)
    tr.add("diffusion.walk_positions.steps", a["n_trials"] * max(int(n) for n in a["checkpoints"]))


def _samples(tr, args, kwargs, result):
    a = _bound(tr, "random_matrix.gibp_check_goe", args, kwargs)
    tr.add("random_matrix.gibp_check_goe.samples", a["n_samples"])


def _bytes_written(tr, args, kwargs, result):
    config = _bound(tr, "harness.run_experiment", args, kwargs)["config"]
    names = list(result.files) + ["manifest.json"]
    tr.add("harness.bytes_written", sum(os.path.getsize(os.path.join(config.output_dir, n)) for n in names))


HOOKS = {
    "lattice.apply_hamiltonian": _hamiltonian_bytes,
    "propagation.evolve": _evolve_steps,
    "spectral.resolvent_column": _column_residual,
    "diffusion.solve_theta": _theta,
    "diffusion.walk_positions": _walk_steps,
    "random_matrix.gibp_check_goe": _samples,
    "harness.run_experiment": _bytes_written,
}


def targets() -> list:
    return [(name, module, attr, HOOKS.get(name)) for name, module, attr in FUNCTIONS]


def column_residual(apply_hamiltonian, spec, z: complex, site, column: np.ndarray) -> float:
    """True residual ||(H - z) x - e_site|| with the matrix-free stencil."""
    from qdlab.lattice import ComplexField

    hx = apply_hamiltonian(spec, ComplexField(spec.grid, column)).values
    r = hx - z * column
    r[tuple(int(c) % spec.grid.L for c in site)] -= 1.0
    return float(np.linalg.norm(r.ravel()))


def _lanczos_iters(spans: list[Span], restarts: int) -> float:
    """Matrix-free Lanczos iterations: evolve calls under op_norm / 2 / restarts."""
    evolves = 0
    for s in spans:
        if s.name != "propagation.evolve":
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "propagation.op_norm":
            p = spans[p].parent
        evolves += p >= 0
    return evolves / 2 / restarts


def layer_of(metric: str) -> str:
    """The wrapped function a per-layer metric belongs to."""
    if metric == "harness.bytes_written":
        return "harness.run_experiment"
    return metric.rsplit(".", 1)[0]


def pass_or_warm_up(traced_pass: dict[str, float], warm_up: dict[str, float]) -> dict[str, float]:
    """Each layer's metrics from the pass, or from the warm-up if the pass never calls it.

    The warm-up calls every layer once on a tiny input, so a layer that a
    workload does not use reads its warm-up cost rather than a constant 0.
    """
    return {k: (v if traced_pass[f"{layer_of(k)}.calls"] > 0 else warm_up[k])
            for k, v in traced_pass.items()}


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric but the two trace.* ones, from one traced stretch."""
    from qdlab import propagation

    totals = layer_totals(spans)
    zero = {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0}
    row = {name: totals.get(name, zero) for name, _, _ in FUNCTIONS}
    out: dict[str, float] = {}
    for name, _, _ in FUNCTIONS:
        for field in ("calls", "failed", "self_s"):
            out[f"{name}.{field}"] = row[name][field]

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    steps = counters.get("propagation.evolve.cheb_steps", 0.0)
    walk = counters.get("diffusion.walk_positions.steps", 0.0)
    samples = counters.get("random_matrix.gibp_check_goe.samples", 0.0)
    restarts = inspect.signature(propagation.op_norm).parameters["restarts"].default
    out.update({
        "lattice.apply_hamiltonian.gbps_computed": ratio(
            counters.get("lattice.apply_hamiltonian.bytes", 0.0), row["lattice.apply_hamiltonian"]["self_s"]) / 1e9,
        "propagation.evolve.cheb_steps": steps,
        "propagation.evolve.us_per_step": ratio(row["propagation.evolve"]["total_s"], steps) * 1e6,
        "propagation.op_norm.lanczos_iters": _lanczos_iters(spans, restarts),
        "spectral.resolvent_column.s_per_call": ratio(
            row["spectral.resolvent_column"]["total_s"], row["spectral.resolvent_column"]["calls"]),
        "spectral.resolvent_column.max_residual": counters.get("spectral.resolvent_column.max_residual", 0.0),
        "diffusion.solve_theta.iterations": counters.get("diffusion.solve_theta.iterations", 0.0),
        "diffusion.solve_theta.resolution": counters.get("diffusion.solve_theta.resolution", 0.0),
        "diffusion.walk_positions.steps": walk,
        "diffusion.walk_positions.msteps_per_s": ratio(walk, row["diffusion.walk_positions"]["total_s"]) / 1e6,
        "random_matrix.gibp_check_goe.samples": samples,
        "random_matrix.gibp_check_goe.samples_per_s": ratio(samples, row["random_matrix.gibp_check_goe"]["total_s"]),
        "harness.bytes_written": counters.get("harness.bytes_written", 0.0),
    })
    return out
