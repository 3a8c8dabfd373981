"""The benchmark workloads: inputs from a seed, one timed pass, and its gates.

A workload's ``prepare`` builds every input from the workload seed,
``run_pass`` makes the calls a researcher would make (through the module
attributes, so a traced run sees them), and ``check`` verifies the outputs
by a route that shares no code with the timed call.  Every disorder seed is
derived from the workload seed.  An operation is one column, trajectory,
norm or identity batch; it fails if it raised or if its gate failed.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from qdlab import diffusion, harness, lattice, propagation, random_matrix, spectral
from qdlab.lattice import HamiltonianSpec, TorusGrid

from layers import column_residual


@dataclass
class Failed:
    """Stands in for the output of a call that raised."""

    error: str


def attempt(out: dict, name: str, fn, *needs: str) -> None:
    """out[name] = fn(), or Failed if it raised or an output it needs failed."""
    missing = [n for n in needs if isinstance(out.get(n), Failed)]
    if missing:
        out[name] = Failed(f"needs {', '.join(missing)}")
        return
    try:
        out[name] = fn()
    except Exception as exc:  # each operation's failure is counted, not fatal
        out[name] = Failed(f"{type(exc).__name__}: {exc}")


def derived_seeds(seed: int, purpose: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, purpose]).generate_state(count)]


def gate(name: str, ok: bool, detail: str = "") -> dict:
    return {"op": name, "ok": bool(ok), "detail": detail}


def gates_for(out: dict, name: str, checks) -> list[dict]:
    """One gate for output `name`: failed if it raised, else the first failing check."""
    value = out[name]
    if isinstance(value, Failed):
        return [gate(name, False, value.error)]
    for ok, detail in checks(value):
        if not ok:
            return [gate(name, False, detail)]
    return [gate(name, True)]


def ward_rel_error(column: np.ndarray, z: complex, site) -> float:
    mass = float(np.sum(np.abs(column) ** 2))
    return abs(mass - column[tuple(site)].imag / z.imag) / mass


def column_checks(spec: HamiltonianSpec, z: complex, column: np.ndarray):
    origin = (0,) * spec.grid.d
    res = column_residual(lattice.apply_hamiltonian, spec, z, origin, column)
    yield res <= 1e-8, f"residual {res:.3e} > 1e-8"
    ward = ward_rel_error(column, z, origin)
    yield ward <= 1e-8, f"Ward relative error {ward:.3e} > 1e-8"


def minimal_image_sq(grid: TorusGrid) -> np.ndarray:
    """|x|^2 of the minimal-image displacement from the origin, grid-shaped."""
    line = (np.arange(grid.L) + grid.L // 2) % grid.L - grid.L // 2
    return sum(np.asarray(np.meshgrid(*[line**2] * grid.d, indexing="ij")))


def manifest_files(outdir: Path) -> set[str]:
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        return set(json.load(fh)["files"])


def csv_column(path: Path, prefix: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    col = next(i for i, head in enumerate(rows[0]) if head.split(" (")[0] == prefix)
    return np.array([float(r[col]) for r in rows[1:]])


# ---------------------------------------------------------------------------


class Transport:
    """Criteria 8-10: theta, kernel, Green prediction, dense-LU columns, walks."""

    name = "transport"
    L, lam, E, eta, c1 = 64, 0.2, 1.0, 0.04, 0.5
    n_columns = 2
    sum_trials = 20_000
    position_trials = 6_000
    checkpoints = (16, 32, 64, 128, 256, 512, 1024)

    def prepare(self, seed: int) -> dict:
        grid = TorusGrid(2, self.L)
        point = diffusion.EnergyPoint(self.E, self.eta, self.lam, 2)
        radius = self.c1 / (self.lam * math.sqrt(self.eta))  # half a diffusive length
        seeds = derived_seeds(seed, 1, self.n_columns + 2)
        return {
            "grid": grid,
            "point": point,
            "radius": radius,
            "ball": (minimal_image_sq(grid) <= radius**2).astype(float),
            "column_seeds": seeds[: self.n_columns],
            "sum_seed": seeds[-2],
            "position_seed": seeds[-1],
        }

    def run_pass(self, inp: dict, passdir: Path) -> dict:
        grid, point = inp["grid"], inp["point"]
        out: dict = {}
        attempt(out, "theta", lambda: diffusion.solve_theta(point))
        attempt(out, "kernel", lambda: diffusion.kernel_K(point, out["theta"].theta, grid), "theta")
        attempt(out, "prediction", lambda: diffusion.predict_observable(
            point, out["theta"].theta, inp["ball"], kernel=out["kernel"]), "theta", "kernel")
        attempt(out, "columns", lambda: diffusion.measure_observable(
            grid, point.lam, point.z, inp["ball"], seeds=inp["column_seeds"], keep_columns=True))
        with warnings.catch_warnings():
            # L=64 is 2.6 diffusive lengths: the finite-size warning is expected.
            warnings.simplefilter("ignore", UserWarning)
            attempt(out, "deloc", lambda: diffusion.deloc_check(
                grid, point.lam, point.z, self.c1, inp["column_seeds"],
                columns=out["columns"].columns), "columns")
        attempt(out, "walk_sum", lambda: diffusion.neumann_walk_sum(
            out["kernel"], inp["radius"], n_trials=self.sum_trials, seed=inp["sum_seed"]), "kernel")
        attempt(out, "walk_positions", lambda: diffusion.walk_positions(
            diffusion.step_distribution(out["kernel"]), self.checkpoints,
            self.position_trials, inp["position_seed"]), "kernel")
        return out

    def check(self, inp: dict, out: dict) -> list[dict]:
        point = inp["point"]
        result = gates_for(out, "theta", lambda th: [self._theta_residual(point, th)])

        def prediction(p):
            yield np.all(np.isfinite(p)) and p[0, 0] > 0, f"prediction at origin {p[0, 0]}"
        result += gates_for(out, "prediction", prediction)

        sample = out["columns"]
        for i, s in enumerate(inp["column_seeds"]):
            name = f"column[{i}]"
            if isinstance(sample, Failed):
                result.append(gate(name, False, sample.error))
                continue
            spec = HamiltonianSpec.sample(inp["grid"], point.lam, s)
            result += gates_for({name: sample.columns[i]}, name,
                                lambda col: column_checks(spec, point.z, col))

        result += gates_for(out, "deloc", lambda rep: [
            (np.all((rep.fractions >= 0) & (rep.fractions <= 1)), f"fractions {rep.fractions}")])

        def walk_sum(ws):
            value, stderr, tail = ws
            pred = out["prediction"]
            if isinstance(pred, Failed):
                yield False, "no prediction to compare with"
                return
            gap = abs(value - pred[0, 0])
            yield gap <= 4 * stderr + tail, f"walk sum {value} vs Green {pred[0, 0]}: gap {gap:.3e} > 4*{stderr:.3e}+{tail:.1e}"
        result += gates_for(out, "walk_sum", walk_sum)

        def positions(pos):
            # E|Y_N|^2 = N E|X|^2 for i.i.d. symmetric steps; E|X|^2 from the kernel.
            k = out["kernel"].values
            var = float(np.sum(minimal_image_sq(inp["grid"]) * k) / np.sum(k))
            n = self.checkpoints[-1]
            r2 = np.sum(pos[n].astype(float) ** 2, axis=1)
            se = r2.std(ddof=1) / math.sqrt(r2.size)
            yield abs(r2.mean() - n * var) <= 5 * se, f"E|Y_N|^2 {r2.mean():.4g} vs N*var {n * var:.4g} (se {se:.3g})"
        result += gates_for(out, "walk_positions", positions)
        return result

    @staticmethod
    def _theta_residual(point, th):
        """|theta - F(z + lam^2 theta)| with F summed directly over the momentum grid."""
        m = th.resolution
        w = point.z + point.lam**2 * th.theta
        line = 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
        acc = 0j
        for start in range(0, m, 256):
            acc += np.sum(1.0 / (line[start : start + 256, None] + line[None, :] - w))
        res = abs(th.theta - acc / m**2)
        return res <= 1e-12, f"theta residual {res:.3e} > 1e-12"


class Large:
    """Lattices above the dense limit: figure1 and deloc through the harness, d=3 columns."""

    name = "large"
    figure1_L, figure1_lam = 1024, 0.3
    # Geometric over [15, 30]: one seed costs about 2.2 s, so a run holds
    # several passes; r(30) is about 44 < L/4.
    t_grid = tuple(float(t) for t in np.geomspace(15.0, 30.0, 4))
    deloc_L, deloc_columns = 256, 2
    d3_sides = (24, 28, 32)
    lam, E, eta, c1 = 0.2, 1.0, 0.04, 0.5

    def prepare(self, seed: int) -> dict:
        seeds = derived_seeds(seed, 2, 1 + self.deloc_columns + len(self.d3_sides))
        figure1 = "\n".join([
            "[run]", "experiment = figure1", "output_dir = {outdir}",
            "[lattice]", "d = 2", f"L = {self.figure1_L}", f"lambda = {self.figure1_lam}",
            "[time]", "t_grid = " + ", ".join(repr(t) for t in self.t_grid), "tolerance = 1e-8",
            "[sampling]", f"seeds = {seeds[0]}", "",
        ])
        deloc = "\n".join([
            "[run]", "experiment = deloc", "output_dir = {outdir}",
            "[lattice]", "d = 2", f"L = {self.deloc_L}", f"lambda = {self.lam}",
            "[spectral]", f"E = {self.E}", f"eta = {self.eta}",
            "[deloc]", f"c1 = {self.c1}",
            "[sampling]", "seeds = " + ", ".join(str(s) for s in seeds[1 : 1 + self.deloc_columns]), "",
        ])
        specs = [HamiltonianSpec.sample(TorusGrid(3, side), self.lam, s)
                 for side, s in zip(self.d3_sides, seeds[1 + self.deloc_columns :])]
        return {"figure1": figure1, "figure1_seed": seeds[0], "deloc": deloc, "d3_specs": specs}

    def run_pass(self, inp: dict, passdir: Path) -> dict:
        out: dict = {}
        z = complex(self.E, self.eta)
        for key in ("figure1", "deloc"):
            outdir = passdir / key
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                attempt(out, key, lambda: harness.run_experiment(
                    harness.load_config(inp[key].format(outdir=outdir))))
            out[key + "_warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            out[key + "_dir"] = outdir
        for i, spec in enumerate(inp["d3_specs"]):
            attempt(out, f"d3_column[{i}]", lambda: spectral.resolvent_column(spec, z))
        return out

    def check(self, inp: dict, out: dict) -> list[dict]:
        z = complex(self.E, self.eta)
        fig_dir, deloc_dir = out["figure1_dir"], out["deloc_dir"]

        def figure1(_):
            yield not any(w.startswith("WraparoundWarning") for w in out["figure1_warnings"]), \
                f"warnings {out['figure1_warnings']}"
            traj = f"trajectory_seed{inp['figure1_seed']}.csv"
            files = manifest_files(fig_dir)
            yield files == {traj, "quantiles.csv", "fit.csv"}, f"manifest files {sorted(files)}"
            mass = csv_column(fig_dir / traj, "mass")
            yield mass.size == len(self.t_grid) and np.all(np.abs(mass - 1.0) <= 1e-6), f"masses {mass}"
        result = gates_for(out, "figure1", figure1)

        if isinstance(out["deloc"], Failed):
            result += [gate(f"deloc[{i}]", False, out["deloc"].error) for i in range(self.deloc_columns)]
        else:
            files = manifest_files(deloc_dir)
            frac = csv_column(deloc_dir / "deloc.csv", "exterior_fraction")
            for i in range(self.deloc_columns):
                ok = files == {"deloc.csv", "summary.csv"} and frac.size == self.deloc_columns \
                    and 0.0 <= frac[i] <= 1.0 and not out["deloc_warnings"]
                result.append(gate(f"deloc[{i}]", ok, f"files {sorted(files)}, fractions {frac}, "
                                   f"warnings {out['deloc_warnings']}"))

        for i, spec in enumerate(inp["d3_specs"]):
            result += gates_for(out, f"d3_column[{i}]", lambda col: column_checks(spec, z, col))
        return result


class Norms:
    """Criteria 2, 3 and 11: certified norms and a GOE identity on small operands."""

    name = "norms"
    lam = 0.05
    times = (2.0, 4.0, 8.0, 16.0, 32.0)
    E, widths = 1.0, (0.5, 0.25, 0.125, 0.0625)
    goe_n, goe_z, goe_samples = 64, 0.5 + 0.3j, 4096

    def prepare(self, seed: int) -> dict:
        s = derived_seeds(seed, 3, 5)
        # Two realizations of two widths each: the Lanczos iteration count
        # varies with the realization, and two draws halve that variance
        # while each spectrum still serves more than one width.
        pair = [HamiltonianSpec.sample(TorusGrid(2, 48), self.lam, x) for x in s[1:3]]
        return {
            "kinetic": HamiltonianSpec.sample(TorusGrid(2, 64), self.lam, s[0]),
            "projection": {w: pair[i % 2] for i, w in enumerate(self.widths)},
            "goe_seed": s[3],
            "norm_seed": s[4],
            "oracle_width": self.widths[seed % len(self.widths)],
        }

    def run_pass(self, inp: dict, passdir: Path) -> dict:
        out: dict = {}
        for t in self.times:
            attempt(out, f"kinetic[t={t:g}]", lambda: propagation.propagator_deviation(
                inp["kinetic"], t, seed=inp["norm_seed"]))
        for w in self.widths:
            attempt(out, f"projection[w={w:g}]", lambda: spectral.projection_deviation(
                inp["projection"][w], self.E, w, seed=inp["norm_seed"]))
        with warnings.catch_warnings():
            # eta = 0.3 sits just below n^(-1/4) = 0.354: the variance warning is expected.
            warnings.simplefilter("ignore", UserWarning)
            attempt(out, "gibp_goe", lambda: random_matrix.gibp_check_goe(
                self.goe_n, self.goe_z, self.goe_samples, seed=inp["goe_seed"]))
        return out

    def check(self, inp: dict, out: dict) -> list[dict]:
        result = []
        spec = inp["kinetic"]
        for t in self.times:
            # Duhamel: ||e^{-itH} - e^{-itA}|| <= t ||lam V||; Lanczos only underestimates.
            bound = min(2.0, t * spec.lam * float(np.max(np.abs(spec.disorder.values))))
            result += gates_for(out, f"kinetic[t={t:g}]", lambda dev: [
                (0.0 <= dev <= bound + 1e-6, f"deviation {dev} outside [0, {bound}]")])
        for w in self.widths:
            result += gates_for(out, f"projection[w={w:g}]", lambda dev: [
                (0.0 <= dev <= 2.0, f"deviation {dev} outside [0, 2]")])
        result += gates_for(out, "gibp_goe", lambda rep: [
            (rep.max_ratio <= 4.0, f"max |mean|/stderr {rep.max_ratio:.3f} > 4")])
        return result

    def oracle(self, inp: dict, out: dict) -> list[dict]:
        """projection_deviation at one width against max |eigvalsh(D)|, D built here."""
        w = inp["oracle_width"]
        name = f"projection_oracle[w={w:g}]"
        dev = out[f"projection[w={w:g}]"]
        if isinstance(dev, Failed):
            return [gate(name, False, dev.error)]
        spec = inp["projection"][w]
        L = spec.grid.L
        idx = np.arange(L * L).reshape(L, L)
        adj = np.zeros((L * L, L * L))
        for axis in (0, 1):
            for shift in (1, -1):
                adj[idx.ravel(), np.roll(idx, shift, axis=axis).ravel()] += 1.0
        h = adj + np.diag(spec.lam * spec.disorder.values.ravel())

        def cutoff(m: np.ndarray) -> np.ndarray:
            e, q = scipy.linalg.eigh(m)
            x = (e - self.E) / w
            inside = np.abs(x) < 1.0
            chi = np.zeros_like(x)
            chi[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
            return (q * chi) @ q.T

        ev = scipy.linalg.eigvalsh(cutoff(h) - cutoff(adj))
        exact = max(abs(ev[0]), abs(ev[-1]))
        rel = abs(dev - exact) / exact
        return [gate(name, rel <= 1e-5, f"op_norm {dev} vs eigvalsh {exact}: rel {rel:.2e} > 1e-5")]


WORKLOADS = {w.name: w for w in (Transport(), Large(), Norms())}


def warm_up(workdir: Path) -> None:
    """One call per traced layer on a tiny input, so lazy set-up is done before timing."""
    grid = TorusGrid(2, 8)
    spec = HamiltonianSpec.sample(grid, 0.3, seed=0)
    lattice.apply_hamiltonian(spec, lattice.delta_field(grid))
    lattice.dense_hamiltonian(spec)
    propagation.run_trajectory(spec, [0.5, 1.0])
    propagation.propagator_deviation(spec, 1.0)
    spectral.projection_deviation(HamiltonianSpec.sample(TorusGrid(2, 6), 0.3, seed=0), 0.0, 1.0)
    spectral.resolvent_column(spec, 1.0 + 0.5j)
    # 72^2 sites is above the dense limit, so this takes the matrix-free route.
    spectral.resolvent_column(HamiltonianSpec.sample(TorusGrid(2, 72), 0.2, seed=0), 1.0 + 0.5j)
    # lam = eta = 1 puts L = 10 at exactly ten diffusive lengths: no finite-size warning.
    point = diffusion.EnergyPoint(1.0, 1.0, 1.0, 2)
    small = TorusGrid(2, 10)
    theta = diffusion.solve_theta(point)
    kernel = diffusion.kernel_K(point, theta.theta, small)
    ball = (minimal_image_sq(small) <= 1).astype(float)
    diffusion.predict_observable(point, theta.theta, ball, kernel=kernel)
    sample = diffusion.measure_observable(small, 1.0, point.z, ball, seeds=[0], keep_columns=True)
    diffusion.deloc_check(small, 1.0, point.z, 0.5, [0], columns=sample.columns)
    diffusion.neumann_walk_sum(kernel, 1.0, n_trials=256, seed=0)
    diffusion.walk_positions(diffusion.step_distribution(kernel), (1, 2), 64, seed=0)
    random_matrix.gibp_check_goe(8, 0.5 + 1.0j, 64, seed=0)
    config = harness.load_config("\n".join([
        "[run]", "experiment = figure1", f"output_dir = {workdir}",
        "[lattice]", "d = 2", "L = 16", "lambda = 0.3",
        "[time]", "t_grid = 1, 2", "[sampling]", "seeds = 0", "",
    ]))
    harness.run_experiment(config)
