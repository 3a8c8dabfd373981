"""Deterministic diffusion theory and its Monte-Carlo counterparts.

The chain of objects: the free-lattice Green diagonal F(z), the self-consistent
shift theta solving theta = F(z + lam^2 theta), the renormalized propagator
kernel Mtilde(x) = IFFT[1/(omega - z - lam^2 theta)], the nonnegative
convolution kernel Ktilde = |Mtilde|^2, the Green operator
(Id - lam^2 K)^{-1} summed as a Neumann series, and the random walk whose step
distribution is the normalized Ktilde.  Observable predictions from this chain
are compared against disorder-averaged resolvent data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .lattice import (
    HamiltonianSpec,
    TorusGrid,
    displacement_vectors,
    distance_sq_grid,
    minimal_image,
    momentum_grid,
    rng_for,
    separable_sum,
)
from .spectral import resolvent_column

MAX_MOMENTUM_RESOLUTION = 1 << 15
# F(z) has settled once two successive resolution doublings agree to this.
F_DOUBLING_TOL = 1e-8
# Damping, residual target and iteration budget of the theta fixed point.
THETA_DAMPING = 0.5
THETA_TOL = 1e-12
THETA_MAX_ITER = 500
# Sup-norm bound on the discarded tail of the Green-operator Neumann series.
GREEN_TOL = 1e-10
# Trials per walk chunk.  Chunk k draws from its own random stream k, so this
# also fixes which draws every trial gets.
WALK_CHUNK = 16384
# Bound on the discarded tail of neumann_walk_sum's series.
WALK_TAIL_TOL = 1e-12
# Two-sided 95% normal quantile of the Wilson interval.
_WILSON_Z = 1.959963984540054


def _centered_axis_coordinate(grid: TorusGrid) -> np.ndarray:
    """Minimal-image axis coordinate with the ambiguous plane centered.

    On an even torus the displacement L/2 has no sign: +L/2 and -L/2 name the
    same site.  For first-moment purposes that plane carries zero drift, so
    its coordinate is 0; all other sites keep their unique minimal image.
    """
    coord = minimal_image(grid, np.arange(grid.L)).astype(float)
    if grid.L % 2 == 0:
        coord[grid.L // 2] = 0.0
    return coord


@dataclass(frozen=True)
class EnergyPoint:
    """Spectral parameter z = E + i eta with coupling, for a given dimension."""

    E: float
    eta: float
    lam: float
    d: int = 2

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.lam < 0:
            raise ValueError(f"coupling must be non-negative, got {self.lam}")
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)


def _ring_mean(c, m: int) -> np.ndarray:
    """Exact (1/m) sum_k 1/(c - 2 cos(2 pi k/m)), elementwise in c (Im c != 0).

    Closed form via the geometric structure of the ring resolvent: with
    u = 2/(c + sqrt(c^2-4)) on the branch |u| < 1,

        (1/m) sum_k 1/(c - 2 cos(2 pi k/m)) = (1 + u^m) / ((1 - u^m) sqrt(c^2-4)).

    This reproduces the finite sum exactly, including its resonances, at O(1)
    cost per c; tests cross-check it against the direct summation.
    """
    c = np.asarray(c, dtype=np.complex128)
    w = np.sqrt(c * c - 4.0)
    u = 2.0 / (c + w)
    flip = np.abs(u) > 1.0
    w = np.where(flip, -w, w)
    u = np.where(flip, 2.0 / (c + w), u)
    um = u**m
    return (1.0 + um) / ((1.0 - um) * w)


def _momentum_mean(z: complex, d: int, m: int) -> complex:
    """Mean of 1/(omega(xi) - z) over the m^d momentum grid.

    The innermost axis is summed in closed form (_ring_mean), so the cost is
    O(m^(d-1)) and stays trivial for d <= 2.
    """
    if d == 1:
        return complex(-_ring_mean(z, m))
    line = 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m)
    lead = separable_sum([line] * (d - 1)).ravel()
    acc = 0.0 + 0.0j
    chunk = 1 << 22
    for start in range(0, lead.size, chunk):
        acc += np.sum(_ring_mean(z - lead[start : start + chunk], m))
    return complex(-acc / lead.size)


def F_eval(z: complex, d: int) -> complex:
    """Normalized momentum sum F(z) = M^{-d} sum_xi 1/(omega(xi) - z).

    The resolution doubles (starting from max(64, 8/|Im z|) rounded to even)
    until two successive evaluations agree to F_DOUBLING_TOL; failure to
    settle below MAX_MOMENTUM_RESOLUTION raises NonConvergenceError.
    """
    if z.imag == 0.0:
        raise ValueError("F_eval requires Im z != 0")
    return _f_settled(z, d)[1]


def _f_settled(z: complex, d: int) -> tuple[int, complex]:
    """(M, F(z) at M) for the resolution M at which the doubling test passes."""
    m = max(64, 8 * int(math.ceil(1.0 / abs(z.imag))))
    m += m % 2
    if m > MAX_MOMENTUM_RESOLUTION:
        raise NonConvergenceError(
            f"F({z}) needs a starting resolution {m} beyond the cap "
            f"{MAX_MOMENTUM_RESOLUTION}; Im z is too small"
        )
    prev = _momentum_mean(z, d, m)
    while m <= MAX_MOMENTUM_RESOLUTION:
        m *= 2
        cur = _momentum_mean(z, d, m)
        if abs(cur - prev) <= F_DOUBLING_TOL:
            return m, cur
        prev = cur
    raise NonConvergenceError(
        f"momentum sum for F({z}) in dimension {d} did not settle to "
        f"{F_DOUBLING_TOL} by resolution {MAX_MOMENTUM_RESOLUTION}"
    )


@dataclass(frozen=True)
class ThetaSolution:
    """Fixed point of theta = F(z + lam^2 theta)."""

    theta: complex
    residual: float
    iterations: int
    resolution: int


def solve_theta(point: EnergyPoint, resolution: int | None = None) -> ThetaSolution:
    """Damped fixed point theta <- (1-g) theta + g F(z + lam^2 theta), g = THETA_DAMPING.

    Starts at theta = F(z).  The momentum resolution is fixed up front (the
    effective imaginary part only grows along the iteration, so a resolution
    converged at z stays converged), and the residual is measured at it.
    Without ``resolution`` it is the one at which F(z) settles.
    """
    z = point.z
    lam2 = point.lam**2
    if resolution is None:
        resolution, theta = _f_settled(z, point.d)
    else:
        theta = _momentum_mean(z, point.d, resolution)
    residual = math.inf
    for iteration in range(THETA_MAX_ITER + 1):
        fnext = _momentum_mean(z + lam2 * theta, point.d, resolution)
        residual = abs(theta - fnext)
        if residual <= THETA_TOL:
            if theta.imag <= 0.0:
                raise NonConvergenceError(
                    f"Im theta = {theta.imag:.3e} <= 0 at z={z}: resolution failure"
                )
            return ThetaSolution(theta, residual, iteration, resolution)
        theta = (1.0 - THETA_DAMPING) * theta + THETA_DAMPING * fnext
    raise NonConvergenceError(
        f"theta iteration stalled at residual {residual:.3e} after {THETA_MAX_ITER} steps"
    )


def mtilde_kernel(point: EnergyPoint, theta: complex, grid: TorusGrid) -> np.ndarray:
    """Row-0 kernel of (Delta - z - lam^2 theta)^{-1} on the torus grid."""
    shift = point.z + point.lam**2 * theta
    if shift.imag <= 0:
        raise ValueError("Im(z + lam^2 theta) must be positive")
    multiplier = 1.0 / (momentum_grid(grid) - shift)
    return np.fft.ifftn(multiplier)


@dataclass(frozen=True)
class KernelField:
    """Nonnegative even kernel Ktilde(x) = |Mtilde(x)|^2 with its mass and mean."""

    grid: TorusGrid
    lam: float
    values: np.ndarray
    mass: float  # lam^2 sum Ktilde
    mean: np.ndarray  # lam^2 sum x Ktilde (minimal-image x; +/-L/2 plane counts as 0)


def kernel_K(point: EnergyPoint, theta: complex, grid: TorusGrid) -> KernelField:
    mt = mtilde_kernel(point, theta, grid)
    values = mt.real**2 + mt.imag**2
    lam2 = point.lam**2
    mass = lam2 * float(values.sum())
    if mass >= 1.0:
        raise ValueError(f"kernel mass {mass:.6f} >= 1; Green operator undefined here")
    axis_coord = _centered_axis_coordinate(grid)
    mean = np.empty(grid.d)
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = grid.L
        mean[axis] = lam2 * float((values * axis_coord.reshape(shape)).sum())
    return KernelField(grid, point.lam, values, mass, mean)


def green_apply(kernel: KernelField, f: np.ndarray) -> np.ndarray:
    """(Id - lam^2 K)^{-1} f by the Neumann series, convolving with FFTs.

    Terms are added until the latest one is below GREEN_TOL * (1 - mass) in
    sup norm, which bounds the discarded tail by GREEN_TOL.  Since
    ||lam^2 K * g||_inf <= mass ||g||_inf, the j-th term is at most
    mass^j ||f||_inf; one term past the count this implies, the series
    raises NonConvergenceError.
    """
    if not kernel.mass < 1.0:
        raise ValueError(f"kernel mass {kernel.mass} is not below 1: Neumann series diverges")
    f = np.asarray(f, dtype=float)
    if f.shape != kernel.grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {kernel.grid.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("green_apply needs a finite field")
    target = GREEN_TOL * (1.0 - kernel.mass)
    size = float(np.max(np.abs(f)))
    max_terms = 1
    if kernel.mass > 0.0 and size > target:
        max_terms += math.ceil(math.log(target / size) / math.log(kernel.mass))
    khat = np.fft.fftn(kernel.values) * kernel.lam**2
    out = f.copy()
    term = f
    for _ in range(max_terms):
        term = np.fft.ifftn(np.fft.fftn(term) * khat).real
        out += term
        size = float(np.max(np.abs(term)))
        if size <= target:
            return out
    raise NonConvergenceError(
        f"Neumann series: term {max_terms} has sup norm {size:.3e} > {target:.3e}"
    )


def convolve_kernel(kernel: KernelField, f: np.ndarray) -> np.ndarray:
    """Plain circular convolution Ktilde * f (no lam^2 factor)."""
    fhat = np.fft.fftn(np.asarray(f, dtype=float))
    return np.fft.ifftn(np.fft.fftn(kernel.values) * fhat).real


def predict_observable(
    point: EnergyPoint, theta: complex, f: np.ndarray, kernel: KernelField
) -> np.ndarray:
    """Deterministic prediction (Id - lam^2 K)^{-1}(Ktilde * f) of sum_x f |R_.x|^2
    at ``point``, where ``kernel`` is `kernel_K` of (point, theta) on f's grid."""
    return green_apply(kernel, convolve_kernel(kernel, f))


@dataclass
class ObservableSample:
    """Disorder-sampled O[f] = sum_x f(x) |R_0x|^2 with per-seed detail."""

    seeds: tuple[int, ...]
    values: np.ndarray  # O[f] per seed
    im_r00: np.ndarray  # Im R_00 per seed
    columns: list[np.ndarray] | None


def measure_observable(
    grid: TorusGrid,
    lam: float,
    z: complex,
    f: np.ndarray,
    seeds,
    keep_columns: bool = False,
) -> ObservableSample:
    """Sample O[f] over disorder seeds from origin resolvent columns.

    With ``keep_columns`` the columns are returned too, so other per-seed
    diagnostics (`deloc_check`) can share the linear solves.
    """
    seeds = tuple(int(s) for s in seeds)
    f = np.asarray(f, dtype=float)
    vals = np.empty(len(seeds))
    imr = np.empty(len(seeds))
    kept: list[np.ndarray] | None = [] if keep_columns else None
    for i, seed in enumerate(seeds):
        col = resolvent_column(HamiltonianSpec.sample(grid, lam, seed), z)
        if kept is not None:
            kept.append(col)
        density = col.real**2 + col.imag**2
        vals[i] = float(np.sum(f * density))
        imr[i] = float(col[(0,) * grid.d].imag)
    return ObservableSample(seeds, vals, imr, kept)


def ball_indicator(grid: TorusGrid, radius: float) -> np.ndarray:
    """Indicator of the minimal-image Euclidean ball |x| <= radius."""
    return (distance_sq_grid(grid) <= radius**2).astype(float)


@dataclass(frozen=True)
class DelocReport:
    """Exterior resolvent mass beyond the diffusive radius, per seed."""

    radius: float
    fractions: np.ndarray
    q25: float
    median: float
    q75: float


def deloc_check(
    grid: TorusGrid,
    lam: float,
    z: complex,
    c1: float,
    seeds,
    columns: list[np.ndarray] | None = None,
) -> DelocReport:
    """Fraction of sum_x |R_0x|^2 carried by |x| > c1 * lam^{-1} eta^{-1/2}.

    The total is evaluated as eta^{-1} Im R_00 (exact for symmetric H), so a
    fraction near 1 at c1 = 0 doubles as a solver self-check.
    """
    eta = z.imag
    if eta <= 0:
        raise ValueError("deloc_check expects Im z > 0")
    if not (0.5 * lam**2 <= eta <= 2.0 * lam**2):
        raise ValueError(
            f"eta={eta} outside the crossover window [{0.5 * lam**2}, {2.0 * lam**2}]"
        )
    unit = 1.0 / (lam * math.sqrt(eta))
    if grid.L < 2.0 * unit:
        raise ValueError(
            f"L={grid.L} cannot hold one diffusive length {unit:.1f}; "
            "the exterior region is meaningless"
        )
    if grid.L < 10.0 * unit:
        warnings.warn(
            f"L={grid.L} is below 10 diffusive lengths ({10 * unit:.0f}); "
            "exterior-mass fractions carry finite-size bias",
            stacklevel=2,
        )
    radius = c1 * unit
    seeds = tuple(int(s) for s in seeds)
    exterior = distance_sq_grid(grid) > radius**2
    fractions = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        if columns is not None:
            col = columns[i]
        else:
            col = resolvent_column(HamiltonianSpec.sample(grid, lam, seed), z)
        density = col.real**2 + col.imag**2
        total = col[(0,) * grid.d].imag / eta
        fractions[i] = float(np.sum(density[exterior]) / total)
    q25, med, q75 = np.percentile(fractions, [25.0, 50.0, 75.0])
    return DelocReport(radius, fractions, float(q25), float(med), float(q75))


# ---------------------------------------------------------------------------
# Kernel-driven random walk


@dataclass(frozen=True)
class StepDistribution:
    """Probability distribution of one walk step, as displacement vectors."""

    displacements: np.ndarray  # (n, d) integer minimal-image vectors
    probabilities: np.ndarray  # (n,), sums to 1
    sigma: float  # radial standard deviation sqrt(E|X|^2)
    L: int  # original torus side (for wrapped walks)

    def __post_init__(self) -> None:
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"step probabilities sum to {total}, not 1")
        if np.any(self.probabilities < 0):
            raise ValueError("step probabilities must be nonnegative")


def step_distribution(kernel: KernelField) -> StepDistribution:
    probs = (kernel.values / kernel.values.sum()).ravel()
    disp = displacement_vectors(kernel.grid)
    L = kernel.grid.L
    if L % 2 == 0:
        # On an even torus +L/2 and -L/2 label the same site, so an unwrapped
        # walk must not favour either sign: split each ambiguous atom into a
        # half-weight +/- pair.  Applied axis by axis over the growing list,
        # so an atom ambiguous in k axes ends up split 2^k ways.
        half = L // 2
        for axis in range(kernel.grid.d):
            hit = disp[:, axis] == -half
            if not np.any(hit):
                continue
            mirrored = disp[hit].copy()
            mirrored[:, axis] = half
            probs = np.concatenate([np.where(hit, 0.5 * probs, probs), 0.5 * probs[hit]])
            disp = np.concatenate([disp, mirrored])
    sigma = math.sqrt(float(probs @ np.sum(disp.astype(float) ** 2, axis=1)))
    return StepDistribution(disp, probs, sigma, L)


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Monte-Carlo hit probability with a 95% Wilson confidence interval."""

    p: float
    ci_low: float
    ci_high: float
    n_trials: int


def _wilson(hits: int, n: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    phat = hits / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _sample_steps(step: StepDistribution, shape: tuple[int, ...], rng) -> np.ndarray:
    """Draw displacement vectors with the given leading shape (trailing axis d)."""
    cdf = np.cumsum(step.probabilities)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(shape), side="right")
    return step.displacements[idx]


def walk_positions(
    step: StepDistribution,
    checkpoints,
    n_trials: int,
    seed: int,
    wrap: bool = False,
) -> dict[int, np.ndarray]:
    """Positions Y_N of the i.i.d.-step walk at each checkpoint N, all trials.

    One walk serves every checkpoint (partial sums), so estimates across N
    are correlated but much cheaper.  wrap=True folds positions onto the
    torus, matching circular convolution; they are reported minimal-image.
    """
    checkpoints = sorted(int(n) for n in checkpoints)
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be at least 1")
    d = step.displacements.shape[1]
    out = {n: np.empty((n_trials, d), dtype=np.int64) for n in checkpoints}
    done = 0
    stream = 0
    while done < n_trials:
        size = min(WALK_CHUNK, n_trials - done)
        rng = rng_for(seed, stream=0x3A1C + stream)
        pos = np.zeros((size, d), dtype=np.int64)
        prev = 0
        for n_ck in checkpoints:
            if n_ck > prev:
                pos += _sample_steps(step, (size, n_ck - prev), rng).sum(axis=1)
            if wrap:
                pos %= step.L
            out[n_ck][done : done + size] = pos
            prev = n_ck
        done += size
        stream += 1
    if wrap:
        half = step.L // 2
        for n_ck in checkpoints:
            out[n_ck] = (out[n_ck] + half) % step.L - half
    return out


def anticoncentration_mc(
    step: StepDistribution,
    n_steps: int,
    y,
    r: float,
    n_trials: int,
    seed: int = 0,
) -> ProbabilityEstimate:
    """Monte-Carlo P(|Y_N - y| <= r) for the unwrapped kernel-driven walk."""
    y = np.asarray(y, dtype=np.int64)
    delta = walk_positions(step, [n_steps], n_trials, seed)[n_steps] - y[None, :]
    hits = int(np.count_nonzero(np.sum(delta.astype(float) ** 2, axis=1) <= r**2))
    lo, hi = _wilson(hits, n_trials)
    return ProbabilityEstimate(hits / n_trials, lo, hi, n_trials)


def neumann_walk_sum(
    kernel: KernelField,
    r: float,
    n_trials: int = 100_000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """lam^{-2} sum_j (1-alpha)^j P(|Y_j| <= r) for the torus-wrapped walk.

    Returns (value, standard error, deterministic tail bound).  alpha is
    1 - mass; wrapping matches the FFT Green operator exactly, so this equals
    predict_observable of the ball indicator at the origin up to MC error.
    """
    decay = kernel.mass
    alpha = 1.0 - decay
    lam2 = kernel.lam**2
    j_max = max(4, int(math.ceil(math.log(WALK_TAIL_TOL * alpha * lam2) / math.log(decay))))
    step = step_distribution(kernel)
    positions = walk_positions(step, range(1, j_max + 1), n_trials, seed, wrap=True)
    per_trial = np.zeros(n_trials)
    for j in range(1, j_max + 1):
        pos = positions[j].astype(float)
        hit = (np.sum(pos**2, axis=1) <= r**2).astype(float)
        per_trial += decay**j * hit
    value = float(per_trial.mean()) / lam2
    stderr = float(per_trial.std(ddof=1) / math.sqrt(n_trials)) / lam2
    tail = decay ** (j_max + 1) / (alpha * lam2)
    return value, stderr, tail
