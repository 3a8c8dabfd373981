"""Time evolution, mean-square displacement, and collision-expansion operators.

exp(-i t H) is applied with a Chebyshev polynomial expansion whose order is
certified by Kapteyn's bound on the Bessel-coefficient tail, so the
propagator error is at most ``tol`` in operator norm on the planned spectral
interval.  One recursion from t = 0 serves every sample time of a
trajectory, each time certified on its own; it runs in real arithmetic for a
real start, since H is real.  For a point-mass start the recursion of order R
runs on the smallest torus that holds its R-hop light cone, exactly: p(H)
delta_0 is the same site by site for every polynomial p of degree <= R.  The
Dyson collision operators

    T_0(t) = exp(-i t A),   T_j(t) = int_0^t exp(-i (t-s) A) V T_{j-1}(s) ds

(A = free adjacency, V = bare disorder) satisfy exp(-i t H) =
sum_j (-i lam)^j T_j(t) + remainder and the composition identity
T_k(s + t) = sum_{j<=k} T_j(s) T_{k-j}(t); both are exercised in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg.blas import get_blas_funcs
from scipy.special import jv

from .errors import NonConvergenceError, OrderOverflowError
from .lattice import (
    DENSE_LIMIT,
    ComplexField,
    DisorderField,
    HamiltonianSpec,
    TorusGrid,
    distance_sq_grid,
    free_propagate,
    free_propagator_dense,
    hamiltonian_product,
    minimal_image,
    rng_for,
)


# Largest Chebyshev order any evolution may plan.
MAX_ORDER = 500_000


class WraparoundWarning(UserWarning):
    """The wave packet has spread past a quarter of the torus."""


@dataclass(frozen=True)
class ChebyshevPlan:
    """Certified expansion of exp(-i t H) on [-half_width, half_width]."""

    half_width: float
    order: int


def _kapteyn_log_bound(tau: float, k: np.ndarray) -> np.ndarray:
    """log b_k of Kapteyn's bound |J_k(tau)| <= b_k = (x e^s / (1 + s))^k,
    x = tau / k, s = sqrt(1 - x^2), for k >= tau > 0 (DLMF 10.14.5).

    With q = k s = sqrt(k^2 - tau^2), log b_k = k ln(tau / (k + q)) + q.
    """
    q = np.sqrt((k - tau) * (k + tau))
    return k * np.log(tau / (k + q)) + q


def _bessel_tail_order(tau: float, tol: float) -> int:
    """Smallest order m >= 2 whose certified tail sum_{k>m} 2|J_k(tau)| is <= tol.

    Each |J_k(tau)| with k >= tau is bounded by Kapteyn's b_k = exp f(k),
    f(k) = k ln(tau / (k + q)) + q, q = sqrt(k^2 - tau^2) (`_kapteyn_log_bound`).
    Then f'(k) = ln(x / (1 + s)) with x = tau / k, s = q / k, which is < 0
    for k > tau, and f''(k) = -1 / q < 0.  So the ratios
    b_{k+1} / b_k = exp(int_k^{k+1} f') are below 1 and decrease with k.  For
    m + 1 >= tau every b_{m+1+j} is then at most b_{m+1} rho^j with
    rho = b_{m+2} / b_{m+1}, and the tail is at most 2 b_{m+1} / (1 - rho).
    Both factors fall with m, so the first m that meets tol, scanning up from
    ceil(tau) - 1, is the smallest.
    """
    if tau < 1e-12:
        return 2
    lo, width = max(2, math.ceil(tau) - 1), 64
    while True:
        ms = np.arange(lo, lo + width, dtype=float)
        log_b1 = _kapteyn_log_bound(tau, ms + 1.0)
        log_rho = _kapteyn_log_bound(tau, ms + 2.0) - log_b1
        log_tail = math.log(2.0) + log_b1 - np.log(-np.expm1(log_rho))
        hits = np.nonzero(log_tail <= math.log(tol))[0]
        if hits.size:
            return int(ms[hits[0]])
        lo, width = lo + width, 2 * width  # tau large against the window; widen


def plan_evolution(
    spec: HamiltonianSpec, t: float, tol: float = 1e-8, max_order: int = MAX_ORDER
) -> ChebyshevPlan:
    """Choose the expansion interval and certified order for exp(-i t H).

    The interval covers [-2d - 6 lam, 2d + 6 lam] and additionally the realized
    spectral bound 2d + lam * max|V|, so it always contains spec(H).
    """
    if not (1e-14 < tol < 1e-4):
        raise ValueError(f"tol must lie in (1e-14, 1e-4), got {tol}")
    band = 2.0 * spec.grid.d
    half = band + spec.lam * max(6.0, float(np.max(np.abs(spec.disorder.values))))
    tau = abs(t) * half
    order = _bessel_tail_order(tau, tol)
    if order > max_order:
        raise OrderOverflowError(
            f"exp(-i t H) at t={t} needs Chebyshev order {order} > max_order={max_order}"
        )
    return ChebyshevPlan(half_width=half, order=order)


def _chebyshev(
    spec: HamiltonianSpec, start: np.ndarray, times: np.ndarray, plans: list[ChebyshevPlan]
):
    """Yield (j, even, odd) with exp(-i t_j H) start = even + i odd, for every
    time, from one Chebyshev recursion with the given plans (one per time,
    sharing one half-width).

    exp(-i t H) = sum_k (2 - delta_k0) (-i sgn t)^k J_k(a|t|) T_k(H/a) on the
    planned interval [-a, a].  (-i sgn t)^k is real for even k and -i sgn t
    times a real sign for odd k, so each time keeps an even and an odd
    accumulator with real coefficients.  For a real start the vectors
    T_k(H/a) start are real, and everything runs in the start's dtype.

    ``start`` is taken over as the T_0 buffer.  Time j stops accumulating
    past its own certified order and is yielded (in order of certified order,
    ties in index order); the caller may overwrite the accumulators it is
    given.  3 + 2 * len(times) fields of the start's dtype are held.
    """
    rank = np.argsort([plan.order for plan in plans], kind="stable")
    orders = [plans[i].order for i in rank]
    a = plans[0].half_width
    k = np.arange(orders[-1] + 1)
    # coeff[k, i] multiplies T_k for the time rank[i].
    coeff = jv(k[:, None], a * np.abs(times[rank])) * np.where(k % 4 < 2, 2.0, -2.0)[:, None]
    coeff[0] *= 0.5
    coeff[1::2] *= -np.sign(times[rank])

    # T_{k-2}, T_{k-1}, T_k rotate through three buffers; each step writes
    # H T_{k-1} in place, scales it by 2/a and subtracts T_{k-2}.  Row i of
    # even / odd accumulates the time rank[i], so the rows still accumulating
    # are a trailing block, updated by one rank-1 BLAS call (ger) per step.
    # One axpy call per time does the same arithmetic, but on fields of a few
    # 10^4 sites BLAS's thread hand-off per call then costs more than it.
    ger = get_blas_funcs("ger", (start,))
    v0 = start
    v1 = hamiltonian_product(spec, v0, np.empty_like(v0))
    v1 *= 1.0 / a
    v2 = np.empty_like(v0)
    even = coeff[0, :, None] * v0.ravel()
    odd = coeff[1, :, None] * v1.ravel()
    done = 0
    for step in range(2, k.size):
        hamiltonian_product(spec, v1, v2)
        v2 *= 2.0 / a
        v2 -= v0
        acc = even if step % 2 == 0 else odd
        ger(1.0, v2.ravel(), coeff[step, done:], a=acc[done:].T, overwrite_a=True)
        while done < len(orders) and orders[done] == step:
            yield rank[done], even[done].reshape(start.shape), odd[done].reshape(start.shape)
            done += 1
        v0, v1, v2 = v1, v2, v0


def evolve(
    spec: HamiltonianSpec,
    field: ComplexField,
    t: float,
    tol: float = 1e-8,
    max_order: int = MAX_ORDER,
) -> ComplexField:
    """psi -> exp(-i t H) psi.  Signed t is accepted (negative t = adjoint)."""
    if field.grid != spec.grid:
        raise ValueError("field grid does not match Hamiltonian grid")
    plan = plan_evolution(spec, t, tol=tol, max_order=max_order)
    ((_, psi, odd),) = _chebyshev(spec, field.values.copy(), np.array([float(t)]), [plan])
    psi += 1j * odd
    return ComplexField(spec.grid, psi)


def _spread(weights: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """(sum w rho / sum rho, sum rho) for a density rho = |psi|^2."""
    total = float(np.sum(density))
    if total == 0.0:
        raise ValueError("cannot form the displacement average of the zero field")
    return float(np.vdot(weights, density)) / total, total


@dataclass
class TrajectoryRecord:
    """Sampled evolution record of one disorder realization."""

    seed: int
    times: np.ndarray
    msd: np.ndarray
    mass: np.ndarray
    avg_msd: np.ndarray  # running (1/(t-t_0)) * int r^2, trapezoidal


def run_trajectory(
    spec: HamiltonianSpec, times, tol: float = 1e-8, seed: int = -1
) -> TrajectoryRecord:
    """Evolve a point mass at the origin and sample r^2(t).

    Every sample time is read off one Chebyshev recursion from t = 0, each
    certified to ``tol`` on its own (errors do not add up over the times),
    with the order of the largest time checked against MAX_ORDER before any
    step.  Since H is nearest-neighbour, a polynomial of degree <= R in H
    maps the point mass to a field supported within R hops of the origin,
    and a path of at most R hops never crosses the wrap edge of a side-M
    torus, M = 2R + 1.  So with R the largest planned order, the recursion
    runs exactly on the side-min(L, 2R + 1) crop of the torus around the
    origin (the torus itself when the cone is wider), with the full torus's
    expansion interval and orders.  It runs in real arithmetic and holds
    3 + 2 * len(times) real fields of the crop's side.  A WraparoundWarning
    fires once if r(t) exceeds L/4 of the full torus, where the minimal-image
    r^2 starts to saturate.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    grid = spec.grid
    plans = [plan_evolution(spec, t, tol=tol, max_order=MAX_ORDER) for t in times]
    side = min(grid.L, 2 * max(plan.order for plan in plans) + 1)
    crop = TorusGrid(grid.d, side)
    # Crop site x is the torus site at x's minimal-image offset on the crop,
    # so the origin stays at 0; at side = L the crop is the torus itself.
    index = minimal_image(crop, np.arange(side)) % grid.L
    disorder = DisorderField(crop, spec.disorder.values[np.ix_(*[index] * grid.d)])
    cropped = HamiltonianSpec(crop, spec.lam, disorder)
    start = np.zeros(crop.shape)
    start[(0,) * grid.d] = 1.0

    weights = distance_sq_grid(crop)
    msds = np.empty(times.size)
    masses = np.empty(times.size)
    for j, even, odd in _chebyshev(cropped, start, times, plans):
        # |even + i odd|^2, in the accumulators' own memory.
        density = np.square(even, out=even)
        density += np.square(odd, out=odd)
        msds[j], masses[j] = _spread(weights, density)
    far = np.nonzero(np.sqrt(msds) > grid.L / 4.0)[0]
    if far.size:
        i = far[0]
        warnings.warn(
            f"r(t)={math.sqrt(msds[i]):.1f} exceeds L/4={grid.L / 4:.1f} at t={times[i]}; "
            "minimal-image displacement is saturating",
            WraparoundWarning,
            stacklevel=2,
        )

    avg = np.empty(times.size)
    avg[0] = msds[0]
    segments = 0.5 * np.diff(times) * (msds[1:] + msds[:-1])
    avg[1:] = np.cumsum(segments) / (times[1:] - times[0])
    return TrajectoryRecord(seed=seed, times=times, msd=msds, mass=masses, avg_msd=avg)


# ---------------------------------------------------------------------------
# Operator norms

# Lanczos steps each start of op_norm may take before NonConvergenceError.
LANCZOS_MAX_ITER = 1000


def _lanczos_top_sigma(matvec, rmatvec, n: int, rng, tol: float) -> float:
    """Top singular value of the n-column operator A (``matvec``) with adjoint
    ``rmatvec`` by Lanczos on A*A from one random start.

    Full reorthogonalization (the Krylov depths here are small compared to the
    matvec cost, and spurious Ritz copies would defeat the residual test).
    Converged when the Ritz residual bound beta*|y_last| certifies the top
    Ritz value of A*A to relative tol.
    """
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    resid = np.inf
    for _ in range(LANCZOS_MAX_ITER):
        w = rmatvec(matvec(basis[-1]))
        alphas.append(float(np.real(np.vdot(basis[-1], w))))
        for _ in range(2):  # twice-is-enough reorthogonalization
            for q in basis:
                w -= np.vdot(q, w) * q
        beta = float(np.linalg.norm(w))
        off = np.asarray(betas)
        t_mat = np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1)
        evals, evecs = np.linalg.eigh(t_mat)
        theta = float(evals[-1])
        resid = beta * abs(float(evecs[-1, -1]))
        scale = max(theta, 1e-300)
        if resid <= tol * scale or beta <= 1e-13 * scale:
            # Either the bound certifies the Ritz value, or the Krylov space
            # is exhausted (beta ~ 0: exact on the explored invariant subspace).
            return math.sqrt(max(theta, 0.0))
        betas.append(beta)
        basis.append(w / beta)
    raise NonConvergenceError(
        f"norm iteration did not converge in {LANCZOS_MAX_ITER} steps "
        f"(residual bound {resid:.3e} vs target {tol * max(theta, 1e-300):.3e})"
    )


def op_norm(matvec, rmatvec, n: int, tol: float = 1e-6, seed: int = 0, restarts: int = 2) -> float:
    """Largest singular value of the operator on length-n complex vectors
    whose products are ``matvec`` (A v) and ``rmatvec`` (A* v), by Krylov
    (Lanczos) iteration on A*A.

    Differences of near-commuting unitaries -- the routine client here --
    carry a continuum of near-top singular values, which stalls plain power
    iteration below the norm; the Lanczos recurrence resolves such tops in a
    few dozen matvec pairs.  Certified by `restarts` independent randomized
    starts that must agree within 2*tol relative; disagreement or a start
    running out of LANCZOS_MAX_ITER steps raises NonConvergenceError rather
    than returning a silent underestimate.
    """
    estimates = []
    for r in range(restarts):
        rng = rng_for(seed, stream=0xA11CE + r)
        estimates.append(_lanczos_top_sigma(matvec, rmatvec, n, rng, tol))
    spread = max(estimates) - min(estimates)
    if spread > 2.0 * tol * max(max(estimates), 1e-300):
        raise NonConvergenceError(
            f"norm iteration restarts disagree: {estimates} (spread {spread:.3e})"
        )
    return max(estimates)


# ---------------------------------------------------------------------------
# Collision operators


def dyson_Tk(spec: HamiltonianSpec, k: int, t: float, n_quad: int = 24) -> np.ndarray:
    """Dense T_k(t) by nested Gauss-Legendre quadrature of the recursion."""
    grid = spec.grid
    if grid.n_sites > DENSE_LIMIT:
        raise ValueError("dyson_Tk is a dense-regime operation")
    if not 0 <= k <= 4:
        raise ValueError(f"k must be in 0..4, got {k}")
    v_diag = spec.disorder.values.ravel()
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    free_cache: dict[float, np.ndarray] = {}

    def free(tt: float) -> np.ndarray:
        key = round(tt, 14)
        if key not in free_cache:
            free_cache[key] = free_propagator_dense(grid, tt)
        return free_cache[key]

    def level(j: int, tt: float) -> np.ndarray:
        if j == 0:
            return free(tt)
        s = 0.5 * tt * (nodes + 1.0)
        w = 0.5 * tt * weights
        acc = np.zeros((grid.n_sites, grid.n_sites), dtype=np.complex128)
        for s_i, w_i in zip(s, w):
            acc += w_i * (free(tt - s_i) @ (v_diag[:, None] * level(j - 1, s_i)))
        return acc

    return level(k, float(t))


def propagator_deviation(
    spec: HamiltonianSpec, t: float, tol: float = 1e-3, seed: int = 0
) -> float:
    """|| exp(-itH) - exp(-itA) || via matrix-free Lanczos iteration to ``tol``.

    Both propagators are applied at `evolve`'s default tolerance.  Zero
    coupling or zero time short-circuits to 0 (the operators coincide
    exactly, not merely to propagator tolerance).
    """
    if spec.lam == 0.0 or t == 0.0:
        return 0.0
    grid = spec.grid
    n = grid.n_sites

    def diff(v: np.ndarray, sign: float) -> np.ndarray:
        f = ComplexField(grid, v.reshape(grid.shape))
        full = evolve(spec, f, sign * t).values
        free = free_propagate(f, sign * t).values
        return (full - free).ravel()

    return op_norm(lambda v: diff(v, +1.0), lambda v: diff(v, -1.0), n, tol=tol, seed=seed)
