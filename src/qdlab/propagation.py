"""Time evolution, mean-square displacement, and collision-expansion operators.

exp(-i t H) is applied with a Chebyshev polynomial expansion whose order is
certified by a Bessel-coefficient tail bound, so the propagator error is at
most ``tol`` in operator norm on the planned spectral interval.  One
recursion from t = 0 serves every sample time of a trajectory, each time
certified on its own; it runs in real arithmetic for a real start, since H
is real.  The Dyson
collision operators

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
from scipy.sparse.linalg import LinearOperator
from scipy.special import jv

from .errors import NonConvergenceError, OrderOverflowError
from .lattice import (
    DENSE_LIMIT,
    ComplexField,
    HamiltonianSpec,
    distance_sq_grid,
    free_propagate,
    free_propagator_dense,
    hamiltonian_product,
    rng_for,
)


class WraparoundWarning(UserWarning):
    """The wave packet has spread past a quarter of the torus."""


@dataclass(frozen=True)
class ChebyshevPlan:
    """Certified expansion of exp(-i t H) on a spectral interval."""

    interval: tuple[float, float]
    order: int
    tol: float

    @property
    def half_width(self) -> float:
        return 0.5 * (self.interval[1] - self.interval[0])


def _bessel_tail_order(tau: float, tol: float) -> int:
    """Smallest order m with sum_{k>m} 2|J_k(tau)| <= tol, via the certified
    bound |J_k(tau)| <= (tau e / 2k)^k / sqrt(2 pi k) and a geometric tail."""
    if tau < 1e-12:
        return 2
    lo = max(4, int(math.ceil(tau)))
    hi = max(lo + 64, int(math.ceil(1.5 * math.e / 2.0 * tau)) + 64)
    while True:
        ms = np.arange(lo, hi + 1, dtype=float)
        k1 = ms + 1.0
        ratio = tau * math.e / (2.0 * (ms + 2.0))
        log_b1 = k1 * (np.log(tau * math.e / 2.0) - np.log(k1)) - 0.5 * np.log(2.0 * np.pi * k1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_tail = log_b1 + np.log(2.0) - np.log1p(-np.minimum(ratio, 0.9))
        ok = (ratio <= 0.9) & (log_tail <= math.log(tol))
        hits = np.nonzero(ok)[0]
        if hits.size:
            return int(ms[hits[0]])
        lo, hi = hi + 1, 2 * hi  # tau huge relative to first window; widen


def plan_evolution(
    spec: HamiltonianSpec, t: float, tol: float = 1e-8, max_order: int = 500_000
) -> ChebyshevPlan:
    """Choose the expansion interval and certified order for exp(-i t H).

    The interval covers [-2d - 6 lam, 2d + 6 lam] and additionally the realized
    spectral bound 2d + lam * max|V|, so it always contains spec(H).
    """
    if not (1e-14 < tol < 1e-4):
        raise ValueError(f"tol must lie in (1e-14, 1e-4), got {tol}")
    band = 2.0 * spec.grid.d
    margin = 0.0
    if spec.lam > 0.0:
        margin = spec.lam * max(6.0, float(np.max(np.abs(spec.disorder.values))))
    half = band + margin
    tau = abs(t) * half
    order = _bessel_tail_order(tau, tol)
    if order > max_order:
        raise OrderOverflowError(
            f"exp(-i t H) at t={t} needs Chebyshev order {order} > max_order={max_order}"
        )
    return ChebyshevPlan(interval=(-half, half), order=order, tol=tol)


def _chebyshev(
    spec: HamiltonianSpec, start: np.ndarray, times: np.ndarray, tol: float, max_order: int
):
    """Yield (j, even, odd) with exp(-i t_j H) start = even + i odd, for every
    time, from one Chebyshev recursion.

    exp(-i t H) = sum_k (2 - delta_k0) (-i sgn t)^k J_k(a|t|) T_k(H/a) on the
    planned interval [-a, a].  (-i sgn t)^k is real for even k and -i sgn t
    times a real sign for odd k, so each time keeps an even and an odd
    accumulator with real coefficients.  For a real start the vectors
    T_k(H/a) start are real, and everything runs in the start's dtype.

    ``start`` is taken over as the T_0 buffer.  Every order is planned before
    the first step, so OrderOverflowError comes first.  Time j stops
    accumulating past its own certified order and is yielded (in order of
    certified order, ties in index order); the caller may overwrite the
    accumulators it is given.  3 + 2 * len(times) fields of the start's dtype
    are held.
    """
    plans = [plan_evolution(spec, t, tol=tol, max_order=max_order) for t in times]
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
    max_order: int = 500_000,
) -> ComplexField:
    """psi -> exp(-i t H) psi.  Signed t is accepted (negative t = adjoint)."""
    if field.grid != spec.grid:
        raise ValueError("field grid does not match Hamiltonian grid")
    ((_, psi, odd),) = _chebyshev(spec, field.values.copy(), np.array([float(t)]), tol, max_order)
    psi += 1j * odd
    return ComplexField(spec.grid, psi)


def _spread(weights: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """(sum w rho / sum rho, sum rho) for a density rho = |psi|^2."""
    total = float(np.sum(density))
    if total == 0.0:
        raise ValueError("cannot form the displacement average of the zero field")
    return float(np.vdot(weights, density)) / total, total


def msd(field: ComplexField, origin=None) -> float:
    """Mean-square displacement sum |x|^2 |psi(x)|^2 / ||psi||^2, minimal-image."""
    density = field.values.real**2 + field.values.imag**2
    return _spread(distance_sq_grid(field.grid, origin), density)[0]


@dataclass
class TrajectoryRecord:
    """Sampled evolution record of one disorder realization."""

    d: int
    L: int
    lam: float
    seed: int
    times: np.ndarray
    msd: np.ndarray
    mass: np.ndarray
    avg_msd: np.ndarray  # running (1/(t-t_0)) * int r^2, trapezoidal


def run_trajectory(
    spec: HamiltonianSpec,
    times,
    psi0: ComplexField | None = None,
    tol: float = 1e-8,
    seed: int = -1,
    max_order: int = 500_000,
) -> TrajectoryRecord:
    """Evolve (default: from a point mass at the origin) and sample r^2(t).

    Every sample time is read off one Chebyshev recursion from t = 0, each
    certified to ``tol`` on its own (errors do not add up over the times),
    with the order of the largest time checked against ``max_order`` before
    any step.  The recursion runs in the start's dtype, real for the default
    point mass, and holds 3 + 2 * len(times) fields of that dtype.  A
    WraparoundWarning fires once if r(t) exceeds L/4, where the
    minimal-image r^2 starts to saturate.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be strictly increasing and non-negative")
    grid = spec.grid
    if psi0 is None:
        start = np.zeros(grid.shape)
        start[(0,) * grid.d] = 1.0
    elif psi0.grid != grid:
        raise ValueError(f"psi0 lives on {psi0.grid}, the Hamiltonian on {grid}")
    else:
        start = psi0.values.copy()

    weights = distance_sq_grid(grid)
    msds = np.empty(times.size)
    masses = np.empty(times.size)
    for j, even, odd in _chebyshev(spec, start, times, tol, max_order):
        # |even + i odd|^2, in the accumulators' own memory when they are real.
        if np.iscomplexobj(even):
            even += 1j * odd
            density = even.real**2 + even.imag**2
        else:
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
    if times.size > 1:
        segments = 0.5 * np.diff(times) * (msds[1:] + msds[:-1])
        avg[1:] = np.cumsum(segments) / (times[1:] - times[0])
    return TrajectoryRecord(
        d=spec.grid.d,
        L=spec.grid.L,
        lam=spec.lam,
        seed=seed,
        times=times,
        msd=msds,
        mass=masses,
        avg_msd=avg,
    )


# ---------------------------------------------------------------------------
# Operator norms


def _lanczos_top_sigma(op: LinearOperator, rng, tol: float, max_iter: int) -> float:
    """Top singular value of op by Lanczos on A*A from one random start.

    Full reorthogonalization (the Krylov depths here are small compared to the
    matvec cost, and spurious Ritz copies would defeat the residual test).
    Converged when the Ritz residual bound beta*|y_last| certifies the top
    Ritz value of A*A to relative tol.
    """
    n = op.shape[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    resid = np.inf
    for _ in range(max_iter):
        w = op.rmatvec(op.matvec(basis[-1]))
        alphas.append(float(np.real(np.vdot(basis[-1], w))))
        for _ in range(2):  # twice-is-enough reorthogonalization
            for q in basis:
                w -= np.vdot(q, w) * q
        beta = float(np.linalg.norm(w))
        t_mat = np.diag(alphas).astype(float)
        if len(alphas) > 1:
            off = np.asarray(betas)
            t_mat += np.diag(off, 1) + np.diag(off, -1)
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
        f"norm iteration did not converge in {max_iter} steps "
        f"(residual bound {resid:.3e} vs target {tol * max(theta, 1e-300):.3e})"
    )


def _real_matrix_product(m: np.ndarray):
    """v -> m @ v for a real matrix m and a complex v.

    numpy would cast m to complex on every product with a complex vector;
    the real and imaginary parts of v are multiplied separately instead.
    """

    def apply(v: np.ndarray) -> np.ndarray:
        out = np.empty(m.shape[:1] + v.shape[1:], dtype=np.complex128)
        out.real = m @ v.real
        out.imag = m @ v.imag
        return out

    return apply


def op_norm(
    a,
    tol: float = 1e-6,
    max_iter: int = 1000,
    seed: int = 0,
    restarts: int = 2,
) -> float:
    """Largest singular value by Krylov (Lanczos) iteration on A*A.

    Differences of near-commuting unitaries -- the routine client here --
    carry a continuum of near-top singular values, which stalls plain power
    iteration below the norm; the Lanczos recurrence resolves such tops in a
    few dozen matvec pairs.  Certified by `restarts` independent randomized
    starts that must agree within 2*tol relative; disagreement or hitting
    max_iter raises NonConvergenceError rather than returning a silent
    underestimate.
    """
    if isinstance(a, LinearOperator):
        op = a
    else:
        mat = np.asarray(a)
        if mat.ndim != 2:
            raise ValueError("op_norm expects a matrix or a LinearOperator")
        if np.isrealobj(mat):
            matvec, rmatvec = _real_matrix_product(mat), _real_matrix_product(mat.T)
        else:
            herm = mat.conj().T
            matvec, rmatvec = (lambda v: mat @ v), (lambda v: herm @ v)
        # An explicit dtype keeps scipy from probing the operator with a matvec.
        op = LinearOperator(mat.shape, matvec=matvec, rmatvec=rmatvec, dtype=np.complex128)
    estimates = []
    for r in range(restarts):
        rng = rng_for(seed, stream=0xA11CE + r)
        estimates.append(_lanczos_top_sigma(op, rng, tol, max_iter))
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
    free_cache: dict[float, np.ndarray] = {}

    def free(tt: float) -> np.ndarray:
        key = round(tt, 14)
        if key not in free_cache:
            free_cache[key] = free_propagator_dense(grid, tt)
        return free_cache[key]

    def level(j: int, tt: float) -> np.ndarray:
        if j == 0:
            return free(tt)
        nodes, weights = np.polynomial.legendre.leggauss(n_quad)
        s = 0.5 * tt * (nodes + 1.0)
        w = 0.5 * tt * weights
        acc = np.zeros((grid.n_sites, grid.n_sites), dtype=np.complex128)
        for s_i, w_i in zip(s, w):
            acc += w_i * (free(tt - s_i) @ (v_diag[:, None] * level(j - 1, s_i)))
        return acc

    return level(k, float(t))


def propagator_deviation(
    spec: HamiltonianSpec,
    t: float,
    tol: float = 1e-3,
    chebyshev_tol: float = 1e-8,
    seed: int = 0,
    max_iter: int = 1000,
) -> float:
    """|| exp(-itH) - exp(-itA) || via matrix-free Lanczos iteration.

    Zero coupling or zero time short-circuits to 0 (the operators coincide
    exactly, not merely to propagator tolerance).
    """
    if spec.lam == 0.0 or t == 0.0:
        return 0.0
    grid = spec.grid
    n = grid.n_sites

    def diff(v: np.ndarray, sign: float) -> np.ndarray:
        f = ComplexField(grid, v.reshape(grid.shape))
        full = evolve(spec, f, sign * t, tol=chebyshev_tol).values
        free = free_propagate(f, sign * t).values
        return (full - free).ravel()

    op = LinearOperator(
        (n, n),
        matvec=lambda v: diff(v, +1.0),
        rmatvec=lambda v: diff(v, -1.0),
        dtype=np.complex128,
    )
    return op_norm(op, tol=tol, max_iter=max_iter, seed=seed)
