"""Spectral-side tools: diagonalization, smooth energy windows, resolvents
and the Ward identity.

Resolvent conventions: R(z) = (H - z)^{-1} with Im z > 0 throughout, so
Im R_xx(E + i eta) > 0 and the diagonal Green function carries the local
density of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError
from .lattice import (
    DENSE_LIMIT,
    HamiltonianSpec,
    TorusGrid,
    circulant_from_kernel,
    dense_hamiltonian,
    hamiltonian_product,
    momentum_grid,
)
from .propagation import op_norm


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of one disorder realization in the window `dense_diagonalize`
    was given, columns = eigenvectors."""

    energies: np.ndarray
    vectors: np.ndarray


def dense_diagonalize(spec: HamiltonianSpec, window: tuple[float, float]) -> EigenDecomposition:
    """eigh of the dense Hamiltonian, with a residual certificate.

    Only the eigenpairs with lo < E <= hi, ``window = (lo, hi)``, are
    computed, which skips forming every other eigenvector.  The max-entry
    residual of H Q - Q diag(E) must not exceed 1e-10 times the spectral
    scale 2d + lam * max|V|; otherwise NonConvergenceError.
    """
    h = dense_hamiltonian(spec)
    energies, vectors = scipy.linalg.eigh(h, subset_by_value=window)
    scale = 2.0 * spec.grid.d + spec.lam * float(np.max(np.abs(spec.disorder.values)))
    residual = float(np.max(np.abs(h @ vectors - vectors * energies[None, :]), initial=0.0))
    if residual > 1e-10 * max(scale, 1.0):
        raise NonConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return EigenDecomposition(energies=energies, vectors=vectors)


def smooth_cutoff(x) -> np.ndarray:
    """C_infty bump: exp(1 - 1/(1 - x^2)) on (-1, 1), zero outside, peak 1 at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    u = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u * u))
    return out


def spectral_projection(
    eig: EigenDecomposition, energy: float, width: float
) -> np.ndarray:
    """Smoothed projection chi((H - energy) / width) from eigenpairs of H.

    chi vanishes outside |x| < 1, so any decomposition that holds every
    eigenpair with |E - energy| < width gives the same projection.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    weights = smooth_cutoff((eig.energies - energy) / width)
    q = eig.vectors
    return (q * weights[None, :]) @ q.conj().T


def free_cutoff_operator(grid: TorusGrid, energy: float, width: float) -> np.ndarray:
    """Dense chi((A - energy) / width) via the Fourier multiplier of A.

    chi(omega(xi)) is even in xi, so its kernel is real up to round-off.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    multiplier = smooth_cutoff((momentum_grid(grid) - energy) / width)
    return circulant_from_kernel(grid, np.fft.ifftn(multiplier).real)


# Relative tolerance of projection_deviation's certified norm.
PROJECTION_NORM_TOL = 1e-6


def projection_deviation(
    spec: HamiltonianSpec, energy: float, width: float, seed: int = 0
) -> float:
    """|| chi((H - E)/delta) - chi((A - E)/delta) || for one realization, to
    relative PROJECTION_NORM_TOL.

    The difference D is never formed: `op_norm` gets the operator
    v -> Q (chi_H * Q^T v) - F^{-1}[chi(omega) F v], where Q holds the k
    eigenvectors of H within delta of E (chi vanishes outside |x| < 1) and
    chi(omega) is the cutoff's Fourier multiplier on `momentum_grid`.  D is
    real symmetric, so one map serves both products; Q is real, so the real
    and imaginary parts of v go through it as one 2-column product.  A
    Lanczos step costs O(n k + n log n).  Zero coupling returns exactly 0:
    the operators then coincide, and the round-off left in the matrix-free
    difference carries no norm the restarts could certify.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if spec.lam == 0.0:
        return 0.0
    grid = spec.grid
    eig = dense_diagonalize(spec, window=(energy - width, energy + width))
    q = eig.vectors
    weights = smooth_cutoff((eig.energies - energy) / width)[:, None]
    multiplier = smooth_cutoff((momentum_grid(grid) - energy) / width)

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.complex128).ravel()
        parts = v.view(np.float64).reshape(-1, 2)  # columns: Re v, Im v
        near = q @ (weights * (q.T @ parts))
        free = np.fft.ifftn(multiplier * np.fft.fftn(v.reshape(grid.shape))).ravel()
        return near.view(np.complex128).ravel() - free

    return op_norm(apply, apply, grid.n_sites, tol=PROJECTION_NORM_TOL, seed=seed)


# ---------------------------------------------------------------------------
# Resolvents


def apply_free_resolvent(omega_minus_z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(A - z)^{-1} applied through the Fourier multiplier 1/(omega - z), given
    omega - z on the grid (``momentum_grid(grid) - z``)."""
    hat = np.fft.fftn(values)
    hat /= omega_minus_z
    return np.fft.ifftn(hat)


def resolvent_dense(spec: HamiltonianSpec, z: complex) -> np.ndarray:
    """Full (H - z)^{-1}; dense-regime sizes only."""
    n = spec.grid.n_sites
    if n > DENSE_LIMIT:
        raise ValueError(f"dense resolvent needs n_sites <= {DENSE_LIMIT}, got {n}")
    if z.imag == 0.0:
        raise ValueError("z must have a nonzero imaginary part")
    h = dense_hamiltonian(spec).astype(np.complex128)
    idx = np.arange(n)
    h[idx, idx] -= z
    return np.linalg.inv(h)


# Budget of resolvent_column: COCG runs to a residual of COLUMN_RTOL / 10
# within COLUMN_MAX_ITER iterations, and the true residual must then be at
# most COLUMN_RTOL.
COLUMN_RTOL = 1e-10
COLUMN_MAX_ITER = 2000


def resolvent_column(spec: HamiltonianSpec, z: complex, site=None) -> np.ndarray:
    """One column R(z) e_site as a grid-shaped array.

    Conjugate-orthogonal CG (van der Vorst & Melissen 1990) on
    (H - z) x = e_site, preconditioned by the free resolvent (A - z)^{-1}
    applied through FFT.  H - z and (A - z)^{-1} are complex symmetric, so
    CG runs with the unconjugated bilinear form x^T y in place of x^* y: one
    stencil, one preconditioner and four vector updates an iteration, with no
    Krylov basis and no restarts.  The recurrence residual must reach
    COLUMN_RTOL / 10 within COLUMN_MAX_ITER iterations; then the true residual
    ||(H - z) x - e_site|| is recomputed from x with the stencil
    (`hamiltonian_product`), which shares no code with the preconditioner.
    A spent budget, a breakdown (p^T (H - z) p = 0 or r^T (A - z)^{-1} r = 0)
    or a true residual above COLUMN_RTOL raises NonConvergenceError with that
    residual.

    The preconditioned operator is I + lam V (A - z)^{-1}, so convergence
    depends on lam^2 / eta (eta = Im z), not on the size.  Supported regime:
    lam^2 / eta of order one or below, as in criteria 8-10 and
    configs/deloc.ini (lam^2 / eta = 1, on a 2-core VM: 57-58 iterations,
    0.02 s a column at d=2 L=64; 62-63 iterations, 0.37-0.41 s at L=256;
    51-77 iterations, 0.07-0.19 s at d=3 L=24-32).  At lam^2 / eta = 1000
    (d=2 L=16 lam=1 z=0.3+0.001i) a column takes 254-278 iterations,
    0.02-0.04 s.  At 25-200 on L=128-256 grids the free preconditioner is too
    weak: the budget runs out after 2-10 s, with true residuals from 1e-3 up
    to 3e+2, and NonConvergenceError is raised.
    """
    grid = spec.grid
    if z.imag == 0.0:
        raise ValueError("z must have a nonzero imaginary part")
    if site is None:
        site = (0,) * grid.d
    b = np.zeros(grid.shape, dtype=np.complex128)
    b[tuple(int(c) % grid.L for c in site)] = 1.0
    omega_minus_z = momentum_grid(grid) - z

    def bilinear(u: np.ndarray, v: np.ndarray) -> complex:
        # x^T y, unconjugated.  numpy's matmul, not scipy.linalg.blas: the two
        # link separate OpenBLAS copies, and alternating calls between their
        # thread pools made a d=3 L=24 column six times slower on 2 cores.
        return complex(u.ravel() @ v.ravel())

    x = np.zeros_like(b)
    r = b.copy()  # ||b|| = 1
    p = apply_free_resolvent(omega_minus_z, r)
    rho = bilinear(r, p)
    q = np.empty_like(b)
    converged = False
    for iterations in range(1, COLUMN_MAX_ITER + 1):
        hamiltonian_product(spec, p, q)
        q -= z * p  # q = (H - z) p
        mu = bilinear(p, q)
        if mu == 0.0 or rho == 0.0:
            break
        alpha = rho / mu
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r.ravel()) <= COLUMN_RTOL / 10.0:
            converged = True
            break
        u = apply_free_resolvent(omega_minus_z, r)
        rho, rho_old = bilinear(r, u), rho
        p *= rho / rho_old
        p += u
    hx = hamiltonian_product(spec, x, q)
    residual = np.linalg.norm((hx - z * x - b).ravel())
    if not converged or residual > COLUMN_RTOL:
        raise NonConvergenceError(
            f"resolvent solve at z={z} stalled after {iterations} iterations: "
            f"residual {residual:.3e} > rtol {COLUMN_RTOL:.1e} (lam={spec.lam:g}, "
            f"eta={z.imag:g}, lam^2/eta={spec.lam ** 2 / abs(z.imag):.3g}; the "
            "free-resolvent preconditioner is weak when lam^2/eta is well above 1)"
        )
    return x


@dataclass(frozen=True)
class WardReport:
    """Column mass versus diagonal imaginary part at the same spectral point."""

    rel_error: float  # |mass - Im R_xx / eta| / mass, mass = sum_y |R_yx|^2


def ward_check(column: np.ndarray, z: complex, site) -> WardReport:
    """Verify sum_y |R_yx(z)|^2 = Im R_xx(z) / Im z for the column of ``site`` x.

    The residual is normalized by the column mass (the identity's left side),
    which is strictly positive for any nonzero column.
    """
    eta = z.imag
    if eta <= 0:
        raise ValueError("ward_check expects Im z > 0")
    lhs = float(np.sum(column.real**2 + column.imag**2))
    rhs = float(column[tuple(site)].imag / eta)
    return WardReport(abs(lhs - rhs) / max(lhs, 1e-300))

