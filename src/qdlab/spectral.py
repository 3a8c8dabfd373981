"""Spectral-side tools: diagonalization, smooth energy windows, resolvents
and the Ward identity.

Resolvent conventions: R(z) = (H - z)^{-1} with Im z > 0 throughout, so
Im R_xx(E + i eta) > 0 and the diagonal Green function carries the local
density of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator

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
    """Dense chi((A - energy) / width) via the Fourier multiplier of A."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    multiplier = smooth_cutoff((momentum_grid(grid) - energy) / width)
    kernel = np.fft.ifftn(multiplier.astype(np.complex128))
    mat = circulant_from_kernel(grid, kernel)
    return mat.real if np.max(np.abs(mat.imag)) < 1e-12 else mat


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

    n = grid.n_sites
    op = LinearOperator((n, n), matvec=apply, rmatvec=apply, dtype=np.complex128)
    return op_norm(op, tol=PROJECTION_NORM_TOL, seed=seed)


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


# GMRES budget of resolvent_column: the true residual must reach
# COLUMN_RTOL within COLUMN_MAX_CYCLES restart cycles of COLUMN_RESTART
# Krylov vectors each (GMRES itself runs to COLUMN_RTOL / 10).
COLUMN_RTOL = 1e-10
COLUMN_RESTART = 60
COLUMN_MAX_CYCLES = 400


def _gmres(matvec, b: np.ndarray, rtol: float, restart: int, max_cycles: int):
    """Restarted GMRES for matvec(x) = b from x = 0: (x, converged), where
    converged means ||b - matvec(x)|| <= rtol ||b|| (Saad & Schultz 1986).

    The Krylov basis is one Fortran-ordered (n, restart + 1) array, and each
    new vector is orthogonalized by classical Gram-Schmidt applied twice
    (twice is enough), each pass two matrix-vector products.  The least
    squares residual is tracked by Givens rotations; a cycle ends at that
    estimate, at the restart length or at a happy breakdown, and the next one
    restarts from the recomputed residual.
    """
    atol = rtol * np.linalg.norm(b)
    eps = np.finfo(float).eps
    basis = np.empty((b.size, restart + 1), dtype=np.complex128, order="F")
    x = np.zeros_like(b)
    r = b.copy()
    for _ in range(max_cycles):
        beta = np.linalg.norm(r)
        if beta <= atol:
            return x, True
        basis[:, 0] = r / beta
        h = np.zeros((restart + 1, restart), dtype=np.complex128)
        g = np.zeros(restart + 1, dtype=np.complex128)
        g[0] = beta
        rotations = []
        for j in range(restart):
            w = matvec(basis[:, j])
            w_norm = np.linalg.norm(w)
            v = basis[:, : j + 1]
            # numpy's matmul, not scipy.linalg.blas: the two link separate
            # OpenBLAS copies, and alternating calls between their thread
            # pools made a d=3 L=24 column six times slower on 2 cores.
            for _ in range(2):
                c = np.conj(np.conj(w) @ v)  # V^H w
                w -= v @ c
                h[: j + 1, j] += c
            h[j + 1, j] = np.linalg.norm(w)
            breakdown = h[j + 1, j].real <= eps * w_norm
            if not breakdown:
                basis[:, j + 1] = w / h[j + 1, j]
            for i, (cs, sn) in enumerate(rotations):
                top, low = h[i, j], h[i + 1, j]
                h[i, j], h[i + 1, j] = cs * top + sn * low, cs * low - np.conj(sn) * top
            # The rotation [[cs, sn], [-conj(sn), cs]] zeroes h[j + 1, j].
            top, low = h[j, j], h[j + 1, j]
            norm = math.hypot(abs(top), abs(low))
            phase = top / abs(top) if top != 0 else 1.0
            cs, sn = abs(top) / norm, phase * np.conj(low) / norm
            rotations.append((cs, sn))
            h[j, j], h[j + 1, j] = phase * norm, 0.0
            g[j], g[j + 1] = cs * g[j], -np.conj(sn) * g[j]
            if abs(g[j + 1]) <= atol or breakdown:
                break
        y = scipy.linalg.solve_triangular(h[: j + 1, : j + 1], g[: j + 1])
        x += basis[:, : j + 1] @ y
        r = b - matvec(x)
    return x, bool(np.linalg.norm(r) <= atol)


def resolvent_column(spec: HamiltonianSpec, z: complex, site=None) -> np.ndarray:
    """One column R(z) e_site as a grid-shaped array.

    Matrix-free GMRES (`_gmres`), preconditioned on the right by the free
    resolvent (A - z)^{-1} applied through FFT.  The true residual
    ||(H - z) x - e_site|| is recomputed from x with the stencil
    (`hamiltonian_product`), which shares no code with the preconditioner;
    NonConvergenceError, with that residual, if it is above COLUMN_RTOL or
    GMRES ran out of its restart budget.

    The preconditioned operator is I + lam V (A - z)^{-1}, so convergence
    depends on lam^2 / eta (eta = Im z), not on the size.  Supported regime:
    lam^2 / eta of order one or below, as in criteria 8-10 and
    configs/deloc.ini (lam^2 / eta = 1, on a 2-core VM: 50-70 iterations,
    0.02-0.04 s a column at d=2 L=64, 0.6-0.85 s at L=256, 0.15-0.21 s at
    d=3 L=24).  Far above it GMRES slows down or stalls: at lam^2 / eta = 1000
    (d=2 L=16 lam=1 z=0.3+0.001i) one 256-site column takes about 6600
    iterations, 0.8-1.3 s, and at 25-200 on L=128-256 grids the restart
    budget runs out and NonConvergenceError is raised.
    """
    grid = spec.grid
    if z.imag == 0.0:
        raise ValueError("z must have a nonzero imaginary part")
    if site is None:
        site = (0,) * grid.d
    b = np.zeros(grid.shape, dtype=np.complex128)
    b[tuple(int(c) % grid.L for c in site)] = 1.0

    # (H - z) M = I + lam V M with M = (A - z)^{-1}: solve the preconditioned
    # system for y, then x = M y.
    lam_v = spec.potential
    omega_minus_z = momentum_grid(grid) - z

    def precond_matvec(y: np.ndarray) -> np.ndarray:
        my = apply_free_resolvent(omega_minus_z, y.reshape(grid.shape))
        return (y.reshape(grid.shape) + lam_v * my).ravel()

    y, converged = _gmres(
        precond_matvec, b.ravel(), COLUMN_RTOL / 10.0, COLUMN_RESTART, COLUMN_MAX_CYCLES
    )
    x = apply_free_resolvent(omega_minus_z, y.reshape(grid.shape))
    hx = hamiltonian_product(spec, x, np.empty_like(x))
    residual = np.linalg.norm((hx - z * x - b).ravel())
    if not converged or residual > COLUMN_RTOL:
        raise NonConvergenceError(
            f"resolvent solve at z={z} stalled: residual {residual:.3e} "
            f"> rtol {COLUMN_RTOL:.1e} (lam={spec.lam:g}, eta={z.imag:g}, "
            f"lam^2/eta={spec.lam ** 2 / abs(z.imag):.3g}; the free-resolvent "
            "preconditioner is weak when lam^2/eta is well above 1)"
        )
    return x


@dataclass(frozen=True)
class WardReport:
    """Column mass versus diagonal imaginary part at the same spectral point."""

    rel_error: float  # |mass - Im R_xx / eta| / mass, mass = sum_y |R_yx|^2


def ward_check(column: np.ndarray, z: complex, site=None) -> WardReport:
    """Verify sum_y |R_yx(z)|^2 = Im R_xx(z) / Im z for one resolvent column.

    The residual is normalized by the column mass (the identity's left side),
    which is strictly positive for any nonzero column.
    """
    eta = z.imag
    if eta <= 0:
        raise ValueError("ward_check expects Im z > 0")
    if site is None:
        site = (0,) * column.ndim
    lhs = float(np.sum(column.real**2 + column.imag**2))
    rhs = float(column[tuple(site)].imag / eta)
    return WardReport(abs(lhs - rhs) / max(lhs, 1e-300))

