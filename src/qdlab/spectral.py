"""Spectral-side tools: diagonalization, smooth energy windows, resolvents,
and (p, q) operator norms.

Resolvent conventions: R(z) = (H - z)^{-1} with Im z > 0 throughout, so
Im R_xx(E + i eta) > 0 and the diagonal Green function carries the local
density of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NonConvergenceError
from .lattice import (
    DENSE_LIMIT,
    HamiltonianSpec,
    TorusGrid,
    circulant_from_kernel,
    dense_hamiltonian,
    momentum_grid,
    rng_for,
)
from .propagation import op_norm


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of one disorder realization, columns = eigenvectors."""

    energies: np.ndarray
    vectors: np.ndarray


def dense_diagonalize(spec: HamiltonianSpec) -> EigenDecomposition:
    """Full eigh of the dense Hamiltonian, with a residual certificate.

    The max-entry residual of H Q - Q diag(E) must not exceed 1e-10 times the
    spectral scale 2d + lam * max|V|; otherwise NonConvergenceError.
    """
    h = dense_hamiltonian(spec)
    energies, vectors = np.linalg.eigh(h)
    scale = 2.0 * spec.grid.d + spec.lam * float(np.max(np.abs(spec.disorder.values)))
    residual = float(np.max(np.abs(h @ vectors - vectors * energies[None, :])))
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
    """Smoothed projection chi((H - energy) / width) from a full spectrum."""
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


def projection_deviation(
    spec: HamiltonianSpec,
    energy: float,
    width: float,
    tol: float = 1e-6,
    seed: int = 0,
) -> float:
    """|| chi((H - E)/delta) - chi((A - E)/delta) || for one realization."""
    eig = dense_diagonalize(spec)
    diff = spectral_projection(eig, energy, width) - free_cutoff_operator(
        spec.grid, energy, width
    )
    return op_norm(diff, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# Resolvents


def apply_free_resolvent(grid: TorusGrid, z: complex, values: np.ndarray) -> np.ndarray:
    """(A - z)^{-1} applied through the Fourier multiplier 1/(omega - z)."""
    hat = np.fft.fftn(values)
    hat /= momentum_grid(grid) - z
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


def resolvent_column(
    spec: HamiltonianSpec,
    z: complex,
    site=None,
    rtol: float = 1e-10,
    maxiter: int = 400,
) -> np.ndarray:
    """One column R(z) e_site as a grid-shaped array.

    Dense LU up to DENSE_LIMIT sites; beyond that, GMRES preconditioned on the
    right by the free resolvent, with the achieved true residual re-checked
    (NonConvergenceError if above rtol).
    """
    grid = spec.grid
    if z.imag == 0.0:
        raise ValueError("z must have a nonzero imaginary part")
    if site is None:
        site = (0,) * grid.d
    n = grid.n_sites
    b = np.zeros(grid.shape, dtype=np.complex128)
    b[tuple(int(c) % grid.L for c in site)] = 1.0

    if n <= DENSE_LIMIT:
        h = dense_hamiltonian(spec).astype(np.complex128)
        idx = np.arange(n)
        h[idx, idx] -= z
        lu, piv = scipy.linalg.lu_factor(h, check_finite=False)
        x = scipy.linalg.lu_solve((lu, piv), b.ravel(), check_finite=False)
        return x.reshape(grid.shape)

    # (H - z) M = I + lam V M with M = (A - z)^{-1}: solve the preconditioned
    # system for y, then x = M y.
    lam_v = spec.lam * spec.disorder.values

    def precond_matvec(y: np.ndarray) -> np.ndarray:
        my = apply_free_resolvent(grid, z, y.reshape(grid.shape))
        return (y.reshape(grid.shape) + lam_v * my).ravel()

    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=precond_matvec, dtype=np.complex128
    )
    y, info = scipy.sparse.linalg.gmres(
        op, b.ravel(), rtol=rtol / 10.0, atol=0.0, maxiter=maxiter, restart=60
    )
    x = apply_free_resolvent(grid, z, y.reshape(grid.shape))
    hx = np.fft.ifftn(np.fft.fftn(x) * momentum_grid(grid))  # A x
    residual = np.linalg.norm((hx + lam_v * x - z * x - b).ravel())
    if info != 0 or residual > rtol:
        raise NonConvergenceError(
            f"resolvent solve at z={z} stalled: residual {residual:.3e} > rtol {rtol:.1e}"
        )
    return x


@dataclass(frozen=True)
class WardReport:
    """Column mass versus diagonal imaginary part at the same spectral point."""

    column_mass: float  # sum_y |R_yx|^2
    diag_imag_over_eta: float  # Im R_xx / eta
    rel_error: float  # |mass - Im R_xx / eta| / mass


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
    return WardReport(lhs, rhs, abs(lhs - rhs) / max(lhs, 1e-300))


# ---------------------------------------------------------------------------
# (p, q) operator norms

SUPPORTED_PQ = ((1, 2), (2, 2), (1, 4), (2, 4), (1, 6), (2, 6), (1, math.inf))


def _column_lq(mat: np.ndarray, q: float) -> np.ndarray:
    a = np.abs(mat)
    if q == math.inf:
        return a.max(axis=0)
    return (a**q).sum(axis=0) ** (1.0 / q)


def matrix_lpq_norm(
    mat: np.ndarray,
    p: float,
    q: float,
    tol: float = 1e-8,
    max_iter: int = 2000,
    restarts: int = 4,
    seed: int = 0,
) -> float:
    """||A||_{p -> q} = sup ||A x||_q / ||x||_p for the supported (p, q) pairs.

    p = 1 is exact (max column l_q norm).  p = 2 uses the l_2 -> l_q power
    method of Boyd (ascent on ||A x||_q, restarted); for q = 2 it delegates
    to the certified top-singular-value routine.
    """
    if (p, q) not in SUPPORTED_PQ:
        raise ValueError(f"unsupported (p, q) = {(p, q)}; supported: {SUPPORTED_PQ}")
    mat = np.asarray(mat)
    if p == 1:
        return float(_column_lq(mat, q).max())
    if q == 2:
        return op_norm(mat, tol=tol, max_iter=max_iter, seed=seed)

    # Boyd ascent: x <- A^H psi_q(A x), psi_q(y) = |y|^{q-1} phase(y).
    herm = mat.conj().T
    best = 0.0
    for r in range(restarts):
        rng = rng_for(seed, stream=0xB0FD + r)
        x = rng.standard_normal(mat.shape[1]) + 1j * rng.standard_normal(mat.shape[1])
        x /= np.linalg.norm(x)
        prev = 0.0
        for _ in range(max_iter):
            y = mat @ x
            val = float(np.sum(np.abs(y) ** q) ** (1.0 / q))
            if val == 0.0:
                break
            g = herm @ (np.abs(y) ** (q - 1.0) * np.exp(1j * np.angle(y)))
            ng = np.linalg.norm(g)
            if ng == 0.0:
                break
            x = g / ng
            if abs(val - prev) <= tol * max(val, 1e-300):
                break
            prev = val
        else:
            raise NonConvergenceError(
                f"l2->l{q} power method did not settle in {max_iter} iterations"
            )
        best = max(best, val)
    return best


@dataclass(frozen=True)
class NormEstimate:
    """A mixed-norm value with the method that produced it.

    The method is always ``exact``: all n_sample = n columns (p = 1) or the
    convergent power method on the dense resolvent (p = 2).
    """

    p: float
    q: float
    value: float
    method: str
    n_sample: int


def lpq_norm(
    spec: HamiltonianSpec,
    z: complex,
    p: float,
    q: float,
    tol: float = 1e-8,
    seed: int = 0,
) -> NormEstimate:
    """Mixed (p -> q) norm of the resolvent R(z) = (H - z)^{-1}, dense regime only."""
    if (p, q) not in SUPPORTED_PQ:
        raise ValueError(f"unsupported (p, q) = {(p, q)}; supported: {SUPPORTED_PQ}")
    value = matrix_lpq_norm(resolvent_dense(spec, z), p, q, tol=tol, seed=seed)
    return NormEstimate(p=p, q=q, value=value, method="exact", n_sample=spec.grid.n_sites)
