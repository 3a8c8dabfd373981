"""Discrete torus, Gaussian disorder, and the tight-binding Hamiltonian.

The model lives on the periodic lattice Z^d_L.  The kinetic part is the
adjacency operator (no diagonal term),

    (A psi)(x) = sum_{|e| = 1} psi(x + e),

whose Fourier multiplier is omega(xi) = 2 * sum_j cos(xi_j), and the full
Hamiltonian is H = A + lam * V with V i.i.d. standard Gaussian on sites.
Evolution everywhere uses the convention psi_t = exp(-i t H) psi_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest site count the dense-only operations accept (dense_adjacency,
# dense_hamiltonian, free_propagator_dense, resolvent_dense, dyson_Tk).  It
# picks no route: resolvent columns are matrix-free COCG at every size.
DENSE_LIMIT = 4096

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TorusGrid:
    """Periodic box Z^d_L with row-major (C-order) site indexing."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got d={self.d}")
        if self.L < 2:
            raise ValueError(f"side length must be at least 2, got L={self.L}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    def site_coords(self, index: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(int(index), self.shape))


def minimal_image(grid: TorusGrid, delta) -> np.ndarray:
    """Map displacement coordinates into the symmetric window [-L/2, L/2)."""
    delta = np.asarray(delta)
    half = grid.L // 2
    return (delta + half) % grid.L - half


def separable_sum(lines) -> np.ndarray:
    """out[x_0, ..., x_k] = sum_j lines[j][x_j] for 1-d arrays lines[0..k].

    Accumulated from zeros in axis order, which fixes the rounding of every entry.
    """
    out = np.zeros(tuple(line.size for line in lines))
    for axis, line in enumerate(lines):
        shape = [1] * len(lines)
        shape[axis] = line.size
        out = out + line.reshape(shape)
    return out


def distance_sq_grid(grid: TorusGrid) -> np.ndarray:
    """|x|^2 with minimal-image distance from the origin, as an array over the grid."""
    return separable_sum([minimal_image(grid, np.arange(grid.L)).astype(float) ** 2] * grid.d)


def displacement_vectors(grid: TorusGrid) -> np.ndarray:
    """Minimal-image displacement of every site from the origin, shape (n_sites, d)."""
    axes = [minimal_image(grid, np.arange(grid.L)) for _ in range(grid.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class ComplexField:
    """A complex wave function on a grid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals


def delta_field(grid: TorusGrid) -> ComplexField:
    """Unit mass at the origin."""
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[(0,) * grid.d] = 1.0
    return ComplexField(grid, values)


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct (seed, stream) keys give independent streams.

    Philox is counter based, so a field drawn in one vectorized call is
    reproducible bit-for-bit regardless of how the caller schedules work.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DisorderField:
    """I.i.d. standard-Gaussian site potential on a grid."""

    grid: TorusGrid
    values: np.ndarray


def sample_disorder(grid: TorusGrid, seed: int) -> DisorderField:
    """The disorder of ``seed``: stream 0 of its counter-based generator."""
    values = rng_for(seed).standard_normal(grid.shape)
    values.flags.writeable = False
    return DisorderField(grid, values)


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = adjacency + lam * V on a torus grid."""

    grid: TorusGrid
    lam: float
    disorder: DisorderField

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"coupling must be non-negative, got lam={self.lam}")
        if self.disorder.grid != self.grid:
            raise ValueError("disorder field lives on a different grid")

    @classmethod
    def sample(cls, grid: TorusGrid, lam: float, seed: int) -> "HamiltonianSpec":
        return cls(grid, lam, sample_disorder(grid, seed))

    @cached_property
    def potential(self) -> np.ndarray:
        """lam * V, computed once per Hamiltonian (read-only)."""
        values = self.lam * self.disorder.values
        values.flags.writeable = False
        return values


def hamiltonian_product(spec: HamiltonianSpec, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = H values for a real or complex grid-shaped array, with no temporary.

    lam V values is written into ``out`` (same shape and dtype, not sharing
    memory with ``values``), then the 2d neighbour slices are added in the
    order of the np.roll sum: roll(+1), roll(-1) per axis, axis 0 first.  On
    L=2 the one neighbour of an axis counts twice (circulant convention).
    """
    np.multiply(spec.potential, values, out=out)
    for axis in range(spec.grid.d):
        head = (slice(None),) * axis
        out[head + (slice(1, None),)] += values[head + (slice(None, -1),)]
        out[head + (0,)] += values[head + (-1,)]
        out[head + (slice(None, -1),)] += values[head + (slice(1, None),)]
        out[head + (-1,)] += values[head + (0,)]
    return out


def apply_hamiltonian(spec: HamiltonianSpec, field: ComplexField) -> ComplexField:
    """H psi, as a new field."""
    if field.grid != spec.grid:
        raise ValueError("field grid does not match Hamiltonian grid")
    out = np.empty_like(field.values)
    return ComplexField(spec.grid, hamiltonian_product(spec, field.values, out))


def momentum_grid(grid: TorusGrid) -> np.ndarray:
    """Dispersion evaluated on the dual lattice xi_k = 2 pi k / L, grid-shaped."""
    line = 2.0 * np.cos(2.0 * np.pi * np.arange(grid.L) / grid.L)
    return separable_sum([line] * grid.d)


def fft_forward(field: ComplexField) -> ComplexField:
    return ComplexField(field.grid, np.fft.fftn(field.values, norm="ortho"))


def fft_inverse(field: ComplexField) -> ComplexField:
    return ComplexField(field.grid, np.fft.ifftn(field.values, norm="ortho"))


def free_propagate(field: ComplexField, t: float) -> ComplexField:
    """exp(-i t A) psi via the Fourier multiplier exp(-i t omega)."""
    omega = momentum_grid(field.grid)
    hat = np.fft.fftn(field.values)
    hat *= np.exp(-1j * t * omega)
    return ComplexField(field.grid, np.fft.ifftn(hat))


def free_propagator_dense(grid: TorusGrid, t: float) -> np.ndarray:
    """Dense circulant matrix of exp(-i t A); dense-regime sizes only."""
    if grid.n_sites > DENSE_LIMIT:
        raise ValueError(f"grid has {grid.n_sites} sites, dense limit is {DENSE_LIMIT}")
    kernel = np.fft.ifftn(np.exp(-1j * t * momentum_grid(grid)))
    return circulant_from_kernel(grid, kernel)


def circulant_from_kernel(grid: TorusGrid, kernel: np.ndarray) -> np.ndarray:
    """Matrix C[x, y] = kernel[(x - y) mod L] from one translation-invariant row.

    One gather on C viewed as (L,)*d x (L,)*d: axis j's index is the (L, L)
    table of (x_j - y_j) mod L on axes j and d + j, so no n x n index is formed.
    """
    d, L = grid.d, grid.L
    diff = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    index = [diff.reshape((1,) * j + (L,) + (1,) * (d - 1) + (L,) + (1,) * (d - 1 - j))
             for j in range(d)]
    return kernel[tuple(index)].reshape(grid.n_sites, grid.n_sites)


def dense_adjacency(grid: TorusGrid) -> np.ndarray:
    """Dense adjacency, one scatter of ones per axis and direction.

    Each scatter hits every row once, so on L=2, where both directions reach
    the same neighbour, the two scatters of an axis count it twice
    (circulant convention, as in `hamiltonian_product`).
    """
    if grid.n_sites > DENSE_LIMIT:
        raise ValueError(f"grid has {grid.n_sites} sites, dense limit is {DENSE_LIMIT}")
    idx = np.arange(grid.n_sites).reshape(grid.shape)
    out = np.zeros((grid.n_sites, grid.n_sites))
    for axis in range(grid.d):
        for shift in (1, -1):
            out[idx.ravel(), np.roll(idx, shift, axis=axis).ravel()] += 1.0
    return out


def dense_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    out = dense_adjacency(spec.grid)
    idx = np.arange(spec.grid.n_sites)
    out[idx, idx] += spec.potential.ravel()
    return out
