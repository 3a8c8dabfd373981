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
# picks no route: resolvent columns are matrix-free GMRES at every size.
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

    def site_index(self, coords) -> int:
        """Flat row-major index of a (possibly unwrapped) coordinate tuple."""
        wrapped = tuple(int(c) % self.L for c in coords)
        return int(np.ravel_multi_index(wrapped, self.shape))

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


def distance_sq_grid(grid: TorusGrid, origin=None) -> np.ndarray:
    """|x - origin|^2 with minimal-image distance, as an array over the grid."""
    if origin is None:
        origin = (0,) * grid.d
    return separable_sum(
        [minimal_image(grid, np.arange(grid.L) - int(o)).astype(float) ** 2 for o in origin]
    )


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

    def norm(self) -> float:
        # Exact ell^2 norm: root of the sum of squared moduli.
        return float(np.sqrt(np.sum(self.values.real**2 + self.values.imag**2)))

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())


def delta_field(grid: TorusGrid, site=None) -> ComplexField:
    """Unit mass at one site (default: the origin)."""
    values = np.zeros(grid.shape, dtype=np.complex128)
    if site is None:
        site = (0,) * grid.d
    values[tuple(int(c) % grid.L for c in site)] = 1.0
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
    """I.i.d. standard-Gaussian site potential, reproducible from (seed, stream)."""

    grid: TorusGrid
    seed: int
    stream: int
    values: np.ndarray


def sample_disorder(grid: TorusGrid, seed: int, stream: int = 0) -> DisorderField:
    values = rng_for(seed, stream).standard_normal(grid.shape)
    values.flags.writeable = False
    return DisorderField(grid, seed, stream, values)


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
    def sample(cls, grid: TorusGrid, lam: float, seed: int, stream: int = 0) -> "HamiltonianSpec":
        return cls(grid, lam, sample_disorder(grid, seed, stream))

    @cached_property
    def potential(self) -> np.ndarray:
        """lam * V, computed once per Hamiltonian (read-only)."""
        values = self.lam * self.disorder.values
        values.flags.writeable = False
        return values


def _add_shifted(out: np.ndarray, values: np.ndarray, axis: int, shift: int, assign: bool) -> None:
    """out (+)= np.roll(values, shift, axis) for shift = +1 or -1, without the copy."""
    head = (slice(None),) * axis
    src, dst = (slice(None, -1), slice(1, None)) if shift == 1 else (slice(1, None), slice(None, -1))
    edge_src, edge_dst = (-1, 0) if shift == 1 else (0, -1)
    if assign:
        out[head + (dst,)] = values[head + (src,)]
        out[head + (edge_dst,)] = values[head + (edge_src,)]
    else:
        out[head + (dst,)] += values[head + (src,)]
        out[head + (edge_dst,)] += values[head + (edge_src,)]


def _add_neighbours(
    grid: TorusGrid, values: np.ndarray, out: np.ndarray, assign_first: bool
) -> None:
    """out += sum of the 2d unit-vector shifts of values, in the order roll(+1),
    roll(-1) per axis, axis 0 first; with ``assign_first`` the first term is
    written rather than added."""
    for axis in range(grid.d):
        _add_shifted(out, values, axis, 1, assign=assign_first and axis == 0)
        _add_shifted(out, values, axis, -1, assign=False)


def apply_adjacency(grid: TorusGrid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the 2d unit-vector neighbors.  On L=2 both directions coincide,
    which correctly double-counts the single neighbor (circulant convention).

    Terms are added in the order roll(+1), roll(-1) per axis, axis 0 first.
    With ``out`` (same shape and dtype, not sharing memory with ``values``)
    the sum is written there instead of a new array.
    """
    if out is None:
        out = np.empty_like(values)
    _add_neighbours(grid, values, out, assign_first=True)
    return out


def hamiltonian_product(spec: HamiltonianSpec, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = H values for a real or complex grid-shaped array, with no temporary.

    lam V values is written into ``out`` (same shape and dtype, not sharing
    memory with ``values``) and the 2d neighbor slices are added to it.  This
    is the one stencil: `apply_hamiltonian` and the Chebyshev recursion of
    `qdlab.propagation` both call it.
    """
    if spec.lam == 0.0:
        return apply_adjacency(spec.grid, values, out)
    np.multiply(spec.potential, values, out=out)
    _add_neighbours(spec.grid, values, out, assign_first=False)
    return out


def apply_hamiltonian(
    spec: HamiltonianSpec, field: ComplexField, out: np.ndarray | None = None
) -> ComplexField:
    """H psi; with ``out`` (a complex grid-shaped array not sharing memory with
    the field) the result is written there and the returned field wraps it."""
    if field.grid != spec.grid:
        raise ValueError("field grid does not match Hamiltonian grid")
    if out is None:
        out = np.empty_like(field.values)
    return ComplexField(spec.grid, hamiltonian_product(spec, field.values, out))


def dispersion(xi) -> np.ndarray:
    """omega(xi) = 2 sum_j cos(xi_j) for momentum vectors in the last axis."""
    xi = np.asarray(xi, dtype=float)
    return 2.0 * np.sum(np.cos(xi), axis=-1)


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
    """Matrix C[x, y] = kernel[(x - y) mod L] from one translation-invariant row."""
    n = grid.n_sites
    idx = np.arange(grid.L)
    diff = (idx[:, None] - idx[None, :]) % grid.L  # (L, L) per-axis index difference
    # Flat row-major index of the coordinate difference, accumulated axis by axis.
    row_mult = np.ones(grid.d, dtype=np.intp)
    for axis in range(grid.d - 2, -1, -1):
        row_mult[axis] = row_mult[axis + 1] * grid.L
    coords = np.stack(np.unravel_index(np.arange(n), grid.shape), axis=1)
    flat = np.zeros((n, n), dtype=np.intp)
    for axis in range(grid.d):
        flat += row_mult[axis] * diff[np.ix_(coords[:, axis], coords[:, axis])]
    return kernel.ravel()[flat]


def dense_adjacency(grid: TorusGrid) -> np.ndarray:
    """Dense adjacency via Kronecker sums of the 1-d hopping circulant."""
    if grid.n_sites > DENSE_LIMIT:
        raise ValueError(f"grid has {grid.n_sites} sites, dense limit is {DENSE_LIMIT}")
    L = grid.L
    ring = np.eye(L, k=1) + np.eye(L, k=-1)
    ring[0, L - 1] += 1.0
    ring[L - 1, 0] += 1.0
    out = np.zeros((grid.n_sites, grid.n_sites))
    for axis in range(grid.d):
        left = np.eye(L**axis)
        right = np.eye(L ** (grid.d - axis - 1))
        out += np.kron(np.kron(left, ring), right)
    return out


def dense_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    out = dense_adjacency(spec.grid)
    if spec.lam != 0.0:
        idx = np.arange(spec.grid.n_sites)
        out[idx, idx] += spec.potential.ravel()
    return out
