"""Torus geometry, disorder sampling, and the dense/matrix-free Hamiltonian pair."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab.lattice import (
    ComplexField,
    HamiltonianSpec,
    TorusGrid,
    apply_adjacency,
    apply_hamiltonian,
    circulant_from_kernel,
    delta_field,
    dense_adjacency,
    dense_hamiltonian,
    displacement_vectors,
    distance_sq_grid,
    fft_forward,
    fft_inverse,
    free_propagate,
    free_propagator_dense,
    minimal_image,
    momentum_grid,
    rng_for,
    sample_disorder,
)


def random_field(grid, seed=0):
    rng = rng_for(seed, stream=0xF1E1D)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return ComplexField(grid, vals)


# ---------------------------------------------------------------------------
# Geometry


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(0, 8)
    with pytest.raises(ValueError):
        TorusGrid(2, 1)


@given(st.integers(1, 3), st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_site_index_roundtrip(d, L, data):
    # site_coords inverts the flat row-major index of the grid's arrays
    grid = TorusGrid(d, L)
    idx = data.draw(st.integers(0, grid.n_sites - 1))
    coords = grid.site_coords(idx)
    assert all(0 <= c < L for c in coords)
    assert np.ravel_multi_index(coords, grid.shape) == idx


@pytest.mark.parametrize("L", [2, 3, 4, 5, 8])
def test_minimal_image_brute_force(L):
    grid = TorusGrid(1, L)
    for delta in range(-2 * L, 2 * L + 1):
        rep = int(minimal_image(grid, delta))
        assert (rep - delta) % L == 0
        assert -(L // 2) <= rep < L - L // 2
        # no congruent representative is strictly closer to zero
        others = [delta + k * L for k in range(-3, 4)]
        assert abs(rep) == min(abs(o) for o in others)


@pytest.mark.parametrize("d,L", [(1, 5), (2, 4), (2, 5), (3, 3)])
def test_distance_sq_brute_force(d, L):
    grid = TorusGrid(d, L)
    got = distance_sq_grid(grid)
    disp = displacement_vectors(grid)
    want = np.sum(disp.astype(float) ** 2, axis=1).reshape(grid.shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_dispersion_extremes():
    # momentum_grid is omega(xi) = 2 sum_j cos(xi_j) on the dual lattice xi = 2 pi k / L
    assert momentum_grid(TorusGrid(3, 8))[0, 0, 0] == pytest.approx(6.0, abs=1e-15)
    assert momentum_grid(TorusGrid(2, 8))[4, 4] == pytest.approx(-4.0, abs=1e-12)
    k = 2.0 * np.pi * np.array([1, 3]) / 8
    want = 2.0 * np.sum(np.cos(k))
    assert momentum_grid(TorusGrid(2, 8))[1, 3] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Fields and FFTs


def test_complex_field_shape_check():
    grid = TorusGrid(2, 4)
    with pytest.raises(ValueError):
        ComplexField(grid, np.zeros((4, 5)))


def test_delta_field_norm():
    grid = TorusGrid(2, 6)
    f = delta_field(grid)
    assert np.linalg.norm(f.values) == 1.0
    assert f.values[0, 0] == 1.0
    assert np.count_nonzero(f.values) == 1


def test_fft_unitary_roundtrip():
    grid = TorusGrid(2, 16)
    f = random_field(grid)
    hat = fft_forward(f)
    norm = np.linalg.norm(f.values)
    assert abs(np.linalg.norm(hat.values) - norm) <= 1e-12 * norm
    back = fft_inverse(hat)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


# ---------------------------------------------------------------------------
# Disorder


def test_disorder_reproducible_and_distinct():
    grid = TorusGrid(2, 16)
    a = sample_disorder(grid, seed=5)
    b = sample_disorder(grid, seed=5)
    c = sample_disorder(grid, seed=6)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.max(np.abs(a.values - c.values)) > 1e-3


def test_disorder_moments():
    grid = TorusGrid(2, 64)  # 4096 samples
    v = sample_disorder(grid, seed=1).values
    n = v.size
    assert abs(v.mean()) <= 5.0 / np.sqrt(n)
    assert abs(v.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)


def test_rng_streams_independent():
    a = rng_for(3, stream=0).standard_normal(8)
    b = rng_for(3, stream=1).standard_normal(8)
    c = rng_for(3, stream=0).standard_normal(8)
    np.testing.assert_array_equal(a, c)
    assert np.max(np.abs(a - b)) > 1e-6


# ---------------------------------------------------------------------------
# Operators


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_adjacency_matches_dense(d, L):
    grid = TorusGrid(d, L)
    f = random_field(grid, seed=d * 10 + L)
    dense = dense_adjacency(grid)
    got = apply_adjacency(grid, f.values, np.empty_like(f.values)).ravel()
    want = dense @ f.values.ravel()
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 7])
def test_adjacency_equals_roll_sum_bitwise(d, L):
    # The in-place stencil adds the same terms in the same order as the
    # np.roll sum, so every entry is bit-identical, whatever `out` held
    # before, and for a non-contiguous input.
    grid = TorusGrid(d, L)
    values = random_field(grid, seed=d * 100 + L).values
    want = np.roll(values, 1, axis=0)
    want += np.roll(values, -1, axis=0)
    for axis in range(1, d):
        want += np.roll(values, 1, axis=axis)
        want += np.roll(values, -1, axis=axis)
    out = np.full(grid.shape, np.nan, dtype=np.complex128)
    assert apply_adjacency(grid, values, out) is out
    assert np.array_equal(out, want)
    transposed = np.ascontiguousarray(values.T).T
    assert np.array_equal(apply_adjacency(grid, transposed, np.empty_like(values)), want)


def test_adjacency_L2_double_counts():
    # On L=2 both hops land on the same neighbor, so the circulant weight is 2.
    grid = TorusGrid(1, 2)
    dense = dense_adjacency(grid)
    np.testing.assert_allclose(dense, [[0.0, 2.0], [2.0, 0.0]])


def test_hamiltonian_dense_vs_matrix_free():
    grid = TorusGrid(2, 8)
    spec = HamiltonianSpec.sample(grid, lam=0.7, seed=2)
    f = random_field(grid, seed=9)
    got = apply_hamiltonian(spec, f).values.ravel()
    want = dense_hamiltonian(spec) @ f.values.ravel()
    assert np.max(np.abs(got - want)) <= 1e-12
    assert not spec.potential.flags.writeable


def test_hamiltonian_grid_mismatch():
    spec = HamiltonianSpec.sample(TorusGrid(1, 8), lam=0.1, seed=0)
    with pytest.raises(ValueError):
        apply_hamiltonian(spec, delta_field(TorusGrid(1, 16)))
    with pytest.raises(ValueError):
        HamiltonianSpec(TorusGrid(1, 8), -0.5, sample_disorder(TorusGrid(1, 8), 0))


def test_circulant_from_kernel_brute_force():
    grid = TorusGrid(2, 3)
    kernel = rng_for(4, stream=1).standard_normal(grid.shape)
    mat = circulant_from_kernel(grid, kernel)
    for x in range(grid.n_sites):
        cx = grid.site_coords(x)
        for y in range(grid.n_sites):
            cy = grid.site_coords(y)
            diff = tuple((a - b) % grid.L for a, b in zip(cx, cy))
            assert mat[x, y] == kernel[diff]


@pytest.mark.parametrize("d,L,t", [(1, 8, 0.7), (2, 4, 1.3)])
def test_free_propagate_matches_expm(d, L, t):
    grid = TorusGrid(d, L)
    u = scipy.linalg.expm(-1j * t * dense_adjacency(grid))
    f = random_field(grid, seed=d)
    got = free_propagate(f, t).values.ravel()
    want = u @ f.values.ravel()
    assert np.max(np.abs(got - want)) <= 1e-10
    dense = free_propagator_dense(grid, t)
    assert np.max(np.abs(dense - u)) <= 1e-10
