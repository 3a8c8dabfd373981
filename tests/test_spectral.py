"""Diagonalization, smooth cutoffs, resolvents, Ward identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlab import spectral
from qdlab.errors import NonConvergenceError
from qdlab.lattice import (
    HamiltonianSpec,
    TorusGrid,
    delta_field,
    dense_hamiltonian,
    hamiltonian_product,
    momentum_grid,
)
from qdlab.spectral import (
    EigenDecomposition,
    apply_free_resolvent,
    dense_diagonalize,
    free_cutoff_operator,
    projection_deviation,
    resolvent_column,
    resolvent_dense,
    smooth_cutoff,
    spectral_projection,
    ward_check,
)


# dense_diagonalize's window holding every eigenvalue
WHOLE_SPECTRUM = (-np.inf, np.inf)


def free_spec(d, L):
    return HamiltonianSpec.sample(TorusGrid(d, L), 0.0, seed=0)


# ---------------------------------------------------------------------------
# diagonalization


def test_free_spectrum_is_dispersion():
    eig = dense_diagonalize(free_spec(1, 8), WHOLE_SPECTRUM)
    want = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
    np.testing.assert_allclose(eig.energies, want, atol=1e-10)


def test_windowed_diagonalization_gives_the_same_projection():
    spec = HamiltonianSpec.sample(TorusGrid(2, 12), 0.3, seed=4)
    energy, width = 0.7, 0.4
    full = EigenDecomposition(*np.linalg.eigh(dense_hamiltonian(spec)))
    part = dense_diagonalize(spec, window=(energy - width, energy + width))
    inside = (full.energies > energy - width) & (full.energies <= energy + width)
    np.testing.assert_allclose(part.energies, full.energies[inside], atol=1e-12)
    got = spectral_projection(part, energy, width)
    want = spectral_projection(full, energy, width)
    assert np.max(np.abs(got - want)) <= 1e-10
    empty = dense_diagonalize(spec, window=(10.0, 11.0))
    assert empty.energies.size == 0
    assert np.max(np.abs(spectral_projection(empty, 10.5, 0.5))) == 0.0


def test_trace_identities():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.5, seed=11)
    eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
    v = spec.disorder.values
    assert np.sum(eig.energies) == pytest.approx(0.5 * v.sum(), abs=1e-9)
    # tr H^2 = 2 d n + lam^2 sum V^2 (no cross term: A has empty diagonal)
    assert np.sum(eig.energies**2) == pytest.approx(
        2 * 16 + 0.25 * np.sum(v**2), rel=1e-12
    )


def test_eigenvectors_orthonormal_and_residual():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.5, seed=11)
    eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(16))) <= 1e-10
    h = dense_hamiltonian(spec)
    res = np.max(np.abs(h @ eig.vectors - eig.vectors * eig.energies[None, :]))
    assert res <= 1e-9


def test_spectrum_containment():
    grid = TorusGrid(2, 16)
    for seed in range(100):
        spec = HamiltonianSpec.sample(grid, 0.1, seed=seed)
        eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
        bound = 4.0 + 0.1 * np.max(np.abs(spec.disorder.values))
        assert np.max(np.abs(eig.energies)) <= bound + 1e-10


# ---------------------------------------------------------------------------
# smooth cutoff and projections


def test_smooth_cutoff_shape():
    x = np.linspace(-2.0, 2.0, 401)
    chi = smooth_cutoff(x)
    assert smooth_cutoff(0.0) == 1.0
    assert np.all(chi >= 0.0) and np.all(chi <= 1.0)
    assert np.all(chi[np.abs(x) >= 1.0] == 0.0)
    np.testing.assert_allclose(chi, chi[::-1], atol=0)


def test_projection_limits():
    spec = HamiltonianSpec.sample(TorusGrid(1, 12), 0.4, seed=1)
    eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
    wide = spectral_projection(eig, 0.0, 1e6)
    assert np.max(np.abs(wide - np.eye(12))) <= 1e-9
    outside = spectral_projection(eig, 50.0, 0.5)  # window misses the spectrum
    assert np.max(np.abs(outside)) == 0.0
    with pytest.raises(ValueError):
        spectral_projection(eig, 0.0, 0.0)


def test_projection_norm_and_near_idempotence():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.3, seed=5)
    eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
    p = spectral_projection(eig, 1.0, 1.5)
    weights = smooth_cutoff((eig.energies - 1.0) / 1.5)
    assert np.linalg.norm(p, 2) == pytest.approx(weights.max(), abs=1e-10)
    # chi - chi^2 >= 0, so P - P^2 is positive semidefinite
    assert np.min(np.linalg.eigvalsh(p - p @ p)) >= -1e-12


def test_free_cutoff_matches_projection_route():
    grid = TorusGrid(1, 16)
    direct = free_cutoff_operator(grid, 0.5, 1.2)
    eig = dense_diagonalize(free_spec(1, 16), WHOLE_SPECTRUM)
    via_eig = spectral_projection(eig, 0.5, 1.2)
    assert np.max(np.abs(direct - via_eig)) <= 1e-9


def dense_projection_deviation(spec, energy, width):
    """Oracle: chi(H) - chi(A) formed from all eigenpairs and the circulant
    cutoff, and its 2-norm by SVD."""
    eig = dense_diagonalize(spec, WHOLE_SPECTRUM)
    diff = spectral_projection(eig, energy, width) - free_cutoff_operator(
        spec.grid, energy, width
    )
    return np.linalg.norm(diff, 2)


def test_projection_deviation_free_limit_and_oracle():
    assert projection_deviation(free_spec(1, 16), 0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        projection_deviation(free_spec(1, 16), 0.5, 0.0)
    spec = HamiltonianSpec.sample(TorusGrid(1, 24), 0.3, seed=2)
    got = projection_deviation(spec, 1.0, 0.5)
    assert got == pytest.approx(dense_projection_deviation(spec, 1.0, 0.5), rel=1e-5)


@pytest.mark.parametrize("width", [1.0, 0.5, 0.25])
def test_projection_deviation_operator_matches_the_dense_difference(width):
    spec = HamiltonianSpec.sample(TorusGrid(2, 8), 0.3, seed=2)
    got = projection_deviation(spec, 1.0, width)
    assert got == pytest.approx(dense_projection_deviation(spec, 1.0, width), rel=1e-8)


def test_projection_deviation_window_without_eigenvalues():
    # No eigenvalue of H lies in (-4.03, -3.93), but omega = -4 does: with
    # k = 0 eigenvectors the deviation is the free cutoff's largest multiplier.
    spec = HamiltonianSpec.sample(TorusGrid(2, 8), 0.3, seed=2)
    energy, width = -3.98, 0.05
    assert dense_diagonalize(spec, (energy - width, energy + width)).energies.size == 0
    want = np.max(smooth_cutoff((momentum_grid(spec.grid) - energy) / width))
    assert want > 0.5
    assert projection_deviation(spec, energy, width) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_rejects_real_z():
    spec = free_spec(1, 8)
    with pytest.raises(ValueError):
        resolvent_dense(spec, 1.0 + 0.0j)
    with pytest.raises(ValueError):
        resolvent_column(spec, 1.0 + 0.0j)


def test_resolvent_free_limit_matches_multiplier():
    spec = free_spec(2, 8)
    z = 0.5 + 0.3j
    col = resolvent_dense(spec, z)[:, 0].reshape(spec.grid.shape)
    want = apply_free_resolvent(momentum_grid(spec.grid) - z, delta_field(spec.grid).values)
    assert np.max(np.abs(col - want)) <= 1e-9
    col_iter = resolvent_column(spec, z)
    assert np.max(np.abs(col_iter - want)) <= 1e-10


def test_resolvent_is_symmetric():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.7, seed=3)
    r = resolvent_dense(spec, 0.5 + 0.1j)
    assert np.max(np.abs(r - r.T)) <= 1e-9


def test_ward_identity_column_small_grid():
    spec = HamiltonianSpec.sample(TorusGrid(2, 16), 0.4, seed=8)
    z = 1.0 + 0.05j
    col = resolvent_column(spec, z)
    assert ward_check(col, z, site=(0, 0)).rel_error <= 1e-10


def test_ward_identity_column_large_grid_off_origin():
    spec = HamiltonianSpec.sample(TorusGrid(2, 128), 0.3, seed=4)
    z = 0.8 + 0.5j
    col = resolvent_column(spec, z, site=(3, 5))
    assert ward_check(col, z, site=(3, 5)).rel_error <= 1e-8


def test_column_raises_with_residual_when_iteration_budget_runs_out(monkeypatch):
    # lam^2/eta = 1000: 50 COCG iterations leave the residual far above rtol.
    monkeypatch.setattr(spectral, "COLUMN_MAX_ITER", 50)
    spec = HamiltonianSpec.sample(TorusGrid(2, 16), 1.0, seed=0)
    with pytest.raises(NonConvergenceError, match=r"residual \d\.\d{3}e[-+]\d\d > rtol") as err:
        resolvent_column(spec, 0.3 + 0.001j)
    assert "after 50 iterations" in str(err.value)
    assert "lam=1, eta=0.001, lam^2/eta=1e+03" in str(err.value)


@pytest.mark.parametrize(
    "d, L, lam, z, seed",
    [
        pytest.param(2, 32, 0.2, 1.0 + 0.04j, 1, id="2-32"),
        pytest.param(3, 12, 0.2, 1.0 + 0.04j, 1, id="3-12"),
        # lam^2/eta = 1000, far above the supported regime: a few hundred
        # iterations, inside the default budget.
        pytest.param(2, 16, 1.0, 0.3 + 0.001j, 0, id="lam2-over-eta-1000-seed0"),
        pytest.param(2, 16, 1.0, 0.3 + 0.001j, 1, id="lam2-over-eta-1000-seed1"),
    ],
)
def test_column_matches_the_dense_resolvent(d, L, lam, z, seed):
    spec = HamiltonianSpec.sample(TorusGrid(d, L), lam, seed=seed)
    want = resolvent_dense(spec, z)[:, 0].reshape(spec.grid.shape)
    got = resolvent_column(spec, z)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_column_breakdown_raises_with_residual(monkeypatch):
    # With the stencil replaced by z, p^T (H - z) p = 0 stops the recurrence
    # in its first iteration, at x = 0 and a true residual of ||e_site|| = 1.
    z = 1.0 + 0.5j
    monkeypatch.setattr(spectral, "hamiltonian_product", lambda spec, v, out: np.multiply(z, v, out=out))
    spec = HamiltonianSpec.sample(TorusGrid(2, 8), 0.3, seed=0)
    with pytest.raises(NonConvergenceError, match=r"after 1 iterations: residual 1\.000e\+00"):
        resolvent_column(spec, z)


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    size=st.integers(0, 2),
    lam=st.floats(0.05, 0.5),
    energy=st.floats(-2.5, 2.5),
    ratio=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_column_route_property(d, size, lam, energy, ratio, seed, data):
    # Inside the supported regime, lam^2/eta <= 1, the column meets its
    # residual certificate and the Ward identity.
    L = (8, 16, 32)[size] if d == 2 else (4, 8, 12)[size]
    spec = HamiltonianSpec.sample(TorusGrid(d, L), lam, seed=seed)
    z = complex(energy, lam**2 / ratio)
    site = tuple(data.draw(st.integers(0, L - 1)) for _ in range(d))
    col = resolvent_column(spec, z, site=site)
    b = np.zeros(spec.grid.shape, dtype=complex)
    b[site] = 1.0
    hx = hamiltonian_product(spec, col, np.empty_like(col))
    assert np.linalg.norm(hx - z * col - b) <= spectral.COLUMN_RTOL
    assert ward_check(col, z, site).rel_error <= 1e-8


def test_column_builds_the_dispersion_once_whatever_the_iteration_count(monkeypatch):
    builds, applies = [], []

    def counting(calls, fn):
        def wrapped(*args):
            calls.append(None)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(spectral, "momentum_grid", counting(builds, momentum_grid))
    monkeypatch.setattr(spectral, "apply_free_resolvent", counting(applies, apply_free_resolvent))
    spec = HamiltonianSpec.sample(TorusGrid(2, 16), 0.4, seed=6)
    counts = []
    for z in (1.0 + 0.5j, 1.0 + 0.02j):
        builds.clear()
        applies.clear()
        resolvent_column(spec, z)
        counts.append((len(builds), len(applies)))
    (builds_a, applies_a), (builds_b, applies_b) = counts
    assert applies_b > applies_a
    assert builds_a == builds_b == 1


def test_ward_check_rejects_lower_half_plane():
    col = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        ward_check(col, 1.0 - 0.1j, site=(0, 0))


@pytest.mark.parametrize(
    "d, L, lam, z, site",
    [
        (1, 12, 0.5, 0.2 + 0.2j, (7,)),
        # d=2 with eta = lam^2 / 2, the lower edge of the deloc_check crossover window
        (2, 16, 0.4, 1.0 + 0.08j, (5, 11)),
    ],
    ids=["d1", "d2"],
)
def test_off_origin_column_source(d, L, lam, z, site):
    spec = HamiltonianSpec.sample(TorusGrid(d, L), lam, seed=6)
    col = resolvent_column(spec, z, site=site)
    want = resolvent_dense(spec, z)[:, np.ravel_multi_index(site, spec.grid.shape)]
    assert np.max(np.abs(col - want.reshape(spec.grid.shape))) <= 1e-10

