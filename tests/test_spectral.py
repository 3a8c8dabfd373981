"""Diagonalization, smooth cutoffs, resolvents, Ward identity, mixed norms."""

import math

import numpy as np
import pytest

from qdlab.errors import NonConvergenceError
from qdlab.lattice import (
    HamiltonianSpec,
    TorusGrid,
    delta_field,
    dense_hamiltonian,
    rng_for,
)
from qdlab.spectral import (
    SUPPORTED_PQ,
    apply_free_resolvent,
    dense_diagonalize,
    free_cutoff_operator,
    lpq_norm,
    matrix_lpq_norm,
    projection_deviation,
    resolvent_column,
    resolvent_dense,
    smooth_cutoff,
    spectral_projection,
    ward_check,
)


def free_spec(d, L):
    return HamiltonianSpec.sample(TorusGrid(d, L), 0.0, seed=0)


# ---------------------------------------------------------------------------
# diagonalization


def test_free_spectrum_is_dispersion():
    eig = dense_diagonalize(free_spec(1, 8))
    want = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
    np.testing.assert_allclose(eig.energies, want, atol=1e-10)


def test_trace_identities():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.5, seed=11)
    eig = dense_diagonalize(spec)
    v = spec.disorder.values
    assert np.sum(eig.energies) == pytest.approx(0.5 * v.sum(), abs=1e-9)
    # tr H^2 = 2 d n + lam^2 sum V^2 (no cross term: A has empty diagonal)
    assert np.sum(eig.energies**2) == pytest.approx(
        2 * 16 + 0.25 * np.sum(v**2), rel=1e-12
    )


def test_eigenvectors_orthonormal_and_residual():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.5, seed=11)
    eig = dense_diagonalize(spec)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(16))) <= 1e-10
    h = dense_hamiltonian(spec)
    res = np.max(np.abs(h @ eig.vectors - eig.vectors * eig.energies[None, :]))
    assert res <= 1e-9


def test_spectrum_containment():
    grid = TorusGrid(2, 16)
    for seed in range(100):
        spec = HamiltonianSpec.sample(grid, 0.1, seed=seed)
        eig = dense_diagonalize(spec)
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
    eig = dense_diagonalize(spec)
    wide = spectral_projection(eig, 0.0, 1e6)
    assert np.max(np.abs(wide - np.eye(12))) <= 1e-9
    outside = spectral_projection(eig, 50.0, 0.5)  # window misses the spectrum
    assert np.max(np.abs(outside)) == 0.0
    with pytest.raises(ValueError):
        spectral_projection(eig, 0.0, 0.0)


def test_projection_norm_and_near_idempotence():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.3, seed=5)
    eig = dense_diagonalize(spec)
    p = spectral_projection(eig, 1.0, 1.5)
    weights = smooth_cutoff((eig.energies - 1.0) / 1.5)
    assert np.linalg.norm(p, 2) == pytest.approx(weights.max(), abs=1e-10)
    # chi - chi^2 >= 0, so P - P^2 is positive semidefinite
    assert np.min(np.linalg.eigvalsh(p - p @ p)) >= -1e-12


def test_free_cutoff_matches_projection_route():
    grid = TorusGrid(1, 16)
    direct = free_cutoff_operator(grid, 0.5, 1.2)
    via_eig = spectral_projection(dense_diagonalize(free_spec(1, 16)), 0.5, 1.2)
    assert np.max(np.abs(direct - via_eig)) <= 1e-9


def test_projection_deviation_free_limit_and_oracle():
    assert projection_deviation(free_spec(1, 16), 0.5, 1.0) <= 1e-8
    spec = HamiltonianSpec.sample(TorusGrid(1, 24), 0.3, seed=2)
    got = projection_deviation(spec, 1.0, 0.5, tol=1e-7)
    eig = dense_diagonalize(spec)
    diff = spectral_projection(eig, 1.0, 0.5) - free_cutoff_operator(
        spec.grid, 1.0, 0.5
    )
    assert got == pytest.approx(np.linalg.norm(diff, 2), rel=1e-5)


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
    want = apply_free_resolvent(spec.grid, z, delta_field(spec.grid).values)
    assert np.max(np.abs(col - want)) <= 1e-9
    col_iter = resolvent_column(spec, z)
    assert np.max(np.abs(col_iter - want)) <= 1e-10


def test_resolvent_is_symmetric():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.7, seed=3)
    r = resolvent_dense(spec, 0.5 + 0.1j)
    assert np.max(np.abs(r - r.T)) <= 1e-9


def test_ward_identity_dense_column():
    spec = HamiltonianSpec.sample(TorusGrid(2, 16), 0.4, seed=8)
    z = 1.0 + 0.05j
    col = resolvent_column(spec, z)
    report = ward_check(col, z)
    assert report.rel_error <= 1e-10
    assert report.column_mass == pytest.approx(report.diag_imag_over_eta, rel=1e-10)


def test_ward_identity_iterative_column():
    # beyond the dense limit: preconditioned GMRES route
    spec = HamiltonianSpec.sample(TorusGrid(2, 128), 0.3, seed=4)
    z = 0.8 + 0.5j
    col = resolvent_column(spec, z, site=(3, 5))
    assert ward_check(col, z, site=(3, 5)).rel_error <= 1e-8


def test_ward_check_rejects_lower_half_plane():
    col = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        ward_check(col, 1.0 - 0.1j)


def test_off_origin_column_source():
    spec = HamiltonianSpec.sample(TorusGrid(1, 12), 0.5, seed=6)
    z = 0.2 + 0.2j
    col = resolvent_column(spec, z, site=(7,))
    want = resolvent_dense(spec, z)[:, 7]
    assert np.max(np.abs(col - want)) <= 1e-10


# ---------------------------------------------------------------------------
# mixed norms


def test_lpq_22_is_inverse_spectral_distance():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.5, seed=11)
    z = 0.7 + 0.3j
    eig = dense_diagonalize(spec)
    want = 1.0 / np.min(np.abs(eig.energies - z))
    est = lpq_norm(spec, z, 2, 2)
    assert est.value == pytest.approx(want, rel=1e-6)
    assert est.method == "exact" and est.n_sample == spec.grid.n_sites


def test_lpq_12_equals_ward_formula():
    # ||R||_{1->2} = max_x sqrt(Im R_xx / eta), by the Ward identity
    spec = HamiltonianSpec.sample(TorusGrid(1, 24), 0.4, seed=9)
    z = 0.3 + 0.2j
    r = resolvent_dense(spec, z)
    want = math.sqrt(np.max(np.diag(r).imag) / z.imag)
    assert lpq_norm(spec, z, 1, 2).value == pytest.approx(want, rel=1e-10)


def test_column_norm_ordering_and_interpolation():
    spec = HamiltonianSpec.sample(TorusGrid(2, 12), 0.6, seed=12)
    z = 1.0 + 0.15j
    norms = {q: lpq_norm(spec, z, 1, q).value for q in (2, 4, 6, math.inf)}
    assert norms[math.inf] <= norms[6] <= norms[4] <= norms[2]
    # Riesz-Thorin between (1,2) and (1,6)
    assert norms[4] <= norms[2] ** 0.25 * norms[6] ** 0.75 * (1 + 1e-12)


def test_lpq_rejects_unsupported():
    spec = free_spec(1, 8)
    with pytest.raises(ValueError):
        lpq_norm(spec, 0.5 + 0.1j, 3, 2)
    with pytest.raises(ValueError):
        matrix_lpq_norm(np.eye(4), 2, 3)
    assert (1, 4) in SUPPORTED_PQ


def test_matrix_lpq_oracle_small():
    rng = rng_for(2, stream=7)
    a = rng.standard_normal((6, 6))
    # brute force ||A||_{1->q} = max column norm
    want = np.max(np.sum(np.abs(a) ** 4, axis=0) ** 0.25)
    assert matrix_lpq_norm(a, 1, 4) == pytest.approx(want, rel=1e-12)
    assert matrix_lpq_norm(a, 2, 2) == pytest.approx(
        np.linalg.norm(a, 2), rel=1e-6
    )


def test_boyd_ascent_against_grid_search():
    # l2 -> l4 norm of a 2x2 matrix, brute-forced over the unit circle
    a = np.array([[1.0, 0.4], [-0.3, 2.0]])
    angles = np.linspace(0, 2 * np.pi, 20001)
    xs = np.stack([np.cos(angles), np.sin(angles)])
    want = np.max(np.sum(np.abs(a @ xs) ** 4, axis=0) ** 0.25)
    assert matrix_lpq_norm(a, 2, 4, tol=1e-10) == pytest.approx(want, rel=1e-6)
