"""Tests for GOE sampling, Gaussian series norms, trace inequalities, and the
integration-by-parts / crossing-term Monte-Carlo machinery."""

import math

import numpy as np
import pytest

from qdlab.lattice import HamiltonianSpec, TorusGrid, rng_for
from qdlab.random_matrix import (
    GaussianSeriesEnsemble,
    crossing_check_anderson,
    crossing_check_goe,
    gibp_check_anderson,
    gibp_check_goe,
    goe_coefficient_family,
    goe_local_law,
    matrix_inequality_suite,
    nck_check,
    sample_goe,
    semicircle_stieltjes,
    superoperator_goe,
)

# ---------------------------------------------------------------------------
# GOE sampling and the semicircle law


def test_goe_sample_is_symmetric():
    h = sample_goe(17, rng_for(0, 1))
    assert h.shape == (17, 17)
    np.testing.assert_allclose(h, h.T, atol=0.0)


def test_goe_sample_size_validation():
    with pytest.raises(ValueError):
        sample_goe(0, rng_for(0, 1))


def test_goe_trace_square_normalization():
    # E tr H^2 = n - 1 + 2 = n + 1 for entry variances 1/n off, 2/n on the
    # diagonal; the sample mean over 200 draws has standard error ~ 2/sqrt(200).
    n, draws = 50, 200
    rng = rng_for(5, 2)
    vals = [float(np.sum(sample_goe(n, rng) ** 2)) for _ in range(draws)]
    assert abs(np.mean(vals) - (n + 1)) < 0.6


def test_semicircle_stieltjes_solves_quadratic():
    for z in (0.5 + 0.5j, -1.7 + 0.01j, 3.0 + 2.0j, 0.0 + 0.1j):
        m = semicircle_stieltjes(z)
        assert abs(m * m + z * m + 1.0) <= 1e-12
        assert m.imag > 0


def test_semicircle_stieltjes_laurent_tail():
    z = 40.0 + 1.0j
    assert abs(semicircle_stieltjes(z) + 1.0 / z) < 1e-3


def test_semicircle_stieltjes_requires_upper_half_plane():
    with pytest.raises(ValueError):
        semicircle_stieltjes(1.0 - 0.2j)
    with pytest.raises(ValueError):
        semicircle_stieltjes(1.0)


def test_semicircle_density_limit():
    # Im m(E + i eta) approaches sqrt(1 - (E/2)^2) inside the bulk.
    for e in (0.0, 1.0, 1.5):
        m = semicircle_stieltjes(e + 1e-6j)
        assert abs(m.imag - math.sqrt(1.0 - (e / 2.0) ** 2)) < 1e-4


def test_local_law_matches_semicircle_in_bulk():
    stats = goe_local_law(512, [0.5 + 1.0j, 3.0 + 1.0j], 5, seed=2)
    assert len(stats) == 2
    bulk, outside = stats
    assert abs(bulk.mean - bulk.reference) < 0.02
    # the sample mean nearly solves the self-consistent equation m(m+z) + 1 = 0
    assert abs(bulk.mean * (bulk.mean + bulk.z) + 1.0) < 0.05
    assert outside.reference == semicircle_stieltjes(3.0 + 1.0j)
    assert abs(outside.mean - outside.reference) < 0.02


def test_local_law_stats_fields():
    (s,) = goe_local_law(64, [1.0 + 2.0j], 3, seed=0)
    assert s.n_dim == 64 and s.n_samples == 3
    assert s.samples.shape == (3,)


def test_local_law_warns_below_resolution_floor():
    # floor = 4 * n^(-1/4) = 2.0 at n = 16
    with pytest.warns(UserWarning, match="resolution floor"):
        goe_local_law(16, [0.0 + 1.0j], 1, seed=0)


def test_local_law_validation():
    with pytest.raises(ValueError):
        goe_local_law(32, [1.0 - 1.0j], 2)
    with pytest.raises(ValueError):
        goe_local_law(32, [1.0 + 1.0j], 0)


# ---------------------------------------------------------------------------
# Coefficient families and covariance superoperators


def test_superoperator_goe_on_identity():
    n = 5
    out = superoperator_goe(np.eye(n))
    np.testing.assert_allclose(out, (n + 1) / n * np.eye(n), atol=1e-15)


def test_superoperator_goe_matches_family_sum():
    # The covariance map must equal sum_k A_k B A_k over the explicit family.
    n = 8
    rng = rng_for(3, 4)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    brute = np.zeros((n, n), dtype=complex)
    for a in goe_coefficient_family(n):
        brute += a @ b @ a
    np.testing.assert_allclose(superoperator_goe(b), brute, atol=1e-12)


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        superoperator_goe(np.zeros((3, 4)))


def test_goe_family_sum_of_squares():
    n = 6
    total = np.zeros((n, n))
    for a in goe_coefficient_family(n):
        np.testing.assert_allclose(a, a.T, atol=0.0)
        total += a @ a
    np.testing.assert_allclose(total, (n + 1) / n * np.eye(n), atol=1e-14)


def test_ensemble_kinds_and_counts():
    diag = GaussianSeriesEnsemble("diag", n=7)
    goe = GaussianSeriesEnsemble("goe", n=7)
    assert len(goe_coefficient_family(7)) == 7 * 8 // 2
    assert diag.sum_squares_norm() == 1.0
    assert goe.sum_squares_norm() == pytest.approx(8 / 7)


def test_ensemble_goe_kind_matches_sample_goe_bitwise():
    ens = GaussianSeriesEnsemble("goe", n=9)
    want = np.max(np.abs(np.linalg.eigvalsh(sample_goe(9, rng_for(11, 0)))))
    assert ens.sample_norm(rng_for(11, 0)) == want


def test_ensemble_diag_samples_are_diagonal():
    # the norm of a diagonal matrix of Gaussians is their largest modulus
    ens = GaussianSeriesEnsemble("diag", n=5)
    rng = rng_for(0, 0)
    x = np.diag(rng_for(0, 0).standard_normal(5))
    assert ens.sample_norm(rng) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        GaussianSeriesEnsemble("gue", n=4)
    with pytest.raises(ValueError):
        GaussianSeriesEnsemble("diag", n=0)


# ---------------------------------------------------------------------------
# Noncommutative Khintchine norm statistics


def test_nck_diag_exceedance_and_calibration():
    ens = GaussianSeriesEnsemble("diag", n=256)
    rep = nck_check(ens, 100, alpha=4.0, seed=3)
    assert rep.exceedance == 0.0
    assert rep.sigma == 1.0
    assert rep.threshold == pytest.approx(4.0 * math.sqrt(math.log(256)))
    # max of 256 absolute Gaussians concentrates near sqrt(2 log n)
    assert 0.85 <= np.mean(rep.norms) / math.sqrt(2 * math.log(256)) <= 1.05


def test_nck_goe_exceedance_and_calibration():
    ens = GaussianSeriesEnsemble("goe", n=256)
    rep = nck_check(ens, 50, alpha=4.0, seed=3)
    assert rep.exceedance == 0.0
    # GOE spectrum edge sits at 2 (slightly inside at finite n)
    assert 0.9 <= np.mean(rep.norms) / 2.0 <= 1.02


def test_nck_validation():
    with pytest.raises(ValueError):
        nck_check(GaussianSeriesEnsemble("diag", n=3), 10)
    with pytest.raises(ValueError):
        nck_check(GaussianSeriesEnsemble("diag", n=8), 0)


# ---------------------------------------------------------------------------
# Deterministic inequality suite


def test_inequality_suite_no_violations():
    rep = matrix_inequality_suite(10, 1000, seed=0)
    assert rep.total_violations == 0
    assert rep.n_trials == 1000
    assert rep.violations == {}
    for label, margin in rep.worst_margin.items():
        assert margin <= rep.slack, label
        assert np.isfinite(margin)


def test_inequality_suite_covers_all_families():
    rep = matrix_inequality_suite(4, 2, seed=1)
    labels = set(rep.worst_margin)
    assert any(lab.startswith("trace-power") for lab in labels)
    assert {"jensen x^2", "jensen x^4", "jensen exp"} <= labels
    assert any(lab.startswith("hoelder") for lab in labels)


def test_inequality_suite_size_validation():
    with pytest.raises(ValueError):
        matrix_inequality_suite(1, 5)
    with pytest.raises(ValueError):
        matrix_inequality_suite(33, 5)


def test_trace_power_equality_for_commuting_pair():
    # With A and B both diagonal, tr(A B^{m-l} A B^l) = tr(A^2 B^m) exactly.
    rng = rng_for(9, 9)
    a = np.diag(rng.standard_normal(6))
    b = np.diag(rng.standard_normal(6))
    m = 4
    rhs = float(np.trace(a @ a @ np.linalg.matrix_power(b, m)))
    for ell in range(m + 1):
        lhs = float(
            np.trace(
                a
                @ np.linalg.matrix_power(b, m - ell)
                @ a
                @ np.linalg.matrix_power(b, ell)
            )
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Gaussian integration by parts


def gibp_scalar_oracle(lam, z, n_nodes=200):
    """Both sides of the 1x1 identity for R = (lam g - z)^{-1}, by quadrature.

    Returns (lhs, rhs) where lhs = E[R], rhs = Mfree (1 + lam^2 E[R^2]
    - lam^2 theta E[R]) with theta = E[R] and Mfree = -1/(z + lam^2 theta).
    Gauss-Hermite quadrature makes both sides exact to machine precision, so
    the difference isolates algebra errors rather than sampling noise.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    weights = weights / math.sqrt(2.0 * math.pi)
    r = 1.0 / (lam * nodes - z)
    e_r = complex(np.sum(weights * r))
    e_r2 = complex(np.sum(weights * r * r))
    theta = e_r
    mfree = -1.0 / (z + lam * lam * theta)
    rhs = mfree * (1.0 + lam * lam * e_r2 - lam * lam * theta * e_r)
    return e_r, rhs


def test_gibp_scalar_oracle_machine_precision():
    lhs, rhs = gibp_scalar_oracle(0.5, 0.3 + 0.8j, n_nodes=200)
    assert abs(lhs - rhs) <= 1e-12


def test_gibp_scalar_oracle_validation():
    with pytest.raises(ValueError):
        gibp_scalar_oracle(0.5, 0.3 - 0.8j)


def test_gibp_goe_product_uses_the_symmetry_of_R():
    # gibp_check_goe forms A[R] R as (R^2 + tr R * R) / n, which needs R^T = R.
    n, z = 32, 0.4 + 0.5j
    r = np.linalg.inv(sample_goe(n, rng_for(4, 2)) - z * np.eye(n))
    want = superoperator_goe(r) @ r
    np.testing.assert_allclose((r @ r + np.trace(r) * r) / n, want, rtol=0, atol=1e-13)


def test_gibp_goe_residual_within_noise():
    rep = gibp_check_goe(16, 0.4 + 0.5j, 4000, seed=0)
    assert rep.max_ratio <= 4.0
    assert rep.mean_residual.shape == (16, 16)
    assert np.all(rep.stderr > 0)


def test_gibp_goe_validation_and_warning():
    with pytest.raises(ValueError):
        gibp_check_goe(8, 1.0 - 0.5j, 10)
    with pytest.raises(ValueError):
        gibp_check_goe(2048, 1.0 + 0.5j, 10)
    with pytest.warns(UserWarning, match="residual variance"):
        gibp_check_goe(16, 0.4 + 0.4j, 4, seed=0)


def test_gibp_anderson_residual_within_noise():
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.4, seed=0)
    rep = gibp_check_anderson(spec, 0.3 + 0.5j, 4000, seed=0)
    assert rep.max_ratio <= 4.0
    assert rep.plugin.imag > 0


def test_gibp_anderson_zero_coupling_is_exact():
    # lam = 0 collapses the identity to R = Mfree, an algebraic statement the
    # Monte-Carlo loop must reproduce bitwise.
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.0, seed=0)
    rep = gibp_check_anderson(spec, 0.3 + 0.5j, 8, seed=1)
    assert np.max(np.abs(rep.mean_residual)) == 0.0


def test_gibp_anderson_validation_and_warning():
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.5, seed=0)
    with pytest.raises(ValueError):
        gibp_check_anderson(spec, 0.3 - 0.5j, 10)
    big = HamiltonianSpec.sample(TorusGrid(1, 1026), 0.5, seed=0)
    with pytest.raises(ValueError):
        gibp_check_anderson(big, 0.3 + 0.5j, 10)
    with pytest.warns(UserWarning, match="residual variance"):
        gibp_check_anderson(spec, 0.3 + 0.2j, 4, seed=0)


# ---------------------------------------------------------------------------
# Crossing term


def brute_force_pair_sum(family, rq, r1):
    """sum_{j,k} A_j Rq A_k Rq A_j R1 A_k R1 by explicit double loop."""
    n = rq.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for aj in family:
        for ak in family:
            out += aj @ rq @ ak @ rq @ aj @ r1 @ ak @ r1
    return out


def test_crossing_goe_contraction_closed_form():
    # Independent derivation: summing the GOE family pairings gives
    # n^{-2} [ tr(Rq R1^T) Rq^T R1 + Rq^T R1^T Rq R1
    #          + R1 Rq^T Rq^T R1 + R1 Rq Rq R1 ].
    n = 4
    rng = rng_for(6, 1)
    rq = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    brute = brute_force_pair_sum(goe_coefficient_family(n), rq, r1)
    closed = (
        np.trace(rq @ r1.T) * (rq.T @ r1)
        + rq.T @ r1.T @ rq @ r1
        + r1 @ rq.T @ rq.T @ r1
        + r1 @ rq @ rq @ r1
    ) / (n * n)
    np.testing.assert_allclose(brute, closed, atol=1e-12)


def test_crossing_anderson_contraction_closed_form():
    # Site family A_x = lam |x><x|: the pairing sum collapses to the Hadamard
    # form lam^4 (Rq o Rq^T o R1) @ R1.
    n, lam = 5, 0.7
    rng = rng_for(7, 1)
    rq = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    family = [lam * np.diag(e) for e in np.eye(n)]
    brute = brute_force_pair_sum(family, rq, r1)
    closed = lam**4 * ((rq * rq.T * r1) @ r1)
    np.testing.assert_allclose(brute, closed, atol=1e-12)


def test_crossing_goe_routes_agree():
    # The coupled difference between the direct and interpolated routes is
    # zero-mean; a wrong contraction or Jacobian would bias it far beyond the
    # tiny stderr of the shared-sample difference.
    rep = crossing_check_goe(8, 0.4 + 0.5j, 3000, n_nodes=8, seed=0)
    assert rep.max_ratio <= 4.0
    assert np.max(np.abs(rep.direct)) > 0
    np.testing.assert_allclose(rep.direct - rep.interpolated, rep.diff_mean, atol=1e-12)


def test_crossing_anderson_routes_agree():
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.4, seed=0)
    rep = crossing_check_anderson(spec, 0.3 + 0.6j, 2000, n_nodes=8, seed=0)
    assert rep.max_ratio <= 4.0


def test_crossing_anderson_zero_coupling_is_exact():
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.0, seed=0)
    rep = crossing_check_anderson(spec, 0.3 + 0.6j, 16, n_nodes=4, seed=0)
    assert rep.max_ratio == 0.0
    assert np.max(np.abs(rep.direct)) == 0.0
    assert np.max(np.abs(rep.interpolated)) == 0.0


def crossing_scalar_oracle(lam, z, n_nodes_gh=80, n_nodes_gl=24):
    """Both crossing routes for the 1x1 model, by deterministic quadrature.

    direct = lam^2 E[(R - E R) R] over a single Gaussian; interpolated =
    int_0^1 lam^4 E[Rq^2 R1^2] dw with q = w^2 over an independent pair.
    Agreement validates the interpolation identity and the q = w^2 Jacobian
    handling without Monte-Carlo noise.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes_gh)
    weights = weights / math.sqrt(2.0 * math.pi)
    r = 1.0 / (lam * nodes - z)
    e_r = np.sum(weights * r)
    direct = lam * lam * np.sum(weights * (r - e_r) * r)

    x, w = np.polynomial.legendre.leggauss(n_nodes_gl)
    q_nodes = ((x + 1.0) / 2.0) ** 2
    gg, gg_p = np.meshgrid(nodes, nodes, indexing="ij")
    ww = np.outer(weights, weights)
    r1 = 1.0 / (lam * gg_p - z)
    interp = 0.0 + 0.0j
    for q, w_q in zip(q_nodes, w / 2.0):
        mixed = math.sqrt(1.0 - q) * gg + math.sqrt(q) * gg_p
        rq = 1.0 / (lam * mixed - z)
        interp += w_q * lam**4 * np.sum(ww * rq * rq * r1 * r1)
    return complex(direct), complex(interp)


def test_crossing_scalar_oracle_machine_precision():
    direct, interp = crossing_scalar_oracle(0.5, 0.3 + 0.8j, 160, 32)
    assert abs(direct - interp) <= 1e-12
    assert abs(direct) > 1e-3


def test_crossing_validation():
    with pytest.raises(ValueError):
        crossing_check_goe(8, 0.4 - 0.5j, 10)
    spec = HamiltonianSpec.sample(TorusGrid(1, 6), 0.4, seed=0)
    with pytest.raises(ValueError):
        crossing_check_anderson(spec, 0.4 - 0.5j, 10)
    with pytest.raises(ValueError):
        crossing_scalar_oracle(0.5, 0.3 - 0.8j)
