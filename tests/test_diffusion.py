"""Momentum sums, the self-consistent shift, kernel walks, and the Green operator."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from scipy.special import jv

from qdlab.diffusion import (
    EnergyPoint,
    F_eval,
    KernelField,
    _momentum_mean,
    _theta_fixed_point,
    _wilson,
    anticoncentration_mc,
    ball_indicator,
    convolve_kernel,
    deloc_check,
    green_apply,
    kernel_K,
    measure_observable,
    mtilde_kernel,
    neumann_walk_sum,
    predict_observable,
    solve_theta,
    step_distribution,
    walk_positions,
)
from qdlab.errors import NonConvergenceError
from qdlab.lattice import (
    HamiltonianSpec,
    TorusGrid,
    delta_field,
    distance_sq_grid,
    hamiltonian_product,
    minimal_image,
    momentum_grid,
)
from qdlab.spectral import apply_free_resolvent


def closed_form_F1(z):
    w = np.sqrt(z * z - 4.0)
    if (-1.0 / w).imag <= 0:
        w = -w
    return -1.0 / w


def bessel_integral_F(z, d):
    # F(z) = i * int_0^inf e^{isz} J_0(2s)^d ds for Im z > 0
    def integrand(s, part):
        val = 1j * np.exp(1j * s * z) * jv(0, 2.0 * s) ** d
        return val.real if part == "re" else val.imag

    upper = 40.0 / z.imag
    re = scipy.integrate.quad(integrand, 0, upper, args=("re",), limit=400)[0]
    im = scipy.integrate.quad(integrand, 0, upper, args=("im",), limit=400)[0]
    return complex(re, im)


# ---------------------------------------------------------------------------
# F(z)


@pytest.mark.parametrize("z", [0.5 + 0.1j, -1.3 + 0.4j, 2.0 + 1.0j])
def test_F_d1_closed_form(z):
    assert abs(F_eval(z, 1) - closed_form_F1(z)) <= 1e-8


@pytest.mark.parametrize("d,z", [(1, 0.8 + 0.5j), (2, 1.0 + 0.4j), (2, -2.5 + 0.7j)])
def test_F_matches_bessel_integral(d, z):
    assert abs(F_eval(z, d) - bessel_integral_F(z, d)) <= 1e-7


def test_F_herglotz_and_symmetry():
    for z in (0.3 + 0.05j, 3.9 + 0.02j, -1.0 + 1.0j):
        val = F_eval(z, 2)
        assert val.imag > 0
        mirrored = F_eval(complex(-z.real, z.imag), 2)
        assert abs(mirrored - (-val.conjugate())) <= 1e-10


def test_F_laurent_tail():
    for d in (1, 2):
        for z in (100.0 + 1.0j, 60.0j, -80.0 + 5.0j):
            assert abs(F_eval(z, d) + 1.0 / z) <= 8.0 * d * d / abs(z) ** 3


def test_F_fixed_resolution_matches_direct_sum():
    z = 0.31 + 0.07j  # close to a grid dispersion value: resonant denominators
    m = 64
    omega = momentum_grid(TorusGrid(2, m))
    direct = np.mean(1.0 / (omega - z))
    assert abs(_momentum_mean(z, 2, m) - direct) <= 1e-12 * abs(direct)


def test_F_rejects_real_z_and_tiny_eta():
    with pytest.raises(ValueError):
        F_eval(1.0 + 0.0j, 2)
    with pytest.raises(NonConvergenceError):
        F_eval(1.0 + 1e-9j, 2)


# ---------------------------------------------------------------------------
# Density of states near the real axis: rho_eta(E) = Im F(E + i eta) / pi


def _rho(energy: float, d: int, eta: float) -> float:
    return F_eval(complex(energy, eta), d).imag / math.pi


def test_dos_d1_closed_form():
    # rho(E) = 1 / (pi sqrt(4 - E^2)) inside the d=1 band; the smoothing error is O(eta^2)
    assert _rho(1.0, 1, 0.01) == pytest.approx(1.0 / (math.pi * math.sqrt(3.0)), abs=1e-4)


def test_dos_vanishes_outside_band():
    # Outside the band Im F is linear in eta, so the Richardson limit eta -> 0 is zero
    e = 4.5  # 2d + 0.5
    assert abs(2.0 * _rho(e, 2, 0.005) - _rho(e, 2, 0.01)) <= 1e-6


def test_dos_symmetry():
    for eta in (0.01, 0.005):
        assert _rho(1.0, 2, eta) == pytest.approx(_rho(-1.0, 2, eta), abs=1e-8)


def test_dos_flags_critical_energy():
    # E=0 is the d=2 van Hove energy: rho_eta(0) diverges like ln(1/eta) / (2 pi^2), so
    # each halving of eta adds ln 2 / (2 pi^2), while at E=1 the increments die out
    etas = [0.04, 0.02, 0.01, 0.005]
    steps = np.diff([_rho(0.0, 2, eta) for eta in etas])
    assert steps == pytest.approx(math.log(2.0) / (2.0 * math.pi**2), rel=1e-3)
    assert np.all(np.abs(np.diff([_rho(1.0, 2, eta) for eta in etas])) <= 1e-4)


# ---------------------------------------------------------------------------
# theta


def test_theta_free_coupling_is_F():
    point = EnergyPoint(E=0.7, eta=0.2, lam=0.0, d=2)
    sol = solve_theta(point)
    assert sol.iterations == 0
    assert abs(sol.theta - F_eval(point.z, 2)) <= 1e-10


def test_theta_residual_and_herglotz():
    sol = solve_theta(EnergyPoint(E=1.0, eta=0.04, lam=0.2, d=2))
    assert sol.residual <= 1e-12
    assert sol.theta.imag > 0


def test_theta_quadratic_coupling_shift():
    # |theta - F(z)| = O(lam^2): the ratio stays flat over a dyadic lam sweep
    point0 = EnergyPoint(E=1.0, eta=0.5, lam=0.0, d=2)
    f0 = F_eval(point0.z, 2)
    ratios = []
    for lam in (0.1, 0.2, 0.4):
        sol = solve_theta(EnergyPoint(E=1.0, eta=0.5, lam=lam, d=2))
        ratios.append(abs(sol.theta - f0) / lam**2)
    assert max(ratios) / min(ratios) <= 2.0


def test_theta_mirror_symmetry():
    a = solve_theta(EnergyPoint(E=1.3, eta=0.1, lam=0.3, d=2)).theta
    b = solve_theta(EnergyPoint(E=-1.3, eta=0.1, lam=0.3, d=2)).theta
    assert abs(b - (-a.conjugate())) <= 1e-10


def test_energy_point_validation():
    with pytest.raises(ValueError):
        EnergyPoint(E=0.0, eta=0.0, lam=0.1)
    with pytest.raises(ValueError):
        EnergyPoint(E=0.0, eta=0.1, lam=-0.1)


# ---------------------------------------------------------------------------
# kernel


def test_mtilde_solves_shifted_lattice_equation():
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    theta = solve_theta(point).theta
    grid = TorusGrid(2, 32)
    mt = mtilde_kernel(point, theta, grid)
    shift = point.z + point.lam**2 * theta
    free = HamiltonianSpec.sample(grid, lam=0.0, seed=0)
    residual = hamiltonian_product(free, mt, np.empty_like(mt)) - shift * mt
    residual[(0,) * grid.d] -= 1.0
    assert np.max(np.abs(residual)) <= 1e-8


def test_kernel_shape_and_moments():
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    kernel = kernel_K(point, solve_theta(point).theta, TorusGrid(2, 32))
    vals = kernel.values
    assert np.all(vals >= 0)
    # evenness K(x) = K(-x), checked via index reflection
    idx = (-np.arange(32)) % 32
    flipped = vals[np.ix_(idx, idx)]
    assert np.max(np.abs(vals - flipped)) <= 1e-14
    assert 0.0 < kernel.mass < 1.0
    assert np.max(np.abs(kernel.mean)) <= 1e-12
    # Cauchy-Schwarz between the moments sum K, sum |x|^2 K and sum |x|^4 K
    r2 = distance_sq_grid(kernel.grid)
    second, fourth = float(np.sum(vals * r2)), float(np.sum(vals * r2**2))
    assert second**2 <= float(np.sum(vals)) * fourth * (1 + 1e-12)


def test_kernel_mass_identity_at_matched_resolution():
    # lam^2 sum K = lam^2 Im theta / (eta + lam^2 Im theta) exactly, when theta
    # is solved on the same momentum grid the kernel lives on
    point = EnergyPoint(E=1.0, eta=0.04, lam=0.2, d=2)
    sol = _theta_fixed_point(point, 64, _momentum_mean(point.z, 2, 64))
    kernel = kernel_K(point, sol.theta, TorusGrid(2, 64))
    want = point.lam**2 * sol.theta.imag / (point.eta + point.lam**2 * sol.theta.imag)
    assert kernel.mass == pytest.approx(want, rel=1e-10)


GREEN_CASES = [  # (point, grid) pairs in d = 1, 2, 3
    (EnergyPoint(E=0.5, eta=0.15, lam=0.3, d=2), TorusGrid(2, 16)),
    (EnergyPoint(E=0.3, eta=0.05, lam=0.25, d=1), TorusGrid(1, 64)),
    (EnergyPoint(E=1.0, eta=0.04, lam=0.2, d=2), TorusGrid(2, 32)),
    (EnergyPoint(E=0.5, eta=0.1, lam=0.3, d=3), TorusGrid(3, 12)),
]


def neumann_green(kernel, f):
    """Oracle for green_apply: the Neumann series sum_j (lam^2 K)^j f, one
    FFT power per term, until a term drops below 1e-17 of the sum."""
    khat = np.fft.fftn(kernel.values) * kernel.lam**2
    out = f.copy()
    term = f
    for _ in range(5000):
        term = np.fft.ifftn(np.fft.fftn(term) * khat).real
        out += term
        if np.max(np.abs(term)) <= 1e-17 * np.max(np.abs(out)):
            return out
    raise AssertionError("Neumann oracle did not settle")


def test_green_apply_identities():
    for point, grid in GREEN_CASES:
        kernel = kernel_K(point, solve_theta(point).theta, grid)
        # constant input: geometric series of the mass
        out = green_apply(kernel, np.ones(grid.shape))
        np.testing.assert_allclose(out, 1.0 / (1.0 - kernel.mass), rtol=1e-12)
        # residual of (Id - lam^2 K) out = f
        rng = np.random.default_rng(5)
        f = rng.random(grid.shape)
        x = green_apply(kernel, f)
        back = x - point.lam**2 * convolve_kernel(kernel, x)
        assert np.max(np.abs(back - f)) <= 1e-13, (point, grid)
        # zero kernel passes f through, up to the FFT round trip
        null = KernelField(grid, point.lam, np.zeros(grid.shape), 0.0, np.zeros(grid.d))
        np.testing.assert_allclose(green_apply(null, f), f, rtol=0, atol=1e-15)


@pytest.mark.parametrize("point, grid", GREEN_CASES[1:])
def test_green_apply_matches_neumann_series(point, grid):
    kernel = kernel_K(point, solve_theta(point).theta, grid)
    f = np.random.default_rng(6).random(grid.shape)
    np.testing.assert_allclose(green_apply(kernel, f), neumann_green(kernel, f), rtol=1e-9)


def test_green_apply_rejects_nan():
    point, grid = GREEN_CASES[0]
    kernel = kernel_K(point, solve_theta(point).theta, grid)
    f = np.ones(grid.shape)
    f[3, 4] = np.nan
    with pytest.raises(ValueError):
        green_apply(kernel, f)
    with pytest.raises(ValueError):
        green_apply(dataclasses.replace(kernel, mass=math.nan), np.ones(grid.shape))


def test_predict_constant_observable_is_im_theta_over_eta():
    point = EnergyPoint(E=1.0, eta=0.04, lam=0.2, d=2)
    sol = _theta_fixed_point(point, 64, _momentum_mean(point.z, 2, 64))
    grid = TorusGrid(2, 64)
    kernel = kernel_K(point, sol.theta, grid)
    out = predict_observable(point, sol.theta, np.ones(grid.shape), kernel)
    np.testing.assert_allclose(out, sol.theta.imag / point.eta, rtol=1e-8)


def test_kernel_rejects_a_grid_of_another_dimension():
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    with pytest.raises(ValueError, match="d=2"):
        kernel_K(point, solve_theta(point).theta, TorusGrid(3, 8))


def test_observables_reject_an_f_of_another_shape():
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    grid = TorusGrid(2, 16)
    theta = solve_theta(point).theta
    kernel = kernel_K(point, theta, grid)
    line = np.ones(16)
    with pytest.raises(ValueError, match="shape"):
        predict_observable(point, theta, line, kernel)
    with pytest.raises(ValueError, match="shape"):
        measure_observable(grid, point.lam, point.z, line, seeds=(0,))


def test_predict_rejects_a_kernel_of_another_coupling():
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    other = EnergyPoint(E=1.0, eta=0.1, lam=0.5, d=2)
    grid = TorusGrid(2, 16)
    theta = solve_theta(other).theta
    kernel = kernel_K(other, theta, grid)
    with pytest.raises(ValueError, match="lam=0.5"):
        predict_observable(point, theta, np.ones(grid.shape), kernel)


# ---------------------------------------------------------------------------
# sampled observables


def test_measure_observable_ward_normalization():
    grid = TorusGrid(2, 16)
    z = 1.0 + 0.1j
    sample = measure_observable(grid, 0.4, z, np.ones(grid.shape), seeds=(0, 1, 2))
    np.testing.assert_allclose(sample.values, sample.im_r00 / z.imag, rtol=1e-10)


def test_measure_observable_free_oracle():
    grid = TorusGrid(2, 16)
    z = 0.5 + 0.2j
    col = apply_free_resolvent(momentum_grid(grid) - z, delta_field(grid).values)
    f = ball_indicator(grid, 2.5)
    want = float(np.sum(f * np.abs(col) ** 2))
    sample = measure_observable(grid, 0.0, z, f, seeds=(0, 7))
    np.testing.assert_allclose(sample.values, want, rtol=1e-10)


def test_measure_observable_reuses_columns():
    # The columns measure_observable keeps serve deloc_check in place of new solves.
    grid, lam, z = deloc_point()
    f = np.ones(grid.shape)
    kept = measure_observable(grid, lam, z, f, seeds=(0, 1), keep_columns=True)
    assert measure_observable(grid, lam, z, f, seeds=(0, 1)).columns is None
    with pytest.warns(UserWarning):
        reused = deloc_check(grid, lam, z, c1=0.5, seeds=(0, 1), columns=kept.columns)
    with pytest.warns(UserWarning):
        solved = deloc_check(grid, lam, z, c1=0.5, seeds=(0, 1))
    np.testing.assert_array_equal(reused.fractions, solved.fractions)


def test_ball_indicator_counts():
    grid = TorusGrid(2, 8)
    ball = ball_indicator(grid, 1.0)
    assert ball.sum() == 5.0  # origin plus 4 unit neighbors
    assert ball[0, 0] == 1.0 and ball[1, 1] == 0.0


# ---------------------------------------------------------------------------
# delocalization check


def deloc_point():
    # eta inside [lam^2/2, 2 lam^2], L at least two diffusive lengths
    return TorusGrid(2, 32), 0.3, 1.0 + 0.09j


def test_deloc_fractions_match_column_recomputation():
    grid, lam, z = deloc_point()
    with pytest.warns(UserWarning):
        report = deloc_check(grid, lam, z, c1=0.5, seeds=(0, 1, 2, 3))
    assert report.q25 <= report.median <= report.q75
    assert np.all(report.fractions >= 0) and np.all(report.fractions <= 1 + 1e-9)
    assert report.radius == pytest.approx(0.5 / (lam * math.sqrt(z.imag)))


def test_deloc_degenerate_radii():
    grid, lam, z = deloc_point()
    with pytest.warns(UserWarning):
        everything = deloc_check(grid, lam, z, c1=0.0, seeds=(0,))
    # radius zero excludes only the origin site
    assert everything.fractions[0] == pytest.approx(1.0, abs=0.2)
    with pytest.warns(UserWarning):
        nothing = deloc_check(grid, lam, z, c1=50.0, seeds=(0,))
    assert nothing.fractions[0] == 0.0


def test_deloc_preconditions():
    grid, lam, z = deloc_point()
    with pytest.raises(ValueError):
        deloc_check(grid, lam, 1.0 + 0.5j, c1=0.5, seeds=(0,))  # eta too large
    with pytest.raises(ValueError):
        deloc_check(TorusGrid(2, 16), lam, z, c1=0.5, seeds=(0,))  # box too small


# ---------------------------------------------------------------------------
# kernel-driven walk


def walk_kernel(L=32):
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    return kernel_K(point, solve_theta(point).theta, TorusGrid(2, L))


def test_step_distribution_normalization():
    step = step_distribution(walk_kernel())
    assert step.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    want_sigma = math.sqrt(
        float(step.probabilities @ np.sum(step.displacements.astype(float) ** 2, axis=1))
    )
    assert step.sigma == pytest.approx(want_sigma, rel=1e-12)


def test_single_step_hit_probability_exhaustive():
    kernel = walk_kernel()
    step = step_distribution(kernel)
    r = 3.0
    inside = np.sum(step.displacements.astype(float) ** 2, axis=1) <= r * r
    exact = float(step.probabilities[inside].sum())
    est = anticoncentration_mc(step, 1, r, n_trials=20000, seed=1)
    stderr = math.sqrt(exact * (1.0 - exact) / est.n_trials)
    assert abs(est.p - exact) <= 4.0 * stderr
    assert est.ci_low < est.p < est.ci_high
    assert est.ci_high - est.ci_low < 8.0 * stderr


def test_wrapped_walk_matches_fft_convolution():
    kernel = walk_kernel(L=16)
    step = step_distribution(kernel)
    j = 5
    phat = np.fft.fftn(kernel.values / kernel.values.sum())
    dist_j = np.fft.ifftn(phat**j).real
    ball = ball_indicator(kernel.grid, 2.0)
    exact = float(np.sum(dist_j * ball))
    pos = minimal_image(kernel.grid, walk_positions(step, [j], n_trials=40000, seed=2)[j])
    hits = int(np.count_nonzero(np.sum(pos.astype(float) ** 2, axis=1) <= 2.0**2))
    ci_low, ci_high = _wilson(hits, 40000)
    assert ci_low <= exact <= ci_high


def test_walk_positions_checkpoints_are_partial_sums():
    step = step_distribution(walk_kernel(L=16))
    pos = walk_positions(step, [2, 5], n_trials=64, seed=3)
    assert pos[2].shape == (64, 2) and pos[5].shape == (64, 2)
    with pytest.raises(ValueError):
        walk_positions(step, [0, 2], 8, seed=0)


def test_neumann_walk_sum_against_fft_green_function():
    kernel = walk_kernel(L=16)
    r = 2.5
    value, stderr, tail = neumann_walk_sum(kernel, r, n_trials=60000, seed=4)
    # exact wrapped-walk sum by FFT powers
    probs = kernel.values / kernel.values.sum()
    phat = np.fft.fftn(probs)
    ball = ball_indicator(kernel.grid, r)
    lam2 = kernel.lam**2
    exact, power = 0.0, np.ones_like(phat)
    for j in range(1, 200):
        power = power * phat
        exact += kernel.mass**j * float(np.sum(np.fft.ifftn(power).real * ball))
    exact /= lam2
    assert abs(value - exact) <= 4.0 * stderr + tail
    # and the same number through the deterministic Green operator
    point = EnergyPoint(E=1.0, eta=0.1, lam=0.3, d=2)
    theta = solve_theta(point).theta
    predicted = predict_observable(point, theta, ball, kernel)
    assert predicted[0, 0] == pytest.approx(exact, rel=1e-8)


def test_anticoncentration_decay_rate_d2():
    step = step_distribution(walk_kernel())
    ns = (8, 16, 32, 64)
    ps = [
        anticoncentration_mc(step, n, step.sigma, n_trials=30000, seed=5).p
        for n in ns
    ]
    slope = np.polyfit(np.log(ns), np.log(ps), 1)[0]
    assert -1.35 <= slope <= -0.65
