"""Chebyshev propagator, displacement statistics, and collision operators."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator
from scipy.special import jv

from qdlab.errors import NonConvergenceError, OrderOverflowError
from qdlab.lattice import (
    ComplexField,
    DisorderField,
    HamiltonianSpec,
    TorusGrid,
    delta_field,
    dense_adjacency,
    dense_hamiltonian,
    distance_sq_grid,
    free_propagate,
    free_propagator_dense,
    rng_for,
)
from qdlab import propagation
from qdlab.propagation import (
    WraparoundWarning,
    _bessel_tail_order,
    _kapteyn_log_bound,
    _spread,
    dyson_Tk,
    evolve,
    op_norm,
    plan_evolution,
    propagator_deviation,
    run_trajectory,
)


def spectral_propagator(spec, t):
    h = dense_hamiltonian(spec)
    energies, q = np.linalg.eigh(h)
    return (q * np.exp(-1j * t * energies)[None, :]) @ q.T


def small_spec(lam=0.5, seed=7, d=1, L=8):
    return HamiltonianSpec.sample(TorusGrid(d, L), lam, seed=seed)


# ---------------------------------------------------------------------------
# evolve


def test_tolerance_domain_is_open():
    spec = small_spec()
    f = delta_field(spec.grid)
    for bad in (1e-4, 1e-14, 0.5, -1e-8):
        with pytest.raises(ValueError):
            evolve(spec, f, 1.0, tol=bad)


def test_evolve_matches_dense_spectral():
    spec = small_spec()
    f = delta_field(spec.grid)
    got = evolve(spec, f, 2.0, tol=1e-10).values.ravel()
    want = spectral_propagator(spec, 2.0) @ f.values.ravel()
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_evolve_error_tracks_tol(tol):
    spec = HamiltonianSpec.sample(TorusGrid(1, 64), 0.4, seed=3)
    f = delta_field(spec.grid)
    got = evolve(spec, f, 3.0, tol=tol).values.ravel()
    want = spectral_propagator(spec, 3.0) @ f.values.ravel()
    assert np.linalg.norm(got - want) <= 10 * tol


def test_evolve_t0_is_exact_copy():
    spec = small_spec()
    f = delta_field(spec.grid)
    out = evolve(spec, f, 0.0)
    np.testing.assert_array_equal(out.values, f.values)
    assert out.values is not f.values


def test_evolve_free_limit():
    spec = HamiltonianSpec.sample(TorusGrid(2, 16), 0.0, seed=0)
    f = delta_field(spec.grid)
    tol = 1e-10
    got = evolve(spec, f, 4.0, tol=tol).values
    want = free_propagate(f, 4.0).values
    assert np.max(np.abs(got - want)) <= 10 * tol


def test_evolve_group_law_and_reversal():
    spec = small_spec(lam=0.8, seed=1)
    f = delta_field(spec.grid)
    tol = 1e-9
    ab = evolve(spec, evolve(spec, f, 1.3, tol=tol), 0.9, tol=tol).values
    once = evolve(spec, f, 2.2, tol=tol).values
    assert np.max(np.abs(ab - once)) <= 20 * tol
    back = evolve(spec, evolve(spec, f, 1.7, tol=tol), -1.7, tol=tol).values
    assert np.max(np.abs(back - f.values)) <= 20 * tol


def test_evolve_mass_drift():
    spec = HamiltonianSpec.sample(TorusGrid(2, 32), 0.3, seed=4)
    f = delta_field(spec.grid)
    tol = 1e-8
    out = evolve(spec, f, 10.0, tol=tol)
    assert abs(np.linalg.norm(out.values) - 1.0) <= 10 * tol


def test_order_overflow():
    spec = small_spec()
    with pytest.raises(OrderOverflowError):
        plan_evolution(spec, 50.0, tol=1e-8, max_order=10)
    with pytest.raises(OrderOverflowError):
        evolve(spec, delta_field(spec.grid), 50.0, max_order=10)


@pytest.mark.parametrize("tau", np.logspace(-2.0, 4.0, 13))
def test_bessel_tail_order_certifies_the_summed_tail(tau):
    # tails[m] = sum_{k>m} 2|J_k(tau)|, summed from jv past where it underflows.
    terms = 2.0 * np.abs(jv(np.arange(int(2 * tau) + 200), tau))
    tails = np.cumsum(terms[::-1])[::-1][1:]
    for tol in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
        m = _bessel_tail_order(tau, tol)
        exact = int(np.nonzero(tails <= tol)[0][0])
        assert tails[m] <= tol
        # Kapteyn's bound is tight to a few tau^(1/3) orders, not a multiple of tau.
        assert m <= exact + 2 + 1.5 * tau ** (1.0 / 3.0)


@pytest.mark.parametrize("tau", [0.3, 7.5, 174.0, 9200.0])
def test_kapteyn_bound_ratios_do_not_increase(tau):
    k = np.arange(math.ceil(tau), math.ceil(tau) + 3000, dtype=float)
    log_b = _kapteyn_log_bound(tau, k)
    assert np.all(np.diff(log_b) < 0.0)
    assert np.all(np.diff(log_b, 2) <= 1e-12)
    with np.errstate(divide="ignore"):
        assert np.all(np.log(np.abs(jv(k, tau))) <= log_b + 1e-12)


# ---------------------------------------------------------------------------
# msd and trajectories


def msd(field):
    """run_trajectory's mean-square displacement of one field: _spread over
    the minimal-image |x|^2 weights."""
    density = field.values.real**2 + field.values.imag**2
    return _spread(distance_sq_grid(field.grid), density)[0]


def test_msd_point_mass_and_pair():
    grid = TorusGrid(2, 8)
    assert msd(delta_field(grid)) == 0.0
    vals = np.zeros(grid.shape, dtype=complex)
    vals[0, 0] = vals[1, 0] = 1.0 / math.sqrt(2.0)
    assert msd(ComplexField(grid, vals)) == pytest.approx(0.5, abs=1e-15)


def test_msd_brute_force():
    grid = TorusGrid(2, 8)
    rng = rng_for(11, stream=2)
    f = ComplexField(grid, rng.standard_normal(grid.shape) + 0j)
    dens = np.abs(f.values) ** 2
    want = 0.0
    for x in range(8):
        for y in range(8):
            dx = min(x, 8 - x)
            dy = min(y, 8 - y)
            want += (dx * dx + dy * dy) * dens[x, y]
    assert msd(f) == pytest.approx(want / dens.sum(), rel=1e-12)


def test_msd_zero_field_rejected():
    grid = TorusGrid(1, 4)
    with pytest.raises(ValueError):
        msd(ComplexField(grid, np.zeros(grid.shape)))


@pytest.mark.parametrize("d,L,t", [(1, 256, 10.0), (2, 64, 6.0)])
def test_free_ballistic_msd(d, L, t):
    # exp(-itA) delta_0 has msd = 2 d t^2 on the infinite lattice
    spec = HamiltonianSpec.sample(TorusGrid(d, L), 0.0, seed=0)
    rec = run_trajectory(spec, [t], tol=1e-10)
    assert rec.msd[0] == pytest.approx(2.0 * d * t * t, rel=1e-2)


def test_trajectory_fields_and_running_average():
    spec = small_spec(lam=0.3, seed=2, L=16)
    times = np.array([0.5, 1.0, 2.0])
    rec = run_trajectory(spec, times, tol=1e-9, seed=2)
    assert rec.mass == pytest.approx(np.ones(3), abs=1e-8)
    # trapezoidal running mean, written out by hand
    want = 0.5 * (times[1] - times[0]) * (rec.msd[0] + rec.msd[1]) / (times[1] - times[0])
    assert rec.avg_msd[1] == pytest.approx(want, rel=1e-12)
    assert rec.avg_msd[0] == rec.msd[0]


def test_trajectory_rejects_bad_times():
    spec = small_spec()
    with pytest.raises(ValueError):
        run_trajectory(spec, [])
    with pytest.raises(ValueError):
        run_trajectory(spec, [2.0, 1.0])
    with pytest.raises(ValueError):
        run_trajectory(spec, [-1.0, 1.0])


def test_wraparound_warning_fires_once():
    spec = HamiltonianSpec.sample(TorusGrid(1, 16), 0.0, seed=0)
    with pytest.warns(WraparoundWarning):
        rec = run_trajectory(spec, [1.0, 6.0, 8.0], tol=1e-8)
    assert rec.msd.size == 3


def displacement_oracle(spec, psi0, t):
    """(msd, mass) of exp(-itH) psi0 from a dense eigh propagator and a direct
    minimal-image sum over the sites."""
    psi = spectral_propagator(spec, t) @ psi0.ravel()
    density = np.abs(psi) ** 2
    L = spec.grid.L
    coords = np.indices(spec.grid.shape).reshape(spec.grid.d, -1)
    r2 = np.sum(np.minimum(coords, L - coords) ** 2, axis=0)
    return float(r2 @ density / density.sum()), float(density.sum())


@pytest.mark.filterwarnings("ignore::qdlab.propagation.WraparoundWarning")
def test_trajectory_matches_dense_propagator():
    spec = HamiltonianSpec.sample(TorusGrid(2, 10), 0.5, seed=5)
    times = (0.0, 0.7, 3.1, 9.4)
    values = delta_field(spec.grid).values
    rec = run_trajectory(spec, times, tol=1e-10)
    for t, got_msd, got_mass in zip(times, rec.msd, rec.mass):
        want_msd, want_mass = displacement_oracle(spec, values, t)
        assert got_mass == pytest.approx(want_mass, rel=1e-9)
        if t > 0:
            assert got_msd == pytest.approx(want_msd, rel=1e-9)
        else:
            assert got_msd == pytest.approx(want_msd, abs=1e-12)


def light_cone_side(spec, times):
    """min(L, 2R + 1) for R the largest order planned on the full torus."""
    order = max(plan_evolution(spec, t).order for t in times)
    return min(spec.grid.L, 2 * order + 1)


def assert_trajectory_matches_full_torus_evolve(spec, times):
    # evolve never crops, and for one time it plans as run_trajectory does.
    rec = run_trajectory(spec, times)
    for t, got_msd, got_mass in zip(times, rec.msd, rec.mass):
        psi = evolve(spec, delta_field(spec.grid), t)
        assert got_mass == pytest.approx(float(np.sum(np.abs(psi.values) ** 2)), rel=1e-12)
        assert got_msd == pytest.approx(msd(psi), rel=1e-12, abs=0.0)


# Times per dimension, and R = the last time's planned order at lam = 0.5
# (the interval is 2d + 3 there unless some |V| exceeds 6).
LIGHT_CONE_CASES = {1: ((0.0, 0.3, 2.5, 8.0), 66), 2: ((0.4, 1.1, 2.0), 32), 3: ((0.2, 0.6), 19)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extra", [12, 0, 1])
def test_trajectory_on_the_light_cone_matches_full_torus_evolve(d, extra):
    # L = 2R + 1 + extra: well above the cone, exactly the cone (the crop is
    # the torus) and one site more (the smallest torus that is cropped).
    times, order = LIGHT_CONE_CASES[d]
    spec = HamiltonianSpec.sample(TorusGrid(d, 2 * order + 1 + extra), 0.5, seed=d)
    assert plan_evolution(spec, times[-1]).order == order
    assert_trajectory_matches_full_torus_evolve(spec, times)


def test_crop_expands_on_the_full_torus_interval():
    # A spike outside the cone widens the torus's interval past the crop's;
    # the crop must still run the torus's plans, or it leaves evolve's values.
    grid = TorusGrid(2, 64)
    values = rng_for(3).standard_normal(grid.shape)
    values[32, 32] = 40.0
    spec = HamiltonianSpec(grid, 0.5, DisorderField(grid, values))
    times = (0.1, 0.3)
    assert plan_evolution(spec, times[-1]).half_width == 24.0
    assert light_cone_side(spec, times) // 2 < 32  # the crop ends short of the spike
    assert_trajectory_matches_full_torus_evolve(spec, times)


def test_cropped_trajectory_matches_dense_propagator():
    spec = HamiltonianSpec.sample(TorusGrid(2, 48), 0.5, seed=9)
    times = (0.3, 0.6, 1.0)
    assert light_cone_side(spec, times) < spec.grid.L
    values = delta_field(spec.grid).values
    rec = run_trajectory(spec, times, tol=1e-8)
    for t, got_msd, got_mass in zip(times, rec.msd, rec.mass):
        want_msd, want_mass = displacement_oracle(spec, values, t)
        assert got_mass == pytest.approx(want_mass, rel=1e-9)
        assert got_msd == pytest.approx(want_msd, rel=1e-9)


def test_recursion_runs_on_the_smallest_torus_holding_the_cone(monkeypatch):
    # At lam = 0.5, d = 2 the cone of t = 1 is 2R + 1 = 45 sites wide, so a
    # torus of side 64 is cropped to 45, and one of side 40 is swept whole.
    shapes = []
    product = propagation.hamiltonian_product

    def spy(spec, values, out):
        shapes.append(values.shape)
        return product(spec, values, out)

    monkeypatch.setattr(propagation, "hamiltonian_product", spy)
    times = (0.5, 1.0)
    for L in (64, 40):
        spec = HamiltonianSpec.sample(TorusGrid(2, L), 0.5, seed=4)
        steps = plan_evolution(spec, times[-1]).order
        assert 2 * steps + 1 == 45
        run_trajectory(spec, times)
    assert shapes == [(45, 45)] * steps + [(40, 40)] * steps


def test_wraparound_warning_measures_the_full_torus_not_the_crop():
    # At small lam the cone is barely wider than the ballistic front, so r(t)
    # passes a quarter of the crop while it stays below a quarter of the torus.
    spec = HamiltonianSpec.sample(TorusGrid(1, 2048), 0.02, seed=0)
    times = (100.0, 200.0)
    side = light_cone_side(spec, times)
    with warnings.catch_warnings():
        warnings.simplefilter("error", WraparoundWarning)
        rec = run_trajectory(spec, times)
    r = math.sqrt(rec.msd[-1])
    assert side / 4 < r < spec.grid.L / 4


def test_trajectory_errors_do_not_add_over_sample_times():
    # Each sample time is certified on its own: with 30 sample times the last
    # one carries the same error as when it is the only one.  Evolving
    # segment by segment would add up to 30 tol.
    spec = HamiltonianSpec.sample(TorusGrid(1, 64), 0.4, seed=3)
    tol = 1e-6
    times = np.geomspace(0.5, 20.0, 30)
    want_msd, _ = displacement_oracle(spec, delta_field(spec.grid).values, times[-1])
    many = run_trajectory(spec, times, tol=tol)
    one = run_trajectory(spec, times[-1:], tol=tol)
    for rec in (many, one):
        assert abs(rec.msd[-1] - want_msd) <= 10 * tol * want_msd
        assert abs(rec.mass[-1] - 1.0) <= 10 * tol
    assert abs(many.msd[-1] - one.msd[-1]) <= 1e-3 * tol * want_msd
    assert abs(many.mass[-1] - one.mass[-1]) <= 1e-3 * tol


def test_trajectory_order_overflow_before_any_step(monkeypatch):
    # The order comes from the largest time, not from the gap between times:
    # t = 7.5e4 alone fits the default budget, t = 1.5e5 does not.
    import qdlab.propagation as propagation

    spec = small_spec()
    assert plan_evolution(spec, 7.5e4).order <= propagation.MAX_ORDER
    with pytest.raises(OrderOverflowError):
        plan_evolution(spec, 1.5e5)

    def no_step(*args, **kwargs):
        raise AssertionError("a Chebyshev step ran before the order check")

    monkeypatch.setattr(propagation, "hamiltonian_product", no_step)
    with pytest.raises(OrderOverflowError):
        run_trajectory(spec, [7.5e4, 1.5e5])


def test_start_on_another_grid_is_rejected():
    spec = small_spec()
    with pytest.raises(ValueError):
        evolve(spec, delta_field(TorusGrid(1, 16)), 1.0)


# ---------------------------------------------------------------------------
# op_norm


def test_op_norm_basics():
    assert op_norm(aslinearoperator(np.eye(5))) == pytest.approx(1.0, rel=1e-6)
    assert op_norm(aslinearoperator(np.diag([3.0, 1.0, 0.0]))) == pytest.approx(3.0, rel=1e-6)


def test_op_norm_matches_svd():
    # A complex matrix, and a real one applied to complex Lanczos vectors.
    rng = rng_for(3, stream=0)
    complex_a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    real_a = rng_for(6, stream=0).standard_normal((40, 40))
    for a in (complex_a, real_a):
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert op_norm(aslinearoperator(a), tol=1e-10) == pytest.approx(want, rel=1e-8)


def test_op_norm_matrix_free_route():
    rng = rng_for(5, stream=0)
    a = rng.standard_normal((30, 30))
    op = LinearOperator(a.shape, matvec=lambda v: a @ v, rmatvec=lambda v: a.T @ v,
                        dtype=np.complex128)
    assert op_norm(op, tol=1e-9) == pytest.approx(
        np.linalg.svd(a, compute_uv=False)[0], rel=1e-7
    )


def test_op_norm_nonconvergence(monkeypatch):
    monkeypatch.setattr(propagation, "LANCZOS_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError):
        op_norm(aslinearoperator(np.diag([2.0, 1.0])))


# ---------------------------------------------------------------------------
# collision operators


def test_dyson_T1_zero_time():
    assert np.max(np.abs(dyson_Tk(small_spec(), 1, 0.0))) == 0.0


def test_dyson_T1_identity_potential():
    # V = 1 commutes with A: T_1(t) = t exp(-itA), an absolute scale check
    grid = TorusGrid(1, 8)
    ones = DisorderField(grid, np.ones(grid.shape))
    t1 = dyson_Tk(HamiltonianSpec(grid, 0.5, ones), 1, 1.7)
    want = 1.7 * spectral_propagator(HamiltonianSpec(grid, 0.0, ones), 1.7)
    assert np.max(np.abs(t1 - want)) <= 1e-10


def test_dyson_T1_interaction_picture_hermitian():
    # exp(itA) T_1(t) = int_0^t exp(isA) V exp(-isA) ds is Hermitian
    spec = small_spec(seed=3)
    t1 = free_propagator_dense(spec.grid, -2.0) @ dyson_Tk(spec, 1, 2.0)
    assert np.max(np.abs(t1 - t1.conj().T)) <= 1e-10


def test_dyson_T1_matches_central_difference():
    # exp(-it(A + lam V)) = sum_j (-i lam)^j T_j(t), so T_1 is i d/dlam at 0;
    # the dense-eigh central difference shares no code with the quadrature
    spec = small_spec(seed=5)
    t, eps = 1.1, 1e-5
    v = spec.disorder.values
    plus = HamiltonianSpec(spec.grid, eps, DisorderField(spec.grid, v))
    minus = HamiltonianSpec(spec.grid, eps, DisorderField(spec.grid, -v))
    want = 1j * (spectral_propagator(plus, t) - spectral_propagator(minus, t)) / (2 * eps)
    got = dyson_Tk(spec, 1, t, n_quad=48)
    assert np.linalg.norm(got - want, 2) <= 1e-8


def test_T1_norm_subadditive():
    spec = small_spec(seed=9, L=16)
    norms = {
        t: op_norm(aslinearoperator(dyson_Tk(spec, 1, t)), tol=1e-8) for t in (1.0, 2.0, 3.0)
    }
    assert norms[3.0] <= norms[1.0] + norms[2.0] + 1e-6


def test_dyson_T0_unitary():
    spec = small_spec()
    u = dyson_Tk(spec, 0, 1.9)
    assert np.max(np.abs(u @ u.conj().T - np.eye(spec.grid.n_sites))) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dyson_composition_identity(k):
    spec = small_spec()
    s, t = 0.7, 0.9
    long_op = dyson_Tk(spec, k, s + t, n_quad=32)
    combined = sum(
        dyson_Tk(spec, j, s, n_quad=32) @ dyson_Tk(spec, k - j, t, n_quad=32)
        for j in range(k + 1)
    )
    assert np.linalg.norm(long_op - combined, 2) <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dyson_Tk_is_a_block_of_the_van_loan_exponential(k):
    # T_k(t) is the (0, k) block of exp(tM) for the block-bidiagonal M with
    # -iA on the diagonal and V above it (Van Loan, IEEE Trans. Autom.
    # Control 23, 395 (1978)); scipy's expm shares no code with the quadrature
    spec = small_spec()
    t = 1.6
    n = spec.grid.n_sites
    m = np.zeros(((k + 1) * n, (k + 1) * n), dtype=np.complex128)
    for j in range(k + 1):
        m[j * n : (j + 1) * n, j * n : (j + 1) * n] = -1j * dense_adjacency(spec.grid)
        if j < k:
            m[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = np.diag(spec.disorder.values.ravel())
    want = scipy.linalg.expm(t * m)[:n, k * n :]
    assert np.linalg.norm(dyson_Tk(spec, k, t, n_quad=32) - want, 2) <= 1e-12


def test_dyson_rejects_bad_k():
    spec = small_spec()
    with pytest.raises(ValueError):
        dyson_Tk(spec, 5, 1.0)


# ---------------------------------------------------------------------------
# propagator deviation


def test_deviation_short_circuits():
    free = HamiltonianSpec.sample(TorusGrid(1, 16), 0.0, seed=0)
    assert propagator_deviation(free, 2.0) == 0.0
    assert propagator_deviation(small_spec(), 0.0) == 0.0


def test_deviation_matches_dense():
    spec = small_spec(lam=0.5, seed=7)
    t = 1.5
    h = dense_hamiltonian(spec)
    energies, q = np.linalg.eigh(h)
    full = (q * np.exp(-1j * t * energies)[None, :]) @ q.T
    free = free_propagator_dense(spec.grid, t)
    want = np.linalg.norm(full - free, 2)
    got = propagator_deviation(spec, t, tol=1e-5)
    assert got == pytest.approx(want, rel=1e-4, abs=1e-8)


def test_deviation_dominated_by_collision_series():
    # ||e^{-itH} - e^{-itA}|| <= sum_{k=1..3} lam^k ||T_k|| + Duhamel tail,
    # tail <= lam^4 t max|V| max_s ||T_3(s)||
    spec = small_spec(lam=0.5, seed=7)
    t = 1.5
    dev = propagator_deviation(spec, t, tol=1e-5)
    series = sum(
        spec.lam**k * np.linalg.norm(dyson_Tk(spec, k, t, n_quad=32), 2)
        for k in (1, 2, 3)
    )
    t3_max = max(
        np.linalg.norm(dyson_Tk(spec, 3, s, n_quad=32), 2)
        for s in (0.5 * t, 0.75 * t, t)
    )
    tail = spec.lam**4 * t * float(np.max(np.abs(spec.disorder.values))) * t3_max
    assert dev <= series + tail
