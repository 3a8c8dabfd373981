"""Gaussian random-matrix benchmarks: GOE resolvents, matrix series, identities.

Three groups of tools live here:

* GOE sampling plus a resolvent local-law check against the semicircle
  Stieltjes transform.
* Gaussian matrix series ``X = sum_j g_j A_j`` with noncommutative
  Khintchine norm statistics, and a suite of deterministic trace inequalities
  evaluated on random inputs.
* Gaussian-integration-by-parts residuals for resolvent averages (GOE and
  lattice-disorder flavors) and the crossing term that couples two
  independent copies through an interpolation in the correlation parameter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import HamiltonianSpec, dense_adjacency, rng_for

__all__ = [
    "sample_goe",
    "semicircle_stieltjes",
    "LocalLawStats",
    "goe_local_law",
    "superoperator_goe",
    "goe_coefficient_family",
    "GaussianSeriesEnsemble",
    "NCKReport",
    "nck_check",
    "InequalityReport",
    "matrix_inequality_suite",
    "GIBPReport",
    "gibp_check_goe",
    "gibp_check_anderson",
    "CrossingReport",
    "crossing_check_goe",
    "crossing_check_anderson",
]


# ---------------------------------------------------------------------------
# GOE sampling and the semicircle local law
# ---------------------------------------------------------------------------


def sample_goe(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian matrix with entry variance 1/n off-diagonal, 2/n on.

    Normalized so the spectrum concentrates on [-2, 2].
    """
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    g = rng.standard_normal((n, n))
    return (g + g.T) / math.sqrt(2.0 * n)


def semicircle_stieltjes(z: complex) -> complex:
    """Stieltjes transform m(z) of the semicircle law, the root of
    m^2 + z m + 1 = 0 with positive imaginary part for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    w = np.sqrt(z * z - 4.0)
    m = (-z + w) / 2.0
    if m.imag <= 0:
        m = (-z - w) / 2.0
    return complex(m)


@dataclass(frozen=True)
class LocalLawStats:
    """Monte-Carlo summary of the normalized GOE resolvent trace at one z."""

    z: complex
    n_dim: int
    n_samples: int
    samples: np.ndarray
    reference: complex

    @property
    def mean(self) -> complex:
        return complex(np.mean(self.samples))

    @property
    def stderr(self) -> float:
        if self.n_samples < 2:
            return math.inf
        return float(np.std(self.samples) / math.sqrt(self.n_samples))


def goe_local_law(
    n: int,
    z_values: Sequence[complex],
    n_samples: int,
    seed: int = 0,
) -> list[LocalLawStats]:
    """Sample GOE matrices and record m_N(z) = n^{-1} tr (H - z)^{-1}.

    One eigenvalue decomposition per sample is shared across all requested
    spectral parameters.  Resolution below the eigenvalue spacing scale
    (eta < 4 n^{-1/4}) is allowed but flagged with a warning, since the
    normalized trace then fluctuates beyond the law's guarantee.
    """
    z_list = [complex(z) for z in z_values]
    if n_samples < 1:
        raise ValueError("need at least one sample")
    eta_floor = 4.0 * n ** (-0.25)
    for z in z_list:
        if z.imag <= 0:
            raise ValueError(f"require Im z > 0, got {z}")
        if z.imag < eta_floor:
            warnings.warn(
                f"eta={z.imag:.4g} below the resolution floor "
                f"4*n^(-1/4)={eta_floor:.4g}; trace fluctuations may dominate",
                stacklevel=2,
            )
    rng = rng_for(seed, 0x60E)
    traces = np.empty((len(z_list), n_samples), dtype=complex)
    for i in range(n_samples):
        eigs = np.linalg.eigvalsh(sample_goe(n, rng))
        for j, z in enumerate(z_list):
            traces[j, i] = np.mean(1.0 / (eigs - z))
    return [
        LocalLawStats(
            z=z,
            n_dim=n,
            n_samples=n_samples,
            samples=traces[j],
            reference=semicircle_stieltjes(z),
        )
        for j, z in enumerate(z_list)
    ]


# ---------------------------------------------------------------------------
# Coefficient families and their covariance superoperators
# ---------------------------------------------------------------------------


def superoperator_goe(b: np.ndarray) -> np.ndarray:
    """Covariance map of the GOE family: B -> n^{-1} (B^T + tr(B) Id)."""
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {b.shape}")
    return (b.T + np.trace(b) * np.eye(n, dtype=b.dtype)) / n


def goe_coefficient_family(n: int) -> list[np.ndarray]:
    """The n(n+1)/2 symmetric coefficient matrices whose Gaussian series is GOE.

    E_ij = (|i><j| + |j><i|)/sqrt(n) for i < j and sqrt(2/n) |i><i| on the
    diagonal, so that sum_j g_j A_j matches :func:`sample_goe` in law.
    """
    mats = []
    scale = 1.0 / math.sqrt(n)
    for i in range(n):
        m = np.zeros((n, n))
        m[i, i] = math.sqrt(2.0) * scale
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = scale
            m[j, i] = scale
            mats.append(m)
    return mats


class GaussianSeriesEnsemble:
    """Matrix Gaussian series X = sum_j g_j A_j with i.i.d. standard g.

    ``kind`` selects the coefficient family:

    * ``"diag"``  -- site projections A_j = |j><j| (so X is a diagonal
      matrix of i.i.d. Gaussians); sum A_j^2 = Id.
    * ``"goe"``   -- the symmetric GOE family of :func:`goe_coefficient_family`;
      sum A_j^2 = (n+1)/n Id.
    """

    def __init__(self, kind: str, n: int) -> None:
        if kind not in ("diag", "goe"):
            raise ValueError(f"unknown ensemble kind {kind!r}")
        if n < 1:
            raise ValueError(f"ensemble size must be positive, got {n}")
        self.kind = kind
        self.n = int(n)

    def sum_squares_norm(self) -> float:
        """Operator norm of sum_j A_j^2, in closed form."""
        if self.kind == "diag":
            return 1.0
        return (self.n + 1.0) / self.n

    def sample_norm(self, rng: np.random.Generator) -> float:
        """Operator norm of one sample; avoids diagonalizing when diagonal."""
        if self.kind == "diag":
            return float(np.max(np.abs(rng.standard_normal(self.n))))
        return float(np.max(np.abs(np.linalg.eigvalsh(sample_goe(self.n, rng)))))


@dataclass(frozen=True)
class NCKReport:
    """Norm statistics of a Gaussian series against the Khintchine scale."""

    n_dim: int
    n_samples: int
    alpha: float
    sigma: float
    threshold: float
    norms: np.ndarray

    @property
    def exceedance(self) -> float:
        """Fraction of samples with norm above the threshold."""
        return float(np.mean(self.norms > self.threshold))


def nck_check(
    ensemble: GaussianSeriesEnsemble,
    n_samples: int,
    alpha: float = 4.0,
    seed: int = 0,
) -> NCKReport:
    """Sample operator norms and compare against alpha sqrt(log n) * sigma,
    where sigma^2 is the operator norm of sum_j A_j^2."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if ensemble.n < 4:
        raise ValueError(f"dimension must be at least 4, got {ensemble.n}")
    rng = rng_for(seed, 0x4CB)
    sigma = math.sqrt(ensemble.sum_squares_norm())
    threshold = alpha * math.sqrt(math.log(ensemble.n)) * sigma
    norms = np.array([ensemble.sample_norm(rng) for _ in range(n_samples)])
    return NCKReport(
        n_dim=ensemble.n,
        n_samples=n_samples,
        alpha=alpha,
        sigma=sigma,
        threshold=threshold,
        norms=norms,
    )


# ---------------------------------------------------------------------------
# Deterministic trace / convexity inequalities on random inputs
# ---------------------------------------------------------------------------


# Relative margin above which matrix_inequality_suite counts a violation, and
# the exponents p of its trace-power and Hoelder checks.
INEQUALITY_SLACK = 1e-10
INEQUALITY_P_VALUES = (2, 3, 4)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a randomized inequality sweep.

    ``violations`` maps an inequality label to the number of trials where the
    left side exceeded the right by more than the relative slack; the worst
    signed margin (positive = violation) is kept for diagnosis.
    """

    n_trials: int
    slack: float
    violations: dict[str, int]
    worst_margin: dict[str, float]

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def _record(
    label: str,
    lhs: float,
    rhs: float,
    violations: dict[str, int],
    worst: dict[str, float],
) -> None:
    scale = max(abs(lhs), abs(rhs), 1.0)
    margin = (lhs - rhs) / scale
    worst[label] = max(worst.get(label, -math.inf), margin)
    if margin > INEQUALITY_SLACK:
        violations[label] = violations.get(label, 0) + 1


def matrix_inequality_suite(n: int, n_trials: int, seed: int = 0) -> InequalityReport:
    """Check trace, Jensen, and Hoelder inequalities on random symmetric pairs.

    Per trial, with A and B independent GOE samples:

    * tr(A B^{2p-2-l} A B^l) <= tr(A^2 B^{2p-2}) for every intermediate power
      0 <= l <= 2p-2 and each p in INEQUALITY_P_VALUES;
    * sum_j phi(A_jj) <= tr phi(A) for phi in {x^2, x^4, exp};
    * tr(AB) <= (tr |A|^p)^{1/p} (tr |B|^p')^{1/p'} with 1/p + 1/p' = 1,
      for the same p values.
    """
    if not 2 <= n <= 32:
        raise ValueError(f"suite sized for 2 <= n <= 32, got {n}")
    rng = rng_for(seed, 0x1E0)
    violations: dict[str, int] = {}
    worst: dict[str, float] = {}
    for _ in range(n_trials):
        a = sample_goe(n, rng)
        b = sample_goe(n, rng)
        evals_b, q_b = np.linalg.eigh(b)
        a_rot = q_b.T @ a @ q_b  # A in B's eigenbasis

        for p in INEQUALITY_P_VALUES:
            total = 2 * p - 2
            powers = evals_b[:, None] ** np.arange(total + 1)[None, :]
            # tr(A B^{total-l} A B^l) = sum_{ij} A_ij^2 mu_i^{total-l} mu_j^l
            a_sq = a_rot * a_rot
            rhs = float(np.sum(a_sq * powers[:, total][:, None]))
            rhs_label = f"trace-power p={p}"
            for ell in range(total + 1):
                lhs = float(
                    np.einsum(
                        "ij,i,j->",
                        a_sq,
                        powers[:, total - ell],
                        powers[:, ell],
                    )
                )
                _record(f"{rhs_label} l={ell}", lhs, rhs, violations, worst)

        diag_a = np.diag(a)
        evals_a = np.linalg.eigvalsh(a)
        for label, phi in (
            ("jensen x^2", np.square),
            ("jensen x^4", lambda x: x**4),
            ("jensen exp", np.exp),
        ):
            _record(
                label,
                float(np.sum(phi(diag_a))),
                float(np.sum(phi(evals_a))),
                violations,
                worst,
            )

        abs_a = np.abs(evals_a)
        abs_b = np.abs(evals_b)
        lhs = float(np.trace(a @ b))
        for p in INEQUALITY_P_VALUES:
            conj = p / (p - 1.0)
            rhs = float(np.sum(abs_a**p)) ** (1.0 / p) * float(
                np.sum(abs_b**conj)
            ) ** (1.0 / conj)
            _record(f"hoelder p={p}", lhs, rhs, violations, worst)

    return InequalityReport(
        n_trials=n_trials, slack=INEQUALITY_SLACK, violations=violations, worst_margin=worst
    )


# ---------------------------------------------------------------------------
# Gaussian integration by parts for resolvent averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GIBPReport:
    """Entrywise residual of an integration-by-parts identity, sample form.

    The per-sample statistic T_i has exact mean zero when the plug-in scalar
    (theta or m) is deterministic; here it is estimated from the same batch,
    which adds O(1/n_samples) bias well inside the Monte-Carlo band.
    """

    n_samples: int
    plugin: complex
    mean_residual: np.ndarray
    stderr: np.ndarray

    @property
    def max_ratio(self) -> float:
        """Largest entrywise |mean| / stderr; compare against ~4."""
        return float(np.max(np.abs(self.mean_residual) / self.stderr))


def _mc_entry_summary(total: np.ndarray, total_sq: np.ndarray, n: int):
    mean = total / n
    var = np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0)
    stderr = np.sqrt(var / max(n - 1, 1))
    return mean, np.maximum(stderr, 1e-300)


def _auto_chunk(requested: int, n: int) -> int:
    """Cap batch size so one chunk of (chunk, n, n) complex stays ~100 MB."""
    return max(1, min(requested, (1 << 22) // (n * n) + 1))


# Samples per batch of each check, before _auto_chunk's memory cap.  The
# batching fixes the order of the random draws and sums, so these fix the
# reported values.
GIBP_CHUNK = 1024
CROSSING_GOE_CHUNK = 8192
CROSSING_ANDERSON_CHUNK = 4096


def gibp_check_goe(n: int, z: complex, n_samples: int, seed: int = 0) -> GIBPReport:
    """Residual of the GOE resolvent identity Id + z E[R] + E[A[R] R] = 0.

    A is the GOE covariance map, so the per-sample statistic
    T_i = Id + z R_i + A[R_i] R_i has exactly mean zero by Gaussian
    integration by parts -- no plug-in enters.  The reported ``plugin`` is
    the batch normalized trace, for reference only.  Below the trace
    resolution scale eta ~ n^{-1/4} the check still holds; the variance just
    grows, which the entrywise standard errors absorb.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    if n > 1024:
        raise ValueError(f"dense sampling capped at n = 1024, got {n}")
    if z.imag < n ** (-0.25):
        warnings.warn(
            f"eta={z.imag:.4g} below n^(-1/4)={n ** -0.25:.4g}; "
            "residual variance may be large",
            stacklevel=2,
        )
    ident = np.eye(n)
    rng = rng_for(seed, 0x61B)
    chunk = _auto_chunk(GIBP_CHUNK, n)
    total = np.zeros((n, n), dtype=complex)
    total_sq = np.zeros((n, n))
    trace_sum = 0.0 + 0.0j
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        g = rng.standard_normal((count, n, n))
        h = (g + np.swapaxes(g, 1, 2)) / math.sqrt(2.0 * n)
        r = np.linalg.inv(h - z * ident)
        tr = np.trace(r, axis1=1, axis2=2)
        trace_sum += tr.sum()
        # R is symmetric, so A[R] R = (R^T + tr R) R / n = (R^2 + tr R * R) / n.
        t = r @ r
        t /= n
        t += (z + tr / n)[:, None, None] * r
        t += ident
        total += t.sum(axis=0)
        total_sq += (t.real**2 + t.imag**2).sum(axis=0)
    mean, stderr = _mc_entry_summary(total, total_sq, n_samples)
    return GIBPReport(
        n_samples=n_samples,
        plugin=complex(trace_sum / (n * n_samples)),
        mean_residual=mean,
        stderr=stderr,
    )


def gibp_check_anderson(
    spec_template: HamiltonianSpec, z: complex, n_samples: int, seed: int = 0
) -> GIBPReport:
    """Residual of the disorder-averaged lattice resolvent identity.

    With Mfree = (A - z - lam^2 theta)^{-1} a deterministic circulant and
    D the diagonal superoperator, the exact identity is

        E[R] = Mfree + lam^2 Mfree E[ D[R - E R] R ].

    Both theta (the common diagonal of E[R], estimated as the batch mean over
    samples and sites) and the centering matrix are plug-ins from the same
    batch; the induced O(1/n_samples) bias sits well inside the Monte-Carlo
    band.  ``spec_template`` supplies grid and coupling; its disorder values
    are ignored (fresh draws are made per sample).
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    grid = spec_template.grid
    lam = spec_template.lam
    n = grid.n_sites
    if n > 1024:
        raise ValueError(f"dense sampling capped at 1024 sites, got {n}")
    if lam > 0 and z.imag < lam * lam:
        warnings.warn(
            f"eta={z.imag:.4g} below lam^2={lam * lam:.4g}; "
            "residual variance may be large",
            stacklevel=2,
        )
    adj = dense_adjacency(grid)
    ident = np.eye(n)
    chunk = _auto_chunk(GIBP_CHUNK, n)
    disorder = rng_for(seed, 0x61C).standard_normal((n_samples, n))

    def resolvent_chunk(start: int, count: int) -> np.ndarray:
        v = disorder[start : start + count]
        h = adj[None, :, :] + lam * v[:, :, None] * ident[None, :, :]
        return np.linalg.inv(h - z * ident)

    r_bar = np.zeros((n, n), dtype=complex)
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        r_bar += resolvent_chunk(start, count).sum(axis=0)
    r_bar /= n_samples
    theta = complex(np.mean(np.diag(r_bar)))
    mfree = np.linalg.inv(adj - (z + lam * lam * theta) * ident)
    d_bar = np.diag(r_bar)

    total = np.zeros((n, n), dtype=complex)
    total_sq = np.zeros((n, n))
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        r = resolvent_chunk(start, count)
        d_centered = np.einsum("sii->si", r) - d_bar[None, :]
        t = r - mfree - lam * lam * (mfree @ (d_centered[:, :, None] * r))
        total += t.sum(axis=0)
        total_sq += (np.abs(t) ** 2).sum(axis=0)
    mean, stderr = _mc_entry_summary(total, total_sq, n_samples)
    return GIBPReport(
        n_samples=n_samples, plugin=theta, mean_residual=mean, stderr=stderr
    )


# ---------------------------------------------------------------------------
# Crossing term: two-copy coupling via correlation interpolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingReport:
    """Coupled Monte-Carlo comparison of the crossing term's two routes.

    ``direct`` estimates E[A[R - E R] R]; ``interpolated`` integrates the
    four-resolvent contraction over the correlation parameter via
    Gauss-Legendre in w (q = w^2).  Both routes share samples, so their
    difference has far smaller variance than either value.
    """

    n_samples: int
    n_nodes: int
    direct: np.ndarray
    interpolated: np.ndarray
    diff_mean: np.ndarray
    diff_stderr: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(np.abs(self.diff_mean) / self.diff_stderr))


def _gl_nodes_unit(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return (x + 1.0) / 2.0, w / 2.0


def _crossing_core(
    draw_pair: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    contraction: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cov_apply: Callable[[np.ndarray], np.ndarray],
    base: np.ndarray | None,
    z: complex,
    n_samples: int,
    n_nodes: int,
    seed: int,
    chunk: int,
) -> CrossingReport:
    """Shared two-pass driver for the crossing-term comparison.

    ``draw_pair(rng, count)`` returns two independent batches of the
    *centered* Gaussian part, shape (count, n, n); the deterministic ``base``
    is added here, so that the q-interpolation mixes only the Gaussian part:
    H^q = base + sqrt(1-q) G + sqrt(q) G'.  ``contraction(rq, r1)`` evaluates
    the four-resolvent sum for batches of mixed and endpoint resolvents;
    ``cov_apply`` is the single-copy covariance map, batched over the leading
    axis.
    """
    w_nodes, w_weights = _gl_nodes_unit(n_nodes)
    q_nodes = w_nodes**2

    # Pass 1: endpoint resolvent mean (needed to center the direct route).
    rng = rng_for(seed, 0xC70)
    n = draw_pair(rng, 1)[0].shape[1]
    chunk = _auto_chunk(chunk, n)
    shift = z * np.eye(n)
    if base is not None:
        shift = shift - base
    r1_total = np.zeros((n, n), dtype=complex)
    rng = rng_for(seed, 0xC71)
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        _, g_prime = draw_pair(rng, count)
        r1 = np.linalg.inv(g_prime - shift)
        r1_total += r1.sum(axis=0)
    r1_bar = r1_total / n_samples

    # Pass 2: regenerate identical samples, accumulate the coupled difference.
    rng = rng_for(seed, 0xC71)
    direct_total = np.zeros((n, n), dtype=complex)
    interp_total = np.zeros((n, n), dtype=complex)
    diff_total = np.zeros((n, n), dtype=complex)
    diff_sq = np.zeros((n, n))
    sqrt_q = np.sqrt(q_nodes)
    sqrt_1mq = np.sqrt(1.0 - q_nodes)
    for start in range(0, n_samples, chunk):
        count = min(chunk, n_samples - start)
        g, g_prime = draw_pair(rng, count)
        r1 = np.linalg.inv(g_prime - shift)
        centered = r1 - r1_bar
        direct = cov_apply(centered) @ r1
        interp = np.zeros_like(r1)
        for q_idx in range(n_nodes):
            g_mix = sqrt_1mq[q_idx] * g + sqrt_q[q_idx] * g_prime
            rq = np.linalg.inv(g_mix - shift)
            interp += w_weights[q_idx] * contraction(rq, r1)
        diff = direct - interp
        direct_total += direct.sum(axis=0)
        interp_total += interp.sum(axis=0)
        diff_total += diff.sum(axis=0)
        diff_sq += (np.abs(diff) ** 2).sum(axis=0)
    mean, stderr = _mc_entry_summary(diff_total, diff_sq, n_samples)
    return CrossingReport(
        n_samples=n_samples,
        n_nodes=n_nodes,
        direct=direct_total / n_samples,
        interpolated=interp_total / n_samples,
        diff_mean=mean,
        diff_stderr=stderr,
    )


def crossing_check_goe(
    n: int,
    z: complex,
    n_samples: int,
    n_nodes: int = 8,
    seed: int = 0,
) -> CrossingReport:
    """Crossing-term comparison for the GOE coefficient family.

    The interpolated route uses the closed contraction

        S(q) = n^{-2} [ R1 Rq^T Rq^T R1 + tr(Rq R1^T) Rq^T R1
                        + (R1 Rq + Rq^T R1^T) Rq R1 ]

    obtained by summing the family pairings explicitly; tests validate it
    against brute-force double sums at small n.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")

    def draw_pair(rng: np.random.Generator, count: int):
        scale = 1.0 / math.sqrt(2.0 * n)
        g = rng.standard_normal((count, n, n))
        gp = rng.standard_normal((count, n, n))
        return (
            (g + np.swapaxes(g, 1, 2)) * scale,
            (gp + np.swapaxes(gp, 1, 2)) * scale,
        )

    def contraction(rq: np.ndarray, r1: np.ndarray) -> np.ndarray:
        rq_t = np.swapaxes(rq, 1, 2)
        r1_t = np.swapaxes(r1, 1, 2)
        tr_mix = np.einsum("sij,sji->s", rq, r1_t)[:, None, None]
        term1 = r1 @ rq_t @ (rq_t @ r1)
        term2 = tr_mix * (rq_t @ r1)
        term3 = (r1 @ rq + rq_t @ r1_t) @ (rq @ r1)
        return (term1 + term2 + term3) / (n * n)

    def cov_apply(b: np.ndarray) -> np.ndarray:
        tr = np.trace(b, axis1=1, axis2=2)[:, None, None]
        return (np.swapaxes(b, 1, 2) + tr * np.eye(n)) / n

    return _crossing_core(
        draw_pair, contraction, cov_apply, None, z, n_samples, n_nodes, seed,
        CROSSING_GOE_CHUNK,
    )


def crossing_check_anderson(
    spec_template: HamiltonianSpec,
    z: complex,
    n_samples: int,
    n_nodes: int = 8,
    seed: int = 0,
) -> CrossingReport:
    """Crossing-term comparison for lattice site disorder A_x = lam |x><x|.

    The contraction collapses to a Hadamard product over the shared site
    index: S[a, b] = lam^4 sum_x Rq[a,x] Rq[x,a] R1[a,x] R1[x,b], i.e.
    ((Rq o Rq^T o R1) @ R1) scaled by lam^4, with o entrywise.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"require Im z > 0, got {z}")
    grid = spec_template.grid
    lam = spec_template.lam
    n = grid.n_sites
    adj = dense_adjacency(grid)
    ident = np.eye(n)

    def draw_pair(rng: np.random.Generator, count: int):
        v = rng.standard_normal((count, n))
        vp = rng.standard_normal((count, n))
        h = lam * v[:, :, None] * ident[None]
        hp = lam * vp[:, :, None] * ident[None]
        return h, hp

    def contraction(rq: np.ndarray, r1: np.ndarray) -> np.ndarray:
        had = rq * np.swapaxes(rq, 1, 2) * r1
        return (lam**4) * (had @ r1)

    def cov_apply(b: np.ndarray) -> np.ndarray:
        d = np.einsum("sii->si", b)
        out = np.zeros_like(b)
        np.einsum("sii->si", out)[:] = d
        return (lam * lam) * out

    return _crossing_core(
        draw_pair, contraction, cov_apply, adj, z, n_samples, n_nodes, seed,
        CROSSING_ANDERSON_CHUNK,
    )
