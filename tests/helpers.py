"""Shared construction helpers and brute-force oracles for the test suite.

The moment-constrained family trick: the kl(f_star, .) minimizer over the
convex family {f : int T f dmu = t0} has the exact tilt form
f_circ = f_star / (lam + eta T), and for every member f of the family

    int (f / f_circ) f_star dmu = lam int f + eta int T f = lam + eta t0 = 1,

so the certificate needed by the starred Hellinger inequality holds by
construction, up to solver and quadrature rounding.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate, optimize

from bayesrates.divergences import (
    DivergenceError,
    Grid,
    GridDensity,
    _require_same_grid,
    ar1_stationary_sd,
    gaussian_density,
    kl,
)
from bayesrates.experiments import (
    CESARO_BLOCK,
    LOG_SQRT_2PI,
    SQRT_2PI,
    Z_REACH,
    Z_RESOLVE,
    Z_STEP,
    ExperimentError,
    IidRegime,
    MarkovRegime,
    ReplicationRecord,
    SubsetNotAdmissibleError,
    _subset_rows,
    certify_subset,
)
from bayesrates.geometry import GeometryError
from bayesrates.models import FamilyMember, ModelError
from bayesrates.numerics import logsumexp


def mixture_density(components: Sequence[GridDensity], weights: Sequence[float]) -> GridDensity:
    """The mixture of grid densities, floored and renormalized on their grid."""
    if len(components) != len(weights) or not components:
        raise DivergenceError("mixture needs matching, nonempty components and weights")
    grid = components[0].grid
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise DivergenceError("mixture weights must be nonnegative")
    values = np.zeros(grid.points)
    for comp, wk in zip(components, w):
        _require_same_grid(components[0], comp)
        values += wk * comp.values
    return GridDensity(grid, values)


def kl_contrast(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """int log(f_circ/f) f_star dmu, computed directly by quadrature on all nodes.

    When ``f_circ`` minimizes kl(f_star, .) over the family this equals
    kl(f_star, f) - kl(f_star, f_circ); the direct form avoids cancellation
    between two separately quadratured terms.
    """
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    w = f_circ.grid.quad_weights * f_star.values
    return float(w @ (f_circ.log_values - f.log_values))


def v_star(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """int (log(f_circ/f))^2 f_star dmu, on all nodes."""
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    diff = f_circ.log_values - f.log_values
    return float((f_circ.grid.quad_weights * f_star.values) @ (diff * diff))


def random_gaussian_mixture(
    rng: np.random.Generator,
    grid: Grid,
    max_components: int = 3,
    mean_range: tuple[float, float] = (-2.0, 2.0),
    sd_range: tuple[float, float] = (0.6, 1.6),
) -> GridDensity:
    k = int(rng.integers(1, max_components + 1))
    comps = [
        gaussian_density(grid, float(rng.uniform(*mean_range)), float(rng.uniform(*sd_range)))
        for _ in range(k)
    ]
    return mixture_density(comps, rng.dirichlet(np.ones(k)))


def moment_constrained_triple(
    rng: np.random.Generator, grid: Grid, max_tries: int = 20
) -> tuple[GridDensity, GridDensity, GridDensity]:
    """Return (f_circ, f, f_star) with f_circ the kl(f_star, .) minimizer over
    a convex moment-constrained family containing f."""
    T = np.tanh(grid.x / 2.0)
    w = grid.quad_weights
    for _ in range(max_tries):
        g1 = random_gaussian_mixture(rng, grid)
        g2 = random_gaussian_mixture(rng, grid)
        alpha = float(rng.uniform(0.2, 0.8))
        m1 = float(w @ (T * g1.values))
        m2 = float(w @ (T * g2.values))
        t0 = alpha * m1 + (1.0 - alpha) * m2
        f = mixture_density([g1, g2], [alpha, 1.0 - alpha])
        f_star = random_gaussian_mixture(rng, grid)
        fs = f_star.values

        def system(p):
            lam, eta = p
            denom = lam + eta * T
            if np.any(denom <= 0.0):
                return np.array([1e6, 1e6])
            r = fs / denom
            return np.array([w @ r - 1.0, w @ (T * r) - t0])

        def jacobian(p):
            lam, eta = p
            denom = lam + eta * T
            r = fs / (denom * denom)
            j11 = w @ r
            j12 = w @ (T * r)
            j22 = w @ (T * T * r)
            return -np.array([[j11, j12], [j12, j22]])

        sol = optimize.root(system, x0=np.array([1.0, 0.0]), jac=jacobian, tol=1e-14)
        lam, eta = sol.x
        denom = lam + eta * T
        if not sol.success or np.any(denom <= 0.0):
            continue
        if np.max(np.abs(system(sol.x))) > 1e-11:
            continue
        f_circ = GridDensity(grid, fs / denom)
        return f_circ, f, f_star
    raise RuntimeError("could not build a moment-constrained triple")


def v_divergence(f: GridDensity, g: GridDensity) -> float:
    """Uncentered second moment int (log(f/g))^2 f dmu: the plain V, unanchored."""
    diff = f.log_values - g.log_values
    return float((f.grid.quad_weights * f.values) @ (diff * diff))


def weighted_hellinger_between(
    f: GridDensity, g: GridDensity, *, f_star: GridDensity, f_circ: GridDensity
) -> float:
    """Weighted Hellinger distance between f and g with weight f_star/f_circ.

    The misspecified covering metric between two atoms; ``weighted_hellinger``
    is the special case g == f_circ.
    """
    _require_same_grid(f, g)
    diff = f.sqrt_values - g.sqrt_values
    weight = np.exp(f_star.log_values - f_circ.log_values)
    return math.sqrt(max(float(f.grid.quad_weights @ (diff * diff * weight)), 0.0))


def kl_projection(f_star: GridDensity, family: Sequence[FamilyMember]) -> tuple[int, float]:
    """(member id, kl value) minimizing kl(f_star, member) over the family.

    Ties go to the smallest member id.
    """
    if not family:
        raise ModelError("empty family")
    best_id, best_val = None, math.inf
    for m in sorted(family, key=lambda m: m.id):
        val = kl(f_star, m.density)
        if val < best_val:
            best_id, best_val = m.id, val
    return best_id, best_val


def exhaustive_cover_count(
    target_ids: Iterable[int],
    radius: float,
    dist_fn: Callable[[int, int], float],
    max_atoms: int = 25,
) -> int:
    """Exact minimal number of atom-centered balls covering the target.

    Brute force over center subsets of growing size; only meant for small
    oracle instances, hence the atom cap.
    """
    ids = sorted(set(target_ids))
    if not ids:
        raise GeometryError("cover needs a nonempty target")
    if len(ids) > max_atoms:
        raise GeometryError(
            f"exhaustive cover search capped at {max_atoms} atoms, got {len(ids)}"
        )
    reach = {c: frozenset(j for j in ids if dist_fn(c, j) <= radius) for c in ids}
    universe = frozenset(ids)
    for k in range(1, len(ids) + 1):
        for centers in itertools.combinations(ids, k):
            got: set[int] = set()
            for c in centers:
                got |= reach[c]
            if got >= universe:
                return k
    return len(ids)


def _gauss_row(x: np.ndarray, mean, sd: float) -> np.ndarray:
    z = (x - np.asarray(mean)) / sd
    return np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi, dtype=z.dtype))


def gaussian_mixture_kls_oracle(grid: Grid, means: np.ndarray, truth_means: np.ndarray,
                                sd: float, weights_before: np.ndarray,
                                dtype=np.float64) -> np.ndarray:
    """Per-step kl(N(truth_means[i], sd), sum_j w[j, i] N(means[j, i], sd)).

    The reference form of the Gaussian-mixture Cesaro kernel: the trapezoid
    rule in x on ``grid``, every step building fresh component and truth
    rows, in ``dtype`` arithmetic.
    """
    x = grid.x.astype(dtype)
    qw = grid.quad_weights.astype(dtype)
    sd = dtype(sd)
    out = np.empty(len(truth_means))
    for i in range(len(truth_means)):
        rows = _gauss_row(x[None, :], means[:, i, None].astype(dtype), sd)
        mix = np.maximum(weights_before[:, i].astype(dtype) @ rows, 1e-300)
        truth = _gauss_row(x, dtype(truth_means[i]), sd)
        out[i] = float(qw @ (truth * (np.log(np.maximum(truth, 1e-300)) - np.log(mix))))
    return np.maximum(out, 0.0)


def gaussian_affinity_gaps_oracle(grid: Grid, means: np.ndarray, ref_means: np.ndarray,
                                  sd: float, w) -> np.ndarray:
    """Per-row 1 - int sqrt(N(ref_means[k], sd) * sum_j w[j] N(means[j, k], sd)),
    (rows,) for one weight vector ``w``, (mixtures, rows) for a stack of them.

    The reference form of the regression and markov mixture gaps: each row
    is built afresh on ``grid``, one row index at a time, by the trapezoid
    rule in x.
    """
    w = np.asarray(w)
    out = np.empty(w.shape[:-1] + (len(ref_means),))
    for k in range(len(ref_means)):
        mix = w @ _gauss_row(grid.x[None, :], means[:, k, None], sd)
        ref = _gauss_row(grid.x, ref_means[k], sd)
        out[..., k] = 1.0 - np.sqrt(ref * mix) @ grid.quad_weights
    return out


def iid_cesaro_oracle(regime, weights_before: np.ndarray, stride: int,
                      dtype=np.float64) -> np.ndarray:
    """Per-step Cesaro contrast of a density regime from the whole mixture matrix.

    The reference form of ``IidRegime.cesaro_kls``: the trapezoid rule on
    every ``stride``-th node of the regime's grid (all 4001 at stride 1),
    with the (nodes, steps) predictive densities and their logs built in
    full, in ``dtype`` arithmetic.
    """
    grid = regime.grid
    nodes = Grid(grid.lower, grid.upper, (grid.points - 1) // stride + 1)
    kern = nodes.quad_weights.astype(dtype) * regime.true_density.values[::stride].astype(dtype)
    anchor_term = kern @ np.log(regime.f_circ.values.astype(dtype))[::stride]
    values = np.stack([m.density.values[::stride] for m in regime.prior.members]).astype(dtype)
    vals = anchor_term - np.log(values.T @ weights_before.astype(dtype)).T @ kern
    vals = np.maximum(vals, 0.0) if regime.well_specified else vals
    return vals.astype(np.float64)


def markov_kvh_oracle(theta_star: float, theta: float, *,
                      noise_sd: float = 1.0) -> tuple[float, float, float]:
    """State-averaged (kl, v, h_q) for one coefficient, by adaptive quadrature.

    The reference form of ``stationary_divergences``: from the state
    y = z * (stationary sd of theta_star) the two transitions' means are
    |theta_star - theta| |y| / noise_sd noise sds apart.  Each per-state
    divergence is integrated against the standard normal density of z by
    ``scipy.integrate.quad`` on [0, 13] (the integrands are even in z), split
    where the Hellinger integrand turns, at a gap of sqrt(8).
    """
    shift = (theta_star - theta) * ar1_stationary_sd(theta_star, noise_sd) / noise_sd
    if shift == 0.0:
        return 0.0, 0.0, 0.0
    turn = math.sqrt(8.0) / abs(shift)

    def average(per_state: Callable[[float], float]) -> float:
        def integrand(z: float) -> float:
            return per_state((shift * z) ** 2) * math.exp(-0.5 * z * z) / SQRT_2PI

        val, _ = integrate.quad(integrand, 0.0, 13.0, points=[turn] if turn < 13.0 else None,
                                epsabs=0.0, epsrel=2e-14, limit=200)
        return 2.0 * val

    return (
        average(lambda d2: d2 / 2.0),
        average(lambda d2: d2 + d2 * d2 / 4.0),
        average(lambda d2: math.sqrt(-2.0 * math.expm1(-d2 / 8.0))),
    )


def z_node_oracle(deltas: np.ndarray, w) -> np.ndarray:
    """Per-column z-node kl under one weight row ``w``: (atoms,) shared by
    every column, or (atoms, columns).

    The reference form of ``experiments._z_integrals`` for one row: the same
    spacing groups and nodes, each group built whole one atom at a time, and
    each column's trapezoid taken as its own dot product.
    """
    spread = deltas.max(axis=0) - deltas.min(axis=0)
    parts = np.maximum(np.ceil(spread * (Z_STEP / Z_RESOLVE)), 1.0).astype(int)
    w = np.asarray(w, dtype=float)
    out = np.empty(deltas.shape[1])
    for m in sorted(set(parts.tolist())):
        group = np.flatnonzero(parts == m)
        nodes = Grid(-Z_REACH, Z_REACH, math.ceil(2.0 * Z_REACH * m / Z_STEP) + 1)
        mix = np.zeros((len(group), nodes.points))
        term = np.empty_like(mix)
        for d, w_j in zip(deltas[:, group], w[:, group, None] if w.ndim == 2 else w):
            np.multiply(d[:, None], nodes.x, out=term)
            term -= (0.5 * d * d)[:, None]
            np.exp(term, out=term)
            term *= w_j
            mix += term
        np.log(np.maximum(mix, 1e-300), out=mix)
        kern = nodes.quad_weights * np.exp(-0.5 * nodes.x ** 2) / SQRT_2PI
        out[group] = -np.array([row @ kern for row in mix])
    return np.maximum(out, 0.0)


def table_mixture(regime, member_ids, w) -> np.ndarray:
    """One mixture on a density regime's table nodes, summed one atom at a time."""
    mix = np.zeros(regime._values.shape[1])
    for w_j, i in zip(w, member_ids):
        mix += w_j * regime._values[regime.prior.index_of(i)]
    return mix


def table_gap(regime, mix: np.ndarray) -> float:
    """h*(f_circ, g) = 1 - int sqrt(g / f_circ) f_star of a mixture g on a
    density regime's table nodes."""
    return 1.0 - float(regime._kern @ np.exp(-0.5 * (regime._circ_log - np.log(mix))))


def table_dist(regime, roots: np.ndarray, other: np.ndarray) -> float:
    """The weighted Hellinger distance between two root rows of a density
    regime's table."""
    d = roots - other
    return math.sqrt(max(float(regime._wkern @ (d * d)), 0.0))


# ---------------------------------------------------------------------------
# the per-replication engine: the reference form of the block engine


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(a - logsumexp(a)) along axis: the weights of
    ``numerics.softmax_and_logsumexp`` on their own."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    shifted = a - np.where(np.isfinite(m), m, 0.0)
    return np.exp(shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True)))


def loglik_matrix(regime, data) -> np.ndarray:
    """(atoms, n): every atom's log likelihood of each observation, one atom
    at a time (np.interp per atom for a density regime)."""
    if isinstance(regime, IidRegime):
        return np.stack([m.density.log_interp(data) for m in regime.prior.members])
    if isinstance(regime, MarkovRegime):
        prev = regime._prev_chain(data)
        z = (data.y[None, :] - regime._thetas[:, None] * prev[None, :]) / regime.noise_sd
        return -0.5 * z * z - math.log(regime.noise_sd) - LOG_SQRT_2PI
    z = data[None, :] - regime._means[:, :len(data)]
    return -0.5 * z * z - LOG_SQRT_2PI


def ref_loglik(regime, data) -> np.ndarray:
    """(n,): the reference member's log likelihood of each observation."""
    if isinstance(regime, IidRegime):
        return np.asarray(regime.f_circ.log_interp(data))
    if isinstance(regime, MarkovRegime):
        prev = regime._prev_chain(data)
        z = (data.y - regime.theta_star.theta * prev) / regime.noise_sd
        return -0.5 * z * z - math.log(regime.noise_sd) - LOG_SQRT_2PI
    z = data - regime._truth_means[:len(data)]
    return -0.5 * z * z - LOG_SQRT_2PI


def cumulative_log_ratio(regime, data) -> np.ndarray:
    """cum[j, i] = log prior_j + sum_{k<=i} (loglik_j - ref) at observation k."""
    inc = loglik_matrix(regime, data) - ref_loglik(regime, data)[None, :]
    j, n = inc.shape
    cum = np.empty((j, n + 1))
    cum[:, 0] = np.log(regime.prior.weights)
    cum[:, 1:] = cum[:, 0, None] + np.cumsum(inc, axis=1)
    return cum


def cesaro_kls_one(regime, data, weights_before: np.ndarray) -> np.ndarray:
    """A regime's per-step Cesaro contrast of one replication, (n,)."""
    return regime.cesaro_kls([data], weights_before[None])[0]


def _cesaro_kls_oracle(regime, data, weights_before: np.ndarray) -> np.ndarray:
    """One replication's Cesaro contrast, each kernel product on its own."""
    if not isinstance(regime, IidRegime):
        if isinstance(regime, MarkovRegime):
            deltas = np.outer(regime._thetas - regime.theta_star.theta,
                              regime._prev_chain(data)) / regime.noise_sd
        else:
            deltas = regime._means[:, :len(data)] - regime._truth_means[:len(data)]
        return z_node_oracle(deltas, weights_before)
    values = regime._values.T
    points, n = len(values), weights_before.shape[1]
    starts = list(range(0, n - CESARO_BLOCK + 1, CESARO_BLOCK)) or [0]
    vals = np.empty(n)
    for s, e in zip(starts, starts[1:] + [n]):
        block = np.log(values @ weights_before[:, s:e])
        vals[s:e] = block.T @ regime._kern
    vals = regime._cesaro_anchor - vals
    return np.maximum(vals, 0.0) if regime.well_specified else vals


def replicate_oracle(plan, rep_id: int) -> ReplicationRecord:
    """One seeded replication by the per-replication path, one statistic at a time."""
    regime = plan.regime
    n_values = plan.schedule.n_values
    n_max = n_values[-1]
    data = regime.sample(n_max, np.random.default_rng(plan.seed + rep_id))
    cum = cumulative_log_ratio(regime, data)
    idx = np.asarray(n_values)
    stats: dict[str, np.ndarray] = {}
    if "log_evidence" in plan.collect:
        stats["log_evidence"] = logsumexp(cum, axis=0)[idx]
    if "sqrt_l" in plan.collect:
        log_l = logsumexp(cum[_subset_rows(regime.prior, plan.subset_ids)], axis=0)
        stats["sqrt_l"] = np.exp(0.5 * log_l[idx])
    if "posterior_mass" in plan.collect or "u_mass" in plan.collect:
        weights = softmax(cum, axis=0)
    if "posterior_mass" in plan.collect:
        masses = [weights[_subset_rows(regime.prior, ids), n].sum()
                  for n, ids in zip(n_values, plan.b_sets)]
        stats["posterior_mass"] = np.clip(masses, 0.0, 1.0)
    if "u_mass" in plan.collect:
        vals = weights[_subset_rows(regime.prior, plan.u_set)][:, idx].sum(axis=0)
        stats["u_mass"] = np.clip(vals, 0.0, 1.0)
    if "cesaro_kl" in plan.collect:
        kls = _cesaro_kls_oracle(regime, data, softmax(cum[:, :-1], axis=0))
        vals = (np.cumsum(kls) / np.arange(1, n_max + 1))[idx - 1]
        if regime.well_specified and np.any(vals < -1e-9):
            raise ExperimentError("negative Cesaro statistic in a well-specified run")
        stats["cesaro_kl"] = vals
    return ReplicationRecord(rep_id=rep_id, n_values=n_values, stats=stats)


def separation_rows_oracle(regime, member_ids, d: float, schedule) -> tuple[list[tuple], str]:
    """The separation rows and the last refusal, by a per-n loop written out:
    a refused point a NaN row."""
    rows, failure = [], ""
    for n in schedule.n_values:
        delta = d * schedule.epsilon(n) ** 2
        try:
            cert = certify_subset(regime, member_ids, delta, n)
            rows.append((n, delta, cert.vertex.min_gap, cert.hull_gap_bound, True))
        except SubsetNotAdmissibleError as e:
            failure = str(e)
            rows.append((n, delta, math.nan, math.nan, False))
    return rows, failure


def numerator_refusal_oracle(regime, member_ids, d: float, schedule) -> str | None:
    """The numerator bound's certification by a per-n loop written out: the
    first refusal's message, or None when every point certifies."""
    for n in schedule.n_values:
        try:
            certify_subset(regime, member_ids, d * schedule.epsilon(n) ** 2, n)
        except SubsetNotAdmissibleError as e:
            return str(e)
    return None
