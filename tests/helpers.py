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
from scipy import optimize

from bayesrates.divergences import (
    FLOOR,
    Grid,
    GridDensity,
    ar1_stationary_sd,
    gaussian_density,
    kl,
    mixture_density,
)
from bayesrates.geometry import GeometryError
from bayesrates.models import FamilyMember, ModelError


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
    """Per-row 1 - int sqrt(N(ref_means[k], sd) * sum_j w[j] N(means[j, k], sd)).

    The reference form of the regression and markov certification gaps:
    each row is built afresh on ``grid``, one row index at a time.
    """
    out = np.empty(len(ref_means))
    for k in range(len(ref_means)):
        mix = np.asarray(w) @ _gauss_row(grid.x[None, :], means[:, k, None], sd)
        ref = _gauss_row(grid.x, ref_means[k], sd)
        out[k] = 1.0 - grid.integrate(np.sqrt(ref * mix))
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


def _transition_rows(grid: Grid, theta: float, states: np.ndarray, noise_sd: float) -> np.ndarray:
    z = (grid.x[None, :] - theta * states[:, None]) / noise_sd
    rows = np.exp(-0.5 * z * z) / (noise_sd * math.sqrt(2.0 * math.pi))
    rows = np.maximum(rows, FLOOR)
    rows /= rows @ grid.quad_weights[:, None]
    return np.maximum(rows, FLOOR)


def markov_kvh_oracle(theta_star: float, theta: float, *, grid: Grid,
                      noise_sd: float = 1.0, state_points: int = 401) -> tuple[float, float, float]:
    """State-averaged (kl, v, h_q) for one coefficient, both row sets built afresh.

    The reference form of ``stationary_divergences``: the truth's rows are
    rebuilt for every coefficient.
    """
    sd_star = ar1_stationary_sd(theta_star, noise_sd)
    half = 6.0 * sd_star
    states = np.linspace(-half, half, state_points)
    rows_a = _transition_rows(grid, theta_star, states, noise_sd)
    rows_b = _transition_rows(grid, theta, states, noise_sd)
    log_diff = np.log(rows_a) - np.log(rows_b)
    wq = grid.quad_weights
    k_s = np.maximum((rows_a * log_diff) @ wq, 0.0)
    v_s = (rows_a * log_diff * log_diff) @ wq
    sq = np.sqrt(rows_a) - np.sqrt(rows_b)
    h2 = np.maximum((sq * sq) @ wq, 0.0)
    u = np.exp(-0.5 * (states / sd_star) ** 2)
    state_w = np.full(state_points, states[1] - states[0])
    state_w[0] *= 0.5
    state_w[-1] *= 0.5
    u_mass = state_w @ u
    return (
        float(state_w @ (u * k_s)) / u_mass,
        float(state_w @ (u * v_s)) / u_mass,
        float(state_w @ (u / u_mass * np.sqrt(h2))),
    )
