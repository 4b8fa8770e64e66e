"""Sampling regimes, replication engine, and the bound verifications.

Four regimes share one engine.  Each regime knows how to sample its data,
score every prior atom's log likelihood (with the right conditioning), and
measure its own divergences: for iid data the starred family anchored at
the truth (where it is the plain K, V, H, h) or, under misspecification, at
the kl projection, in one class; per-design-index averages for regression;
and realized-state conditional quantities for the AR(1) chain.

A replication builds one cumulative log-likelihood-ratio matrix

    cum[j, i] = log pi_j + sum_{k<=i} [loglik_j(Y_k) - ref(Y_k)]

from which everything falls out: logsumexp over atoms is the log evidence
ratio, softmax gives posterior weights, a restricted logsumexp is the
numerator path, and the pre-update weight columns drive the Cesaro
statistics.  Replication r uses generator seed  plan.seed + r,  so records
are reproducible one at a time and aggregation never depends on execution
order.

Lemma-style bound checks refuse to run on uncertified subsets: vertex
separation, a convex-hull triangle certificate, and random-mixture closure
all have to pass first, plus per-vertex ratio certificates under
misspecification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .divergences import (
    SWEEP_POINTS,
    Grid,
    GridDensity,
    check_state_window,
    default_grid,
    gaussian_shift_kvh,
    h_star,
    hellinger_with_weight,
    kl_contrast,
    kleijn_certificate,
    mixture_density,
    state_sup_hellinger,
    stationary_divergences,
    transition_shift_sq,
    v_star,
)
from .geometry import (
    ClosureReport,
    ConditionParams,
    RateSchedule,
    SeparationReport,
    ThicknessRecord,
    mixture_closure_report,
    separation_report,
    thickness_profile,
)
from .models import (
    IID,
    MARKOV,
    REGRESSION,
    AtomicPrior,
    FamilyMember,
    MarkovParam,
    MisspecifiedSetup,
    RegressionFunction,
)
from .numerics import logsumexp, softmax

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# reserved id for reference members that are not prior atoms
REF_ID = -1

STAT_KEYS = ("cesaro_kl", "log_evidence", "posterior_mass", "u_mass", "sqrt_l")

# offset mixed into the plan seed for certification draws, so the
# admissibility randomness never aliases a replication stream
CERT_SEED_OFFSET = 202_020

# steps per block of the dense iid Cesaro kernel: a block takes 16 to 31
# steps, so its (nodes, steps) buffer stays in cache between the product and
# the log
CESARO_BLOCK = 16

# nodes per sd of the iid Cesaro kernel's stride over the density grid: on
# the iid and misspecified configs its trapezoid is within 2e-15 per step
# of the long-double integral on all 4001 nodes; on Gaussian-mixture
# integrands 4 nodes per sd were off by 3e-15 per step and 3 by 8e-12, so
# 10 leaves a factor of two
ROW_POINTS_PER_SD = 10

# the z-node rule of the Gaussian-mixture integrals.  Substituting
# x = centre + sd * z turns each into a trapezoid against the standard
# normal density, whatever the noise sd or the states, out to Z_REACH beyond
# every term's centre: the normal tail left out is below 1e-18.
# - On a Gaussian the trapezoid at spacing h is off by about
#   exp(-2 pi^2 / h^2), 5e-35 at Z_STEP.
# - The log or root of a mixture turns over from one term to the next, at
#   complex distance pi / D from the real line for two terms whose offsets
#   differ by D, which costs about exp(-2 pi^2 / (h D)).  So a column whose
#   offsets spread by D takes h = Z_STEP / m, m the least whole number with
#   h D <= Z_RESOLVE (7e-18).  On random three-term mixtures the rule is at
#   rounding (1.5e-15 relative) up to h D = 0.6, off by 1e-13 at 0.7 and by
#   3e-12 at 0.8; at the 0.2 spacing alone it was off by 1.5e-6 per step
#   on four atoms spread over 15 sds.
# - Columns go in chunks of at most Z_BUFFER node values (512 kB), so a
#   wide spread costs time, not memory.
Z_STEP = 0.5
Z_REACH = 9.0
Z_RESOLVE = 0.5
Z_BUFFER = 1 << 16

# an affinity term whose offset exceeds Z_FAR adds less than
# exp(-Z_FAR^2 / 8) = 2.6e-18 to the affinity, since sqrt(a + b) - sqrt(a)
# <= sqrt(b): the affinity nodes neither span nor resolve offsets beyond it
Z_FAR = 18.0


def _mixtures_on_z(deltas: np.ndarray, weights: np.ndarray, affinity: bool = False):
    """Yield (columns, nodes, mix): the mixtures of some columns on their z nodes.

    mix[c, k] = sum_j weights[j, c] exp(z_k d - d^2 / 2) with d = deltas[j, c],
    tilted by -z_k^2 for an ``affinity`` (the square of phi, taken inside its
    root).  The nodes span [-Z_REACH, Z_REACH], or for an affinity
    [min(0, min d / 2) - Z_REACH, max(0, max d / 2) + Z_REACH] over the
    offsets within Z_FAR, where its terms' mass sits.  Each chunk of columns
    is summed one atom at a time into one buffer: a (J, columns, nodes)
    array is never built.
    """
    near = np.clip(deltas, -Z_FAR, Z_FAR) if affinity else deltas
    spread = near.max(axis=0) - near.min(axis=0)
    parts = np.maximum(np.ceil(spread * (Z_STEP / Z_RESOLVE)), 1.0).astype(int)
    for m in sorted(set(parts.tolist())):  # not np.unique, which imports numpy.ma
        group = np.flatnonzero(parts == m)
        lower, upper = -Z_REACH, Z_REACH
        if affinity:
            lower += min(0.0, 0.5 * float(near[:, group].min()))
            upper += max(0.0, 0.5 * float(near[:, group].max()))
        nodes = Grid(lower, upper, math.ceil((upper - lower) * m / Z_STEP) + 1)
        tilt = -nodes.x ** 2 if affinity else None
        width = max(1, Z_BUFFER // nodes.points)
        for s in range(0, len(group), width):
            cols = group[s:s + width]
            mix = np.zeros((len(cols), nodes.points))
            term = np.empty_like(mix)
            for d, w in zip(deltas[:, cols], weights[:, cols]):
                np.multiply(d[:, None], nodes.x, out=term)
                if tilt is not None:
                    term += tilt
                term -= (0.5 * d * d)[:, None]
                np.exp(term, out=term)
                term *= w[:, None]
                mix += term
            yield cols, nodes, mix


class ExperimentError(ValueError):
    """Invalid plan, regime wiring, or verification request."""


class PreconditionError(ExperimentError):
    """A verification's precondition refused: a failed criterion, not a fault."""


class SubsetNotAdmissibleError(PreconditionError):
    """A lemma-check subset failed its certification."""


@dataclass(frozen=True, eq=False)
class MarkovSample:
    """A chain draw: the observed starting state and the n observations."""

    y0: float
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def _triangle_bound(member_ids, to_truth, between, measure=float) -> tuple[float, int]:
    """Convex-hull certificate: the best triangle bound and its center.

    At each index or state, a mixture of the members sits within
    rho_c = max_j d(c, j) of the center c, so it is at least
    (d(truth, c) - rho_c)_+ from the truth.  ``to_truth(c)`` and
    ``between(c, j)`` give d as a scalar or as one value per index or
    state; ``measure`` collapses the squared shortfall over that index or
    state set, and half of it bounds the hull's affinity gap.  Returns the
    max over centers c and the c attaining it (ties to the larger id).
    """
    def bound(c):
        rho = np.max([between(c, j) for j in member_ids], axis=0)
        shortfall = np.maximum(0.0, to_truth(c) - rho)
        return float(measure(shortfall ** 2)) / 2.0

    return max((bound(c), c) for c in member_ids)


def _gaussian_mixture_kls(deltas: np.ndarray, weights_before: np.ndarray) -> np.ndarray:
    """Per-step kl(N(0, 1), sum_j w[j, i] N(deltas[j, i], 1)).

    ``deltas`` are the components' offsets from the truth in noise sds, so
    this is the kl from the truth's normal of any sd to the mixture of its
    shifts.  Centred on the truth it is

        -int phi(z) log sum_j w[j, i] exp(z deltas[j, i] - deltas[j, i]^2 / 2) dz,

    by the z-node rule, all steps of one spacing at once (37 nodes at
    Z_STEP).  The exponent is at most z^2 / 2 <= 40.5, so it cannot
    overflow; the 1e-300 floor catches a mixture whose every atom underflows.
    """
    out = np.empty(deltas.shape[1])
    for cols, nodes, mix in _mixtures_on_z(deltas, weights_before):
        np.maximum(mix, 1e-300, out=mix)
        np.log(mix, out=mix)
        out[cols] = -(mix @ (nodes.quad_weights * np.exp(-0.5 * nodes.x ** 2) / SQRT_2PI))
    return np.maximum(out, 0.0)


def _affinity_gaps(deltas: np.ndarray, w) -> np.ndarray:
    """Per-row 1 - int sqrt(N(0, 1) * sum_j w[j] N(deltas[j, k], 1)).

    The mixture-to-reference affinity gap of every row k, centred on the
    reference: 1 - int phi(z) sqrt(sum_j w[j] exp(z d - d^2 / 2)) dz with
    d = deltas[j, k], by the z-node rule.  phi goes inside the root, so the
    exponent is -(z - d / 2)^2 - d^2 / 4, never positive: no offset overflows.
    """
    weights = np.broadcast_to(np.asarray(w)[:, None], deltas.shape)
    out = np.empty(deltas.shape[1])
    for cols, nodes, mix in _mixtures_on_z(deltas, weights, affinity=True):
        np.sqrt(mix, out=mix)
        out[cols] = 1.0 - (mix @ nodes.quad_weights) / SQRT_2PI
    return out


def _density_stride(grid: Grid, sd: float) -> int:
    """Largest divisor s of points - 1 with s * spacing <= sd / ROW_POINTS_PER_SD."""
    limit = sd / ROW_POINTS_PER_SD
    return max((s for s in range(2, grid.points)
                if (grid.points - 1) % s == 0 and s * grid.spacing <= limit), default=1)


# ---------------------------------------------------------------------------
# regimes


class IidRegime:
    """Independent draws from a fixed density, measured against an anchor.

    The anchor is the truth (``anchor=None``, well specified) or the prior's
    kl projection member.  Every functional is the starred one anchored at
    ``f_circ``; at the truth the weight f_star / f_circ is exactly one.
    """

    def __init__(self, prior: AtomicPrior, true_density: GridDensity,
                 anchor: FamilyMember | None = None):
        if prior.kind != IID:
            raise ExperimentError(f"iid regime needs density atoms, got {prior.kind!r}")
        self.grid = true_density.grid
        for m in prior.members:
            if m.density.grid != self.grid:
                raise ExperimentError("prior atoms and truth must share one grid")
        self.prior = prior
        self.true_density = true_density
        self.well_specified = anchor is None
        self.kind = "iid" if anchor is None else "misspecified"
        self.reference = (
            FamilyMember(id=REF_ID, kind=IID, payload=true_density) if anchor is None else anchor
        )
        self.f_circ = self.reference.density
        self._cdf = true_density.cdf_values()
        # the Cesaro kernel's trapezoid on every stride-th node of the densities
        sd = min(math.sqrt(f.variance())
                 for f in (true_density, *(m.density for m in prior.members)))
        stride = _density_stride(self.grid, sd)
        nodes = Grid(self.grid.lower, self.grid.upper, (self.grid.points - 1) // stride + 1)
        self._cesaro_kern = nodes.quad_weights * true_density.values[::stride]
        self._cesaro_anchor = float(self._cesaro_kern @ self.f_circ.log_values[::stride])
        self._cesaro_values = np.stack(
            [m.density.values[::stride] for m in prior.members]).T  # (nodes, atoms)
        # the weight f_star / f_circ of every weighted Hellinger distance
        self._weight = np.exp(true_density.log_values - self.f_circ.log_values)

    # -- data

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.interp(rng.random(n), self._cdf, self.grid.x)

    def loglik_matrix(self, data: np.ndarray) -> np.ndarray:
        return np.stack([m.density.log_interp(data) for m in self.prior.members])

    def ref_loglik(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(self.f_circ.log_interp(data))

    # -- divergences

    def atom_kv(self, n: int | None = None) -> np.ndarray:
        f_circ, f_star = self.f_circ, self.true_density
        return np.array([[max(0.0, kl_contrast(f_circ, m.density, f_star)),
                          v_star(f_circ, m.density, f_star)] for m in self.prior.members])

    def theta0_mask(self) -> np.ndarray | None:
        return None

    def _density(self, member_id: int) -> GridDensity:
        return self.prior.members[self.prior.index_of(member_id)].density

    def _dist(self, f: GridDensity, g: GridDensity) -> float:
        return hellinger_with_weight(f, g, self._weight)

    def truth_dist(self, member_id: int, n: int | None = None) -> float:
        return self._dist(self._density(member_id), self.f_circ)

    def separation_gaps(self, member_ids: Sequence[int], n: int | None = None) -> np.ndarray:
        return np.array(
            [h_star(self.f_circ, self._density(i), self.true_density) for i in member_ids]
        )

    def pair_dist(self, id_a: int, id_b: int, n: int | None = None) -> float:
        return self._dist(self._density(id_a), self._density(id_b))

    def vertex_certificates(self, member_ids) -> np.ndarray:
        """Ratio certificates: each vertex needs int (f/f_circ) f_star <= 1."""
        return np.array(
            [kleijn_certificate(self.f_circ, self._density(i), self.true_density)
             for i in member_ids]
        )

    def _mixture(self, member_ids: Sequence[int], w: np.ndarray) -> GridDensity:
        return mixture_density([self._density(i) for i in member_ids], w)

    def mixture_truth_gap(self, member_ids, w, n: int | None = None) -> float:
        return h_star(self.f_circ, self._mixture(member_ids, w), self.true_density)

    def closure_violation(self, member_ids, center_id: int, w, n: int | None = None) -> float:
        center = self._density(center_id)
        radius = max(self._dist(center, self._density(i)) for i in member_ids)
        return self._dist(center, self._mixture(member_ids, w)) - radius

    def hull_gap_bound(self, member_ids: Sequence[int],
                       n: int | None = None) -> tuple[float, int]:
        """Weighted-Hellinger triangle bound on the hull's affinity gap, and its center.

        Valid because the squared weighted distance is convex in mixtures and
        the half-square lower-bounds the starred gap whenever the vertex
        ratio certificates hold; callers check those separately.
        """
        return _triangle_bound(
            member_ids,
            lambda c: self._dist(self.f_circ, self._density(c)),
            lambda c, j: self._dist(self._density(c), self._density(j)),
        )

    # -- Cesaro statistic

    def cesaro_kls(self, data, weights_before: np.ndarray) -> np.ndarray:
        """Contrast statistic: int log(f_circ / predictive) f_star.

        The trapezoid rule on every stride-th grid node, anchor
        term included.  The steps go in blocks of ``CESARO_BLOCK``, and each
        block's predictive densities are formed, logged and integrated in
        one buffer, so the (nodes, steps) matrix is never built.  The last
        block takes the remainder rather than leaving a short one: a product
        a few steps wide goes to other BLAS kernels and rounds unlike the
        whole-matrix product.
        """
        values = self._cesaro_values
        points, n = len(values), weights_before.shape[1]
        starts = list(range(0, n - CESARO_BLOCK + 1, CESARO_BLOCK)) or [0]
        buf = np.empty(points * (n - starts[-1]))
        vals = np.empty(n)
        for s, e in zip(starts, starts[1:] + [n]):
            block = buf[:points * (e - s)].reshape(points, e - s)
            np.matmul(values, weights_before[:, s:e], out=block)
            np.log(block, out=block)
            vals[s:e] = block.T @ self._cesaro_kern
        vals = self._cesaro_anchor - vals
        return np.maximum(vals, 0.0) if self.well_specified else vals


class MisspecifiedRegime(IidRegime):
    """Truth outside the family; everything is measured against the projection."""

    def __init__(self, setup: MisspecifiedSetup):
        prior = setup.prior
        super().__init__(prior, setup.true_density,
                         anchor=prior.members[prior.index_of(setup.projection_id)])


class RegressionRegime:
    """Gaussian responses around a design-indexed mean function.

    Two responses at one design index are unit normals, so every divergence
    between them is the exact ``gaussian_shift_kvh``.  Mixtures have no
    closed form: the Cesaro kernel and the certification draws integrate
    them by the z-node rule, on the atoms' offsets from the truth or the
    reference row, all design indices at once.
    """

    kind = "regression"
    well_specified = True

    def __init__(self, prior: AtomicPrior, truth: RegressionFunction):
        if prior.kind != REGRESSION:
            raise ExperimentError(
                f"regression regime needs function atoms, got {prior.kind!r}"
            )
        length = len(truth)
        for m in prior.members:
            if len(m.payload) != length:
                raise ExperimentError(
                    f"member {m.id} has {len(m.payload)} design values, truth has {length}"
                )
        self.prior = prior
        self.truth = truth
        self.reference = FamilyMember(id=REF_ID, kind=REGRESSION, payload=truth)
        self._means = np.stack([np.asarray(m.payload.values_at_design) for m in prior.members])
        self._truth_means = np.asarray(truth.values_at_design)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n > len(self.truth):
            raise ExperimentError(f"design has {len(self.truth)} points, asked for {n}")
        return self._truth_means[:n] + rng.standard_normal(n)

    def loglik_matrix(self, data: np.ndarray) -> np.ndarray:
        n = len(data)
        z = data[None, :] - self._means[:, :n]
        return -0.5 * z * z - LOG_SQRT_2PI

    def ref_loglik(self, data: np.ndarray) -> np.ndarray:
        z = data - self._truth_means[: len(data)]
        return -0.5 * z * z - LOG_SQRT_2PI

    def _h2(self, means_a: np.ndarray, means_b: np.ndarray, n: int) -> np.ndarray:
        """Per-index squared Hellinger distances over the first n indices."""
        return gaussian_shift_kvh((means_a[:n] - means_b[:n]) ** 2)[2]

    def atom_kv(self, n: int) -> np.ndarray:
        k, v, _ = gaussian_shift_kvh((self._means[:, :n] - self._truth_means[None, :n]) ** 2)
        return np.stack([k.mean(axis=1), v.mean(axis=1)], axis=1)

    def theta0_mask(self) -> np.ndarray | None:
        return None

    def _row(self, member_id: int) -> np.ndarray:
        if member_id == REF_ID:
            return self._truth_means
        return self._means[self.prior.index_of(member_id)]

    def truth_dist(self, member_id: int, n: int) -> float:
        """Root mean per-index squared Hellinger over the first n indices."""
        return math.sqrt(float(self._h2(self._row(member_id), self._truth_means, n).mean()))

    def separation_gaps(self, member_ids, n: int) -> np.ndarray:
        return np.array([0.5 * self.truth_dist(i, n) ** 2 for i in member_ids])

    def pair_dist(self, id_a: int, id_b: int, n: int) -> float:
        return math.sqrt(float(self._h2(self._row(id_a), self._row(id_b), n).mean()))

    def _mean_gap_to(self, ref_id: int, member_ids, w, n: int) -> float:
        """Mean over the first n indices of the mixture's affinity gap to ``ref_id``."""
        deltas = np.stack([self._row(i)[:n] for i in member_ids]) - self._row(ref_id)[:n]
        return float(np.mean(_affinity_gaps(deltas, w)))

    def mixture_truth_gap(self, member_ids, w, n: int) -> float:
        return self._mean_gap_to(REF_ID, member_ids, w, n)

    def closure_violation(self, member_ids, center_id, w, n: int) -> float:
        radius = max(
            0.5 * self.pair_dist(center_id, i, n) ** 2 for i in member_ids
        )
        return self._mean_gap_to(center_id, member_ids, w, n) - radius

    def hull_gap_bound(self, member_ids, n: int) -> tuple[float, int]:
        """Per-index triangle bound averaged over the design, and its center."""
        def h(means_a, means_b):
            return np.sqrt(self._h2(means_a, means_b, n))

        return _triangle_bound(
            member_ids,
            lambda c: h(self._truth_means, self._row(c)),
            lambda c, j: h(self._row(c), self._row(j)),
            np.mean,
        )

    def cesaro_kls(self, data, weights_before: np.ndarray) -> np.ndarray:
        n = len(data)
        return _gaussian_mixture_kls(self._means[:, :n] - self._truth_means[:n], weights_before)


class MarkovRegime:
    """Stationary AR(1) chains; likelihoods condition on the realized state.

    Two transitions from one state are normals of one sd, so every
    divergence between them is the exact ``gaussian_shift_kvh``, averaged
    over the truth's stationary density or taken at the state window's
    edge; ``grid`` only vets that those transitions fit on it.  Mixtures of
    transitions have no closed form: the Cesaro kernel (at every realized
    state) and the certification draws (at the probe states) integrate them
    by the z-node rule, on the atoms' offsets in noise sds, with no span to
    clip however far the chain wanders.
    """

    kind = "markov"
    well_specified = True

    def __init__(self, prior: AtomicPrior, theta_star: MarkovParam,
                 grid: Grid | None = None, state_window: float | None = None,
                 theta0_bound: float = 1.0):
        if prior.kind != MARKOV:
            raise ExperimentError(f"markov regime needs chain atoms, got {prior.kind!r}")
        sd = theta_star.noise_sd
        for m in prior.members:
            if m.payload.noise_sd != sd:
                raise ExperimentError("all chain atoms must share the truth's noise sd")
        self.prior = prior
        self.theta_star = theta_star
        self.grid = grid if grid is not None else default_grid()
        self.noise_sd = sd
        self.stationary_sd = theta_star.stationary_sd
        self.state_window = (
            5.0 * self.stationary_sd if state_window is None else float(state_window)
        )
        self.theta0_bound = theta0_bound
        self.reference = FamilyMember(id=REF_ID, kind=MARKOV, payload=theta_star)
        self._thetas = np.array([m.payload.theta for m in prior.members])
        self._md_cache: dict[int, tuple[float, float, float]] = {}

    def sample(self, n: int, rng: np.random.Generator) -> MarkovSample:
        y0 = float(self.stationary_sd * rng.standard_normal())
        e = self.noise_sd * rng.standard_normal(n)
        y = np.empty(n)
        prev = y0
        t = self.theta_star.theta
        for i in range(n):
            prev = t * prev + e[i]
            y[i] = prev
        return MarkovSample(y0=y0, y=y)

    def _prev_chain(self, sample: MarkovSample) -> np.ndarray:
        return np.concatenate(([sample.y0], sample.y[:-1]))

    def loglik_matrix(self, sample: MarkovSample) -> np.ndarray:
        prev = self._prev_chain(sample)
        z = (sample.y[None, :] - self._thetas[:, None] * prev[None, :]) / self.noise_sd
        return -0.5 * z * z - math.log(self.noise_sd) - LOG_SQRT_2PI

    def ref_loglik(self, sample: MarkovSample) -> np.ndarray:
        prev = self._prev_chain(sample)
        z = (sample.y - self.theta_star.theta * prev) / self.noise_sd
        return -0.5 * z * z - math.log(self.noise_sd) - LOG_SQRT_2PI

    def _divergences(self, member_id: int) -> tuple[float, float, float]:
        """(kl, v, h_q) of one atom; the first call computes every atom's."""
        if not self._md_cache:
            thetas = [m.payload.theta for m in self.prior.members]
            rows = stationary_divergences(
                self.theta_star.theta, thetas, grid=self.grid, noise_sd=self.noise_sd
            )
            # vet the state window that the sup-form bounds measure over
            check_state_window(
                self.grid, (self.theta_star.theta, *thetas), self.state_window, self.noise_sd
            )
            self._md_cache = {m.id: r for m, r in zip(self.prior.members, rows)}
        return self._md_cache[member_id]

    def atom_kv(self, n: int | None = None) -> np.ndarray:
        return np.array([self._divergences(m.id)[:2] for m in self.prior.members])

    def theta0_mask(self) -> np.ndarray:
        kv = self.atom_kv()
        return (kv[:, 0] <= self.theta0_bound) & (kv[:, 1] <= self.theta0_bound)

    def truth_dist(self, member_id: int, n: int | None = None) -> float:
        """Stationary-averaged per-state Hellinger distance."""
        return self._divergences(member_id)[2]

    def _sup_h(self, theta_a: float, theta_b: float) -> float:
        return state_sup_hellinger(
            theta_a, theta_b, self.state_window, grid=self.grid, noise_sd=self.noise_sd
        )

    def separation_gaps(self, member_ids, n: int | None = None) -> np.ndarray:
        t = self.theta_star.theta
        return np.array(
            [0.5 * self._sup_h(t, self._theta_of(i)) ** 2 for i in member_ids]
        )

    def _theta_of(self, member_id: int) -> float:
        return float(self._thetas[self.prior.index_of(member_id)])

    def pair_dist(self, id_a: int, id_b: int, n: int | None = None) -> float:
        return self._sup_h(self._theta_of(id_a), self._theta_of(id_b))

    def _h2_at_states(self, theta_a: float, theta_b, states) -> np.ndarray:
        """Squared Hellinger distances between the transitions from ``states``."""
        return gaussian_shift_kvh(transition_shift_sq(theta_a, theta_b, states, self.noise_sd))[2]

    def hull_gap_bound(self, member_ids, n: int | None = None) -> tuple[float, int]:
        """Sup over window states of the per-state triangle bound, and its center.

        A sup-form certificate: it bounds the hull's worst-state gap, not the
        gap at every realized state, so the Monte Carlo check stays the
        authority on the bound itself.
        """
        states = np.linspace(0.0, self.state_window, SWEEP_POINTS)
        t = self.theta_star.theta
        return _triangle_bound(
            member_ids,
            lambda c: np.sqrt(self._h2_at_states(t, self._theta_of(c), states)),
            lambda c, j: np.sqrt(self._h2_at_states(self._theta_of(c), self._theta_of(j), states)),
            np.max,
        )

    def _probe_states(self, count: int = 7) -> np.ndarray:
        return np.linspace(self.state_window / count, self.state_window, count)

    def _probe_gaps(self, member_ids, ref_theta: float, w) -> np.ndarray:
        """The mixture's affinity gap to the transition of ``ref_theta``, per probe state."""
        thetas = np.array([self._theta_of(i) for i in member_ids])
        deltas = np.outer(thetas - ref_theta, self._probe_states()) / self.noise_sd
        return _affinity_gaps(deltas, w)

    def mixture_truth_gap(self, member_ids, w, n: int | None = None) -> float:
        """Worst-state affinity gap of the mixture over the probe states."""
        return float(np.max(self._probe_gaps(member_ids, self.theta_star.theta, w)))

    def closure_violation(self, member_ids, center_id, w, n: int | None = None) -> float:
        tc = self._theta_of(center_id)
        states = self._probe_states()
        rho = np.max([0.5 * self._h2_at_states(tc, self._theta_of(j), states)
                      for j in member_ids], axis=0)
        return float(np.max(self._probe_gaps(member_ids, tc, w) - rho))

    def cesaro_kls(self, sample: MarkovSample, weights_before: np.ndarray) -> np.ndarray:
        prev = self._prev_chain(sample)
        deltas = np.outer(self._thetas - self.theta_star.theta, prev) / self.noise_sd
        return _gaussian_mixture_kls(deltas, weights_before)


# ---------------------------------------------------------------------------
# engine


def generate_data(regime, n: int, seed: int):
    """Deterministic draw: same regime, n, and seed give bitwise-equal data."""
    return regime.sample(n, np.random.default_rng(seed))


def cumulative_log_ratio(regime, data) -> np.ndarray:
    """cum[j, i] = log prior_j + sum_{k<=i} (loglik_j - ref) at observation k."""
    ll = regime.loglik_matrix(data)
    ref = regime.ref_loglik(data)
    inc = ll - ref[None, :]
    j, n = inc.shape
    cum = np.empty((j, n + 1))
    cum[:, 0] = np.log(regime.prior.weights)
    cum[:, 1:] = cum[:, 0, None] + np.cumsum(inc, axis=1)
    return cum


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    regime: object
    schedule: RateSchedule
    replications: int
    seed: int
    collect: tuple[str, ...] = ("log_evidence",)
    subset_ids: tuple[int, ...] | None = None
    b_sets: tuple[tuple[int, ...], ...] | None = None
    u_set: tuple[int, ...] | None = None
    params: ConditionParams | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ExperimentError(f"need at least one replication, got {self.replications}")
        unknown = set(self.collect) - set(STAT_KEYS)
        if unknown:
            raise ExperimentError(f"unknown statistics {sorted(unknown)}")
        if "sqrt_l" in self.collect and not self.subset_ids:
            raise ExperimentError("sqrt_l needs subset_ids")
        if "posterior_mass" in self.collect:
            if self.b_sets is None or len(self.b_sets) != len(self.schedule.n_values):
                raise ExperimentError("posterior_mass needs one b_set per schedule point")
        if "u_mass" in self.collect and self.u_set is None:
            raise ExperimentError("u_mass needs u_set")

    def collecting(self, stats: Sequence[str], b_sets=None) -> ExperimentPlan:
        """This plan collecting ``stats`` (over far sets ``b_sets``, if given).  A record
        depends on (seed + r, data) alone, so one pass can serve many verifications."""
        return replace(self, collect=tuple(stats),
                       b_sets=self.b_sets if b_sets is None else b_sets)


@dataclass(frozen=True, eq=False)
class ReplicationRecord:
    rep_id: int
    n_values: tuple[int, ...]
    stats: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for key, arr in self.stats.items():
            if arr.shape != (len(self.n_values),):
                raise ExperimentError(f"statistic {key} misaligned with schedule")
            if np.any(np.isnan(arr)):
                raise ExperimentError(f"statistic {key} has NaN entries")
        for key in ("posterior_mass", "u_mass"):
            if key in self.stats:
                m = self.stats[key]
                if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
                    raise ExperimentError(f"{key} outside [0, 1]")
        if "sqrt_l" in self.stats and np.any(self.stats["sqrt_l"] < 0.0):
            raise ExperimentError("sqrt_l must be nonnegative")


def _subset_rows(prior: AtomicPrior, member_ids) -> list[int]:
    return [prior.index_of(i) for i in sorted(set(member_ids))]


def replicate(plan: ExperimentPlan, rep_id: int) -> ReplicationRecord:
    """Run one seeded replication and read statistics at the schedule points."""
    regime = plan.regime
    rng = np.random.default_rng(plan.seed + rep_id)
    n_values = plan.schedule.n_values
    n_max = n_values[-1]
    data = regime.sample(n_max, rng)
    cum = cumulative_log_ratio(regime, data)
    idx = np.asarray(n_values)
    stats: dict[str, np.ndarray] = {}

    if "log_evidence" in plan.collect:
        stats["log_evidence"] = logsumexp(cum, axis=0)[idx]
    if "sqrt_l" in plan.collect:
        rows = _subset_rows(regime.prior, plan.subset_ids)
        log_l = logsumexp(cum[rows], axis=0)
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
        weights_before = softmax(cum[:, :-1], axis=0)
        kls = regime.cesaro_kls(data, weights_before)
        running = np.cumsum(kls) / np.arange(1, n_max + 1)
        vals = running[idx - 1]
        if regime.well_specified and np.any(vals < -1e-9):
            raise ExperimentError("negative Cesaro statistic in a well-specified run")
        stats["cesaro_kl"] = vals

    return ReplicationRecord(rep_id=rep_id, n_values=n_values, stats=stats)


def run_replications(plan: ExperimentPlan, jobs: int = 1) -> list[ReplicationRecord]:
    """All replications, order-independent: records come back sorted by id."""
    ids = range(plan.replications)
    if jobs <= 1:
        records = [replicate(plan, i) for i in ids]
    else:
        # imported here: only a pool run pays for multiprocessing; forked
        # workers inherit the caller's floating-point error handling
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                chunk = max(1, plan.replications // (8 * jobs))
                records = list(pool.map(partial(replicate, plan), ids, chunksize=chunk))
        except BrokenProcessPool as e:
            raise ExperimentError(f"a replication worker died: {e}") from e
    return sorted(records, key=lambda r: r.rep_id)


def stat_matrix(records: Sequence[ReplicationRecord], key: str) -> np.ndarray:
    return np.stack([r.stats[key] for r in records])


def mean_and_se(records, key: str) -> tuple[np.ndarray, np.ndarray]:
    m = stat_matrix(records, key)
    mean = m.mean(axis=0)
    if m.shape[0] < 2:
        return mean, np.zeros(m.shape[1])
    return mean, m.std(axis=0, ddof=1) / math.sqrt(m.shape[0])


def stat_quantile(records, key: str, q: float) -> np.ndarray:
    return np.percentile(stat_matrix(records, key), 100.0 * q, axis=0)


# ---------------------------------------------------------------------------
# thickness wiring


def _single_point(schedule: RateSchedule, n: int) -> RateSchedule:
    return RateSchedule((n,), a=schedule.a, gamma=schedule.gamma, kappa=schedule.kappa)


def thickness_records(regime, schedule: RateSchedule) -> list[ThicknessRecord]:
    """Regime-appropriate thickness profile along the schedule."""
    mask = regime.theta0_mask()
    records = []
    for n in schedule.n_values:
        kv = regime.atom_kv(n)
        rec = thickness_profile(regime.prior, _single_point(schedule, n), kv, mask)[0]
        records.append(rec)
    return records


def fitted_thickness_constant(records: Sequence[ThicknessRecord]) -> float:
    return max(r.implied_c for r in records)


# ---------------------------------------------------------------------------
# subset certification


@dataclass(frozen=True, eq=False)
class SubsetCertificate:
    vertex: SeparationReport
    hull_gap_bound: float
    closure: ClosureReport
    mixture_min_gap: float


def certify_subset(regime, member_ids, delta: float, n: int,
                   rng: np.random.Generator, draws: int = 200) -> SubsetCertificate:
    """Machine-check the numerator bound's preconditions for one subset.

    Refuses (raises) unless the vertices clear delta, the convex hull clears
    delta by the triangle certificate, random mixtures stay within the ball
    around the center attaining that certificate, and (under
    misspecification) every vertex ratio certificate is at most one.
    """
    ids = tuple(sorted(set(member_ids)))
    if not ids:
        raise SubsetNotAdmissibleError("subset not admissible: empty subset")

    if not regime.well_specified:
        certs = regime.vertex_certificates(ids)
        if np.any(certs > 1.0 + 1e-9):
            raise SubsetNotAdmissibleError(
                f"subset not admissible: ratio certificate "
                f"{float(np.max(certs)):.12g} exceeds 1"
            )

    gaps = regime.separation_gaps(ids, n)
    vertex = separation_report(gaps, delta)
    if not vertex.separated:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: vertex separation failed "
            f"(min gap {vertex.min_gap:.6g} <= delta {delta:.6g})"
        )

    hull, center_id = regime.hull_gap_bound(ids, n)
    if hull <= delta:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: convex-hull separation not certified "
            f"(triangle bound {hull:.6g} <= delta {delta:.6g})"
        )

    closure = mixture_closure_report(
        lambda w: regime.closure_violation(ids, center_id, w, n),
        len(ids),
        draws=draws,
        rng=rng,
    )
    if not closure.closed:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: mixture closure failed "
            f"(violation {closure.worst_violation:.6g})"
        )

    if len(ids) == 1:
        mixture_min = float(gaps[0])
    else:
        mixture_min = math.inf
        for _ in range(draws):
            w = rng.dirichlet(np.ones(len(ids)))
            mixture_min = min(mixture_min, regime.mixture_truth_gap(ids, w, n))
        if mixture_min <= delta:
            raise SubsetNotAdmissibleError(
                f"subset not admissible: a random mixture fell to gap "
                f"{mixture_min:.6g} <= delta {delta:.6g}"
            )

    return SubsetCertificate(
        vertex=vertex,
        hull_gap_bound=hull,
        closure=closure,
        mixture_min_gap=mixture_min,
    )


# ---------------------------------------------------------------------------
# verifications


@dataclass(frozen=True, eq=False)
class NumeratorBoundReport:
    n_values: tuple[int, ...]
    empirical_mean: np.ndarray
    std_error: np.ndarray
    bound: np.ndarray
    passed: bool
    implied_c: float
    d: float


def certify_numerator(plan: ExperimentPlan, implied: float, closure_draws: int = 200) -> None:
    """The numerator bound's preconditions, given the implied thickness C.

    Refuses unless the prior is thick, d > implied C + 1, and the subset
    certifies at every schedule point (draws from seed + CERT_SEED_OFFSET).
    """
    if plan.params is None or plan.params.d is None:
        raise ExperimentError("numerator bound needs params with d set")
    if not plan.subset_ids:
        raise ExperimentError("numerator bound needs subset_ids")
    d = plan.params.d
    if not math.isfinite(implied):
        raise SubsetNotAdmissibleError(
            "subset not admissible: prior is not thick at this schedule "
            "(empty divergence neighborhood)"
        )
    if not d > implied + 1.0:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: d = {d} must exceed implied C + 1 = {implied + 1.0:.6g}"
        )
    cert_rng = np.random.default_rng(plan.seed + CERT_SEED_OFFSET)
    for n in plan.schedule.n_values:
        certify_subset(plan.regime, plan.subset_ids, d * plan.schedule.epsilon(n) ** 2, n,
                       cert_rng, draws=closure_draws)


def numerator_report(plan: ExperimentPlan, records: Sequence[ReplicationRecord],
                     implied: float) -> NumeratorBoundReport:
    """Mean sqrt(restricted numerator) of the records against its bound."""
    d, eps = plan.params.d, plan.schedule.epsilons
    mean, se = mean_and_se(records, "sqrt_l")
    mass = plan.regime.prior.mass_of(plan.subset_ids)
    bound = math.sqrt(mass) * np.exp(-d * np.asarray(plan.schedule.n_values) * eps * eps)
    return NumeratorBoundReport(
        n_values=plan.schedule.n_values, empirical_mean=mean, std_error=se, bound=bound,
        passed=bool(np.all(mean <= bound + 3.0 * se)), implied_c=implied, d=d,
    )


def verify_numerator_bound(plan: ExperimentPlan, jobs: int = 1,
                           closure_draws: int = 200) -> NumeratorBoundReport:
    """Monte Carlo check of mean sqrt(restricted numerator) against its bound."""
    implied = fitted_thickness_constant(thickness_records(plan.regime, plan.schedule))
    certify_numerator(plan, implied, closure_draws)
    records = run_replications(plan.collecting(("sqrt_l",)), jobs=jobs)
    return numerator_report(plan, records, implied)


@dataclass(frozen=True, eq=False)
class EvidenceBoundReport:
    n_values: tuple[int, ...]
    thresholds: np.ndarray
    fractions: np.ndarray
    trend_slope: float


def check_evidence_thickness(plan: ExperimentPlan, implied: float,
                             enforce_thickness: bool = True) -> None:
    """The evidence bound's precondition: c > implied C + 1, unless waived."""
    if plan.params is None or plan.params.c is None:
        raise ExperimentError("evidence bound needs params with c set")
    if enforce_thickness and not plan.params.c > implied + 1.0:
        raise PreconditionError(
            f"evidence bound needs c > implied C + 1 = {implied + 1.0:.6g}; "
            "set allow_thin_evidence: true for a diagnostic run"
        )


def evidence_report(plan: ExperimentPlan,
                    records: Sequence[ReplicationRecord]) -> EvidenceBoundReport:
    """Fraction of the records whose evidence falls below exp(-c n eps^2)."""
    c, eps = plan.params.c, plan.schedule.epsilons
    ns = np.asarray(plan.schedule.n_values, dtype=float)
    thresholds = -c * ns * eps * eps
    fractions = (stat_matrix(records, "log_evidence") <= thresholds[None, :]).mean(axis=0)
    slope = float(np.polyfit(ns, fractions, 1)[0]) if len(ns) >= 2 else 0.0
    return EvidenceBoundReport(
        n_values=plan.schedule.n_values, thresholds=thresholds, fractions=fractions,
        trend_slope=slope,
    )


def verify_evidence_bound(plan: ExperimentPlan, jobs: int = 1,
                          enforce_thickness: bool = True) -> EvidenceBoundReport:
    """Fraction of replications whose evidence falls below exp(-c n eps^2)."""
    implied = fitted_thickness_constant(thickness_records(plan.regime, plan.schedule))
    check_evidence_thickness(plan, implied, enforce_thickness)
    records = run_replications(plan.collecting(("log_evidence",)), jobs=jobs)
    return evidence_report(plan, records)


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    n_values: tuple[int, ...]
    b_sets: tuple[tuple[int, ...], ...]
    medians: np.ndarray
    upper_quartiles: np.ndarray
    u_medians: np.ndarray | None


def concentration_sets(regime, schedule: RateSchedule, multiplier: float):
    """B_n per schedule point: atoms with truth distance above M * eps_n."""
    sets = []
    for n in schedule.n_values:
        cut = multiplier * schedule.epsilon(n)
        sets.append(
            tuple(m.id for m in regime.prior.members if regime.truth_dist(m.id, n) > cut)
        )
    return tuple(sets)


def concentration_report(plan: ExperimentPlan,
                         records: Sequence[ReplicationRecord]) -> ConcentrationReport:
    """Median posterior mass of the plan's far sets B_n in the records."""
    return ConcentrationReport(
        n_values=plan.schedule.n_values, b_sets=plan.b_sets,
        medians=stat_quantile(records, "posterior_mass", 0.5),
        upper_quartiles=stat_quantile(records, "posterior_mass", 0.75),
        u_medians=stat_quantile(records, "u_mass", 0.5) if plan.u_set is not None else None,
    )


def posterior_mass_path(plan: ExperimentPlan, multiplier: float,
                        jobs: int = 1) -> ConcentrationReport:
    """Median posterior mass of the far set B_n along the schedule."""
    b_sets = concentration_sets(plan.regime, plan.schedule, multiplier)
    stats = ("posterior_mass",) + (("u_mass",) if plan.u_set is not None else ())
    plan = plan.collecting(stats, b_sets)
    return concentration_report(plan, run_replications(plan, jobs=jobs))


@dataclass(frozen=True)
class RateFit:
    slope: float
    fitted_constant: float


def fit_rate(n_values: Sequence[int], stats: Sequence[float],
             epsilons: Sequence[float] | None = None) -> RateFit:
    """Least-squares slope of log statistic on log n, plus the envelope constant.

    Nonpositive statistics have no logarithm and are left out of both.
    """
    ns = np.asarray(n_values, dtype=float)
    vals = np.asarray(stats, dtype=float)
    if ns.shape != vals.shape:
        raise ExperimentError("n_values and stats must align")
    keep = vals > 0.0
    if keep.sum() < 3:
        raise ExperimentError(
            f"rate fit needs at least 3 positive points, got {int(keep.sum())}"
        )
    slope = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)[0]
    fitted_constant = math.nan
    if epsilons is not None:
        eps = np.asarray(epsilons, dtype=float)
        if eps.shape != ns.shape:
            raise ExperimentError("epsilons must align with n_values")
        fitted_constant = float(np.max(vals[keep] / eps[keep] ** 2))
    return RateFit(slope=float(slope), fitted_constant=fitted_constant)
