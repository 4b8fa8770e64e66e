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
statistics.  The engine builds these matrices for a block of replications
at once and reduces each one over its own atom axis, so a record comes out
the same alone or in any block.  Replication r uses generator seed
plan.seed + r,  so records are reproducible one at a time and aggregation
never depends on execution order.

Lemma-style bound checks refuse to run on uncertified subsets: per-vertex
ratio certificates under misspecification, vertex separation, and a
convex-hull triangle certificate all have to pass first.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .divergences import (
    Grid,
    GridDensity,
    OutsideGridError,
    gaussian_shift_kvh,
    stationary_divergences,
)
from .geometry import (
    ConditionParams,
    RateSchedule,
    SeparationReport,
    ThicknessRecord,
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
    check_location,
)
from .numerics import logsumexp, softmax_and_logsumexp

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# reserved id for reference members that are not prior atoms
REF_ID = -1

STAT_KEYS = ("cesaro_kl", "log_evidence", "posterior_mass", "u_mass", "sqrt_l")

# replications per block of the engine: a block's samples are scored, summed
# and weighed in one array pass.  8 is the knee: iid.yaml's 300 replications
# took 0.33 s of CPU one at a time, 0.22 s in blocks of 4, 0.18 s of 8 and
# 0.17 s of 16, and a block of 8 holds 0.4 to 0.7 MB more than one
# replication on the shipped configs
REPLICATION_BLOCK = 8

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
# - The log of a mixture turns over from one term to the next, at complex
#   distance pi / D from the real line for two terms whose offsets differ
#   by D, which costs about exp(-2 pi^2 / (h D)).  So a column whose
#   offsets spread by D takes h = Z_STEP / m, m the least whole number with
#   h D <= Z_RESOLVE (7e-18).  On random three-term mixtures the rule is at
#   rounding (1.5e-15 relative) up to h D = 0.6, off by 1e-13 at 0.7 and by
#   3e-12 at 0.8; at the 0.2 spacing alone it was off by 1.5e-6 per step
#   on four atoms spread over 15 sds.
# - One kernel, _z_integrals, takes every such integral: a replication
#   block's Cesaro steps, regression's as the block's weight rows against
#   its one design and markov's as the block's replications side by side as
#   columns.  A column chunk's terms, every atom's at every node, a row
#   group's mixture and the product being added to it each hold at most
#   Z_BUFFER values (128 kB), so a wide spread, a block or many atoms cost
#   time, not memory.  Traced, a block peaks at 0.66 MiB on markov.yaml and
#   0.81 MiB on regression.yaml, against 0.68 and 0.83 when each replication
#   took the kernel alone; twice the buffer took them to 0.85 and 1.18 MiB.
Z_STEP = 0.5
Z_REACH = 9.0
Z_RESOLVE = 0.5
Z_BUFFER = 1 << 14
# replication threads take the z-node kernel in turns: two threads handing the
# interpreter over at each of its microsecond numpy calls ran slower than one
Z_TURN = threading.Lock()

# markov's distances sweep this many states of the window
SWEEP_POINTS = 1001


def _z_chunks(deltas: np.ndarray):
    """Yield (columns, nodes, kern): the column chunks of the z-node rule.

    The nodes span [-Z_REACH, Z_REACH] at the column's spacing, and ``kern``
    is the trapezoid's weights times phi(z).  A chunk's terms, every atom's
    at every node, hold at most Z_BUFFER values.
    """
    spread = deltas.max(axis=0) - deltas.min(axis=0)
    parts = np.maximum(np.ceil(spread * (Z_STEP / Z_RESOLVE)), 1.0).astype(int)
    for m in sorted(set(parts.tolist())):  # not np.unique, which imports numpy.ma
        group = np.flatnonzero(parts == m)
        nodes = Grid(-Z_REACH, Z_REACH, math.ceil(2.0 * Z_REACH * m / Z_STEP) + 1)
        kern = nodes.quad_weights * np.exp(-0.5 * nodes.x ** 2) / SQRT_2PI
        width = max(1, Z_BUFFER // (len(deltas) * nodes.points))
        for s in range(0, len(group), width):
            yield group[s:s + width], nodes, kern


def _z_integrals(deltas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows, *columns): the kl from N(0, 1) to each column's mixture under each
    weight row.

    Column k's mixture under row r is sum_j w N(d, 1), with d = deltas[j, k]
    the component's offset from the centre in noise sds and w =
    weights[r, j, k]; ``weights`` is (rows, atoms, *columns), or
    (rows, atoms) for one weight vector per row shared by every column.
    Centred there, the kl is

        -int phi(z) log sum_j w exp(z d - d^2 / 2) dz.

    Its exponents are at most z^2 / 2 <= 40.5, so no offset overflows; the
    1e-300 floor catches a mixture whose every atom underflows.

    Each chunk's terms are exponentiated once for every row; the rows go in
    groups whose mixtures hold at most Z_BUFFER values.  A row sums its atoms
    in order and integrates each column by its own dot product, so a value
    rounds alike in any chunk, group or block.
    """
    shape = deltas.shape[1:]
    flat = deltas.reshape(len(deltas), -1)
    rows = len(weights)
    out = np.empty((rows, flat.shape[1]))
    with Z_TURN:
        for cols, nodes, kern in _z_chunks(flat):
            d = np.take(flat, cols, axis=1)[:, :, None]
            # the nodes, then times d: numpy buffers both operands of d * z
            terms = np.full(d.shape[:2] + nodes.x.shape, nodes.x)
            terms *= d
            terms -= 0.5 * d * d
            np.exp(terms, out=terms)
            w = (weights[:, :, None, None] if weights.ndim == 2 else
                 weights[(slice(None),) * 2 + np.unravel_index(cols, shape)][..., None])
            step = max(1, Z_BUFFER // terms[0].size)
            for s in range(0, rows, step):
                ws = w[s:s + step]
                if rows == 1:  # one mixture: weigh the terms in place, sum them in order
                    mix = np.add.reduce(np.multiply(terms, ws[0], out=terms), axis=0)[None]
                else:
                    mix = terms[0] * ws[:, 0]
                    for j in range(1, len(terms)):
                        mix += terms[j] * ws[:, j]
                np.maximum(mix, 1e-300, out=mix)
                np.log(mix, out=mix)
                out[s:s + step, cols] = -_integrals(kern, mix)
            terms = mix = None  # before the next chunk takes its own; no rows set no mix
    np.maximum(out, 0.0, out=out)
    return out.reshape((rows,) + shape)


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


def _normal_log(z: np.ndarray, log_sd: float = 0.0) -> np.ndarray:
    """-0.5 z^2 - log_sd - log sqrt(2 pi), in that order, in one buffer: the
    log normal density at standardized residuals z, for noise sd e^log_sd."""
    out = -0.5 * z
    out *= z
    out -= log_sd
    out -= LOG_SQRT_2PI
    return out


def _density_stride(grid: Grid, sd: float) -> int:
    """Largest divisor s of points - 1 with s * spacing <= sd / ROW_POINTS_PER_SD."""
    limit = sd / ROW_POINTS_PER_SD
    return max((s for s in range(2, grid.points)
                if (grid.points - 1) % s == 0 and s * grid.spacing <= limit), default=1)


def _integrals(kern: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """kern @ row for each row on the last axis, each a dot product of its own
    (a stack of (1, nodes) @ (nodes, 1) products), so a row rounds alike
    alone or in any batch."""
    return (rows[..., None, :] @ kern[:, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# regimes


class _Regime:
    """The distances every regime shares, from the two things it states.

    ``_h2(id_a, id_b, n)`` is the squared Hellinger-type distance between two
    members (``REF_ID`` the anchor) at each of the regime's points: one value
    for iid data, one per design index for regression, one per window state
    for markov.  ``measure`` collapses a function of those points to a
    number: ``float``, the mean over the first n design indices, the max
    over the ``SWEEP_POINTS`` window states.
    """

    well_specified = True
    theta0_bound: float | None = None
    measure = staticmethod(float)

    def _h2(self, id_a: int, id_b: int, n: int | None) -> np.ndarray:
        raise NotImplementedError

    def _row_of(self, table: np.ndarray, anchor, member_id: int):
        """A member's row of ``table``; ``anchor`` for REF_ID."""
        return anchor if member_id == REF_ID else table[self.prior.index_of(member_id)]

    def theta0_mask(self) -> np.ndarray | None:
        """The atoms whose (K, V) stay within ``theta0_bound``; None for no bound."""
        if self.theta0_bound is None:
            return None
        kv = self.atom_kv()
        return (kv[:, 0] <= self.theta0_bound) & (kv[:, 1] <= self.theta0_bound)

    def pair_dist(self, id_a: int, id_b: int, n: int | None = None) -> float:
        return math.sqrt(float(self.measure(self._h2(id_a, id_b, n))))

    def truth_dist(self, member_id: int, n: int | None = None) -> float:
        return self.pair_dist(REF_ID, member_id, n)

    def separation_gaps(self, member_ids: Sequence[int], n: int | None = None) -> np.ndarray:
        return np.array([0.5 * self.pair_dist(REF_ID, i, n) ** 2 for i in member_ids])

    def hull_gap_bound(self, member_ids: Sequence[int],
                       n: int | None = None) -> tuple[float, int]:
        """Convex-hull certificate: the best triangle bound and its center.

        At each point, a mixture of the members sits within rho_c = max_j
        d(c, j) of the center c, so it is at least (d(anchor, c) - rho_c)_+
        from the anchor; ``measure`` collapses the squared shortfall, and
        half of it bounds the hull's affinity gap.  Valid because the squared
        distance is convex in mixtures and, for a density regime, the
        half-square lower-bounds the starred gap whenever the vertex ratio
        certificates hold; callers check those separately.  Under markov's
        max it bounds the hull's worst-state gap, not the gap at every
        realized state, so the Monte Carlo check stays the authority on the
        bound itself.  Returns the max over centers c and the c attaining
        it (ties to the larger id).
        """
        def bound(c):
            rho = np.max([np.sqrt(self._h2(c, j, n)) for j in member_ids], axis=0)
            shortfall = np.maximum(0.0, np.sqrt(self._h2(REF_ID, c, n)) - rho)
            return float(self.measure(shortfall ** 2)) / 2.0

        return max((bound(c), c) for c in member_ids)


class IidRegime(_Regime):
    """Independent draws from a fixed density, measured against an anchor.

    The anchor is the truth (``anchor=None``, well specified) or the prior's
    kl projection member.  Every functional is the starred one anchored at
    ``f_circ``; at the truth the weight f_star / f_circ is exactly one.
    Each integral, over all atoms at once, is the trapezoid rule on one
    table at every stride-th grid node; the grid densities only draw the
    samples and give the likelihoods' log table.
    """

    def __init__(self, prior: AtomicPrior, true_density: GridDensity,
                 anchor: FamilyMember | None = None):
        if prior.kind != IID:
            raise ExperimentError(f"iid regime needs density atoms, got {prior.kind!r}")
        self.grid = true_density.grid
        for m in prior.members:
            if m.density.grid != self.grid:
                raise ExperimentError("prior atoms and truth must share one grid")
        if anchor is None:  # a misspecified setup has checked its own
            check_location(prior, true_density)
        self.prior = prior
        self.true_density = true_density
        self.well_specified = anchor is None
        self.kind = "iid" if anchor is None else "misspecified"
        self.reference = (
            FamilyMember(id=REF_ID, kind=IID, payload=true_density) if anchor is None else anchor
        )
        self.f_circ = self.reference.density
        self._cdf = true_density.cdf_values()
        sd = min(math.sqrt(f.variance())
                 for f in (true_density, *(m.density for m in prior.members)))
        stride = _density_stride(self.grid, sd)
        nodes = Grid(self.grid.lower, self.grid.upper, (self.grid.points - 1) // stride + 1)
        # the kernels q f_star and q f_star / f_circ (the weight of every
        # Hellinger distance), and the anchor's and atoms' rows; every array
        # is contiguous, and the anchor term a float, so a copy of the regime
        # rounds alike (a product with a strided view rounds unlike a contiguous one)
        self._kern = nodes.quad_weights * true_density.values[::stride]
        self._circ_log = np.log(self.f_circ.values[::stride])
        self._circ_root = np.sqrt(self.f_circ.values[::stride])
        self._wkern = nodes.quad_weights * np.exp(
            np.log(true_density.values[::stride]) - self._circ_log)
        self._values = np.stack([m.density.values[::stride] for m in prior.members])
        self._logs = np.log(self._values)
        self._roots = np.sqrt(self._values)
        self._cesaro_anchor = float(self._kern @ self.f_circ.log_values[::stride])
        # the atoms' and the anchor's logs at every grid node, (points, atoms + 1),
        # and np.interp's slope from each node to the next; the zero slope
        # after the last node makes the upper end return its own value
        self._node_logs = np.log(np.stack([m.density.values for m in prior.members]
                                          + [self.f_circ.values])).T.copy()
        self._slopes = np.zeros_like(self._node_logs)
        self._slopes[:-1] = np.diff(self._node_logs, axis=0) / np.diff(self.grid.x)[:, None]

    # -- data

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.interp(rng.random(n), self._cdf, self.grid.x)

    def _grid_logs(self, p: np.ndarray) -> np.ndarray:
        """(*p.shape, atoms + 1): each atom's log density at p, then the anchor's.

        ``GridDensity.log_interp`` of every atom and the anchor, bit for bit,
        from one bin search shared by all of them: at x[j] <= p < x[j + 1]
        each log is slope[j] * (p - x[j]) + log f(x[j]), as np.interp forms
        it, and a node (or the upper end) gives its own value.
        """
        if p.min() < self.grid.lower or p.max() > self.grid.upper:
            raise OutsideGridError(f"point outside grid [{self.grid.lower}, {self.grid.upper}]")
        j = np.searchsorted(self.grid.x, p, side="right") - 1
        logs = self._slopes[j]
        logs *= (p - self.grid.x[j])[..., None]
        logs += self._node_logs[j]
        return logs

    def log_ratios(self, samples) -> np.ndarray:
        """(reps, atoms, n): log f_j - log f_circ at every point of every sample."""
        logs = self._grid_logs(np.stack(samples))
        return (logs[..., :-1] - logs[..., -1:]).transpose(0, 2, 1)

    # -- divergences

    def _rows(self, member_ids) -> list[int]:
        return [self.prior.index_of(i) for i in member_ids]

    def atom_kv(self, n: int | None = None) -> np.ndarray:
        r = self._circ_log - self._logs
        return np.stack([np.maximum(0.0, _integrals(self._kern, r)),
                         _integrals(self._kern, r * r)], axis=1)

    def _h2(self, id_a: int, id_b: int, n: int | None = None) -> np.ndarray:
        """The squared weighted Hellinger distance: int (sqrt f_a - sqrt f_b)^2 f_star / f_circ."""
        d = (self._row_of(self._roots, self._circ_root, id_a)
             - self._row_of(self._roots, self._circ_root, id_b))
        return np.maximum(_integrals(self._wkern, d * d), 0.0)

    def separation_gaps(self, member_ids: Sequence[int], n: int | None = None) -> np.ndarray:
        """h*(f_circ, f) = 1 - int sqrt(f / f_circ) f_star of each member."""
        logs = self._logs[self._rows(member_ids)]
        return 1.0 - _integrals(self._kern, np.exp(-0.5 * (self._circ_log - logs)))

    def vertex_certificates(self, member_ids) -> np.ndarray:
        """Ratio certificates: each vertex needs int (f/f_circ) f_star <= 1."""
        return _integrals(self._kern, np.exp(self._logs[self._rows(member_ids)] - self._circ_log))

    # -- Cesaro statistic

    def cesaro_kls(self, samples, weights_before: np.ndarray) -> np.ndarray:
        """Contrast statistic: int log(f_circ / predictive) f_star, (reps, n).

        The trapezoid rule on every stride-th grid node, anchor
        term included.  The steps go in blocks of ``CESARO_BLOCK``, and each
        block's predictive densities are formed, logged and integrated in
        one buffer, so the (nodes, steps) matrices are never built.  The last
        block takes the remainder rather than leaving a short one: a product
        a few steps wide goes to other BLAS kernels and rounds unlike the
        whole-matrix product.  The replications go through each step block
        as one stack of the same products, so each rounds as it would alone.
        """
        values = self._values.T
        points, (reps, _, n) = len(values), weights_before.shape
        starts = list(range(0, n - CESARO_BLOCK + 1, CESARO_BLOCK)) or [0]
        buf = np.empty(reps * points * (n - starts[-1]))
        vals = np.empty((reps, n))
        for s, e in zip(starts, starts[1:] + [n]):
            block = buf[:reps * points * (e - s)].reshape(reps, points, e - s)
            np.matmul(values, weights_before[:, :, s:e], out=block)
            np.log(block, out=block)
            vals[:, s:e] = block.transpose(0, 2, 1) @ self._kern
        vals = self._cesaro_anchor - vals
        return np.maximum(vals, 0.0) if self.well_specified else vals


class MisspecifiedRegime(IidRegime):
    """Truth outside the family; everything is measured against the projection."""

    def __init__(self, setup: MisspecifiedSetup):
        prior = setup.prior
        super().__init__(prior, setup.true_density,
                         anchor=prior.members[prior.index_of(setup.projection_id)])


class RegressionRegime(_Regime):
    """Gaussian responses around a design-indexed mean function.

    Two responses at one design index are unit normals, so every divergence
    between them is the exact ``gaussian_shift_kvh``, and a distance is the
    root mean over the first n design indices.  Mixtures have no closed
    form: the Cesaro kernel integrates them by the z-node rule, on the
    atoms' offsets from the truth, all design indices at once.
    """

    kind = "regression"
    measure = staticmethod(np.mean)

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

    def log_ratios(self, samples) -> np.ndarray:
        """(reps, atoms, n): each atom's log likelihood less the truth's, per response."""
        data = np.stack(samples)
        n = data.shape[1]
        out = _normal_log(data[:, None, :] - self._means[:, :n])
        out -= _normal_log(data - self._truth_means[:n])[:, None, :]
        return out

    def _h2(self, id_a: int, id_b: int, n: int | None) -> np.ndarray:
        """Per-index squared Hellinger distances over the first n indices."""
        if n is None:  # the whole design would stand in for the first n indices
            raise ExperimentError("regression distances need n, the design indices they cover")
        a = self._row_of(self._means, self._truth_means, id_a)
        b = self._row_of(self._means, self._truth_means, id_b)
        return gaussian_shift_kvh((a[:n] - b[:n]) ** 2)[2]

    def atom_kv(self, n: int) -> np.ndarray:
        k, v, _ = gaussian_shift_kvh((self._means[:, :n] - self._truth_means[None, :n]) ** 2)
        return np.stack([k.mean(axis=1), v.mean(axis=1)], axis=1)

    def cesaro_kls(self, samples, weights_before: np.ndarray) -> np.ndarray:
        """(reps, n): every replication's weights against the one design."""
        n = weights_before.shape[2]
        return _z_integrals(self._means[:, :n] - self._truth_means[:n], weights_before)


class MarkovRegime(_Regime):
    """Stationary AR(1) chains; likelihoods condition on the realized state.

    Two transitions from one state are normals of one sd, so every
    divergence between them is the exact ``gaussian_shift_kvh``, averaged
    over the truth's stationary density (``truth_dist``) or maximized over
    ``SWEEP_POINTS`` states of the window (every other distance).  Mixtures
    of transitions have no closed form: the Cesaro kernel integrates them at
    every realized state by the z-node rule, on the atoms' offsets in noise
    sds, with no span to clip however far the chain wanders.
    """

    kind = "markov"
    measure = staticmethod(np.max)

    def __init__(self, prior: AtomicPrior, theta_star: MarkovParam,
                 state_window: float | None = None, theta0_bound: float = 1.0):
        if prior.kind != MARKOV:
            raise ExperimentError(f"markov regime needs chain atoms, got {prior.kind!r}")
        sd = theta_star.noise_sd
        for m in prior.members:
            if m.payload.noise_sd != sd:
                raise ExperimentError("all chain atoms must share the truth's noise sd")
        self.prior = prior
        self.theta_star = theta_star
        self.noise_sd = sd
        self.stationary_sd = theta_star.stationary_sd
        self.state_window = (
            5.0 * self.stationary_sd if state_window is None else float(state_window)
        )
        if not 0.0 < self.state_window < math.inf:
            raise ExperimentError(
                f"state window must be positive and finite, got {self.state_window}")
        if not 0.0 <= theta0_bound < math.inf:
            raise ExperimentError(
                f"theta0 bound must be nonnegative and finite, got {theta0_bound}")
        self.theta0_bound = theta0_bound
        self.reference = FamilyMember(id=REF_ID, kind=MARKOV, payload=theta_star)
        self._thetas = np.array([m.payload.theta for m in prior.members])
        # every atom's stationary (kl, v, h_q), one row per prior member
        self._kvh = np.array(stationary_divergences(theta_star.theta, self._thetas))
        self._kvh.flags.writeable = False

    def sample(self, n: int, rng: np.random.Generator) -> MarkovSample:
        y0 = float(self.stationary_sd * rng.standard_normal())
        t = self.theta_star.theta
        # in Python floats, not numpy scalars: each step is the same multiply
        # then add, so the chain is the same bits at half the cost
        y, prev = [], y0
        for step in (self.noise_sd * rng.standard_normal(n)).tolist():
            prev = t * prev + step
            y.append(prev)
        return MarkovSample(y0=y0, y=np.array(y))

    def _prev_chain(self, sample: MarkovSample) -> np.ndarray:
        return np.concatenate(([sample.y0], sample.y[:-1]))

    def log_ratios(self, samples) -> np.ndarray:
        """(reps, atoms, n): each atom's transition log density less the
        truth's, given the realized previous state."""
        y = np.stack([s.y for s in samples])
        prev = np.stack([self._prev_chain(s) for s in samples])
        sd, log_sd = self.noise_sd, math.log(self.noise_sd)
        z = y[:, None, :] - self._thetas[:, None] * prev[:, None, :]
        z /= sd
        out = _normal_log(z, log_sd)
        out -= _normal_log((y - self.theta_star.theta * prev) / sd, log_sd)[:, None, :]
        return out

    def atom_kv(self, n: int | None = None) -> np.ndarray:
        return self._kvh[:, :2]

    def truth_dist(self, member_id: int, n: int | None = None) -> float:
        """Stationary-averaged per-state Hellinger distance."""
        return float(self._kvh[self.prior.index_of(member_id), 2])

    def _h2(self, id_a: int, id_b: int, n: int | None = None) -> np.ndarray:
        """Squared Hellinger distances between the transitions from each swept state.

        The per-state distance grows with |y|, and np.linspace ends exactly
        at the window, so the max over the sweep is the window edge's value.
        """
        states = np.linspace(0.0, self.state_window, SWEEP_POINTS)
        d = (self._row_of(self._thetas, self.theta_star.theta, id_a)
             - self._row_of(self._thetas, self.theta_star.theta, id_b))
        return gaussian_shift_kvh(d ** 2 * states * states / self.noise_sd**2)[2]

    def cesaro_kls(self, samples, weights_before: np.ndarray) -> np.ndarray:
        """(reps, n): the block's replications side by side as the columns."""
        prev = np.stack([self._prev_chain(s) for s in samples])
        deltas = np.multiply.outer(self._thetas - self.theta_star.theta, prev)
        deltas /= self.noise_sd
        return _z_integrals(deltas, weights_before.transpose(1, 0, 2)[None])[0]


# ---------------------------------------------------------------------------
# engine


def generate_data(regime, n: int, seed: int):
    """Deterministic draw: same regime, n, and seed give bitwise-equal data."""
    return regime.sample(n, np.random.default_rng(seed))


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
            if np.isnan(arr).any():
                raise ExperimentError(f"statistic {key} has NaN entries")
        for key in ("posterior_mass", "u_mass"):
            if key in self.stats:
                m = self.stats[key]
                if (m < -1e-12).any() or (m > 1.0 + 1e-12).any():
                    raise ExperimentError(f"{key} outside [0, 1]")
        if "sqrt_l" in self.stats and (self.stats["sqrt_l"] < 0.0).any():
            raise ExperimentError("sqrt_l must be nonnegative")


def _subset_rows(prior: AtomicPrior, member_ids) -> list[int]:
    return [prior.index_of(i) for i in sorted(set(member_ids))]


def replicate_block(plan: ExperimentPlan, rep_ids: Sequence[int]) -> list[ReplicationRecord]:
    """Run a block of seeded replications in one array pass.

    Each replication draws from its own generator, seeded plan.seed + r.
    The block's (reps, atoms, n + 1) matrix

        cum[r, j, i] = log prior_j + sum_{k<=i} (loglik_j - ref) at observation k

    is reduced over its atom axis with each replication's sums laid out as
    they would be for it alone, so a record is the same in any block.
    """
    regime = plan.regime
    rows = partial(_subset_rows, regime.prior)
    n_values = plan.schedule.n_values
    n_max = n_values[-1]
    idx = np.asarray(n_values)
    samples = [regime.sample(n_max, np.random.default_rng(plan.seed + r)) for r in rep_ids]
    cum = np.empty((len(samples), len(regime.prior.weights), n_max + 1))
    cum[:, :, 0] = np.log(regime.prior.weights)
    np.cumsum(regime.log_ratios(samples), axis=2, out=cum[:, :, 1:])
    cum[:, :, 1:] += cum[:, :, :1]
    stats: dict[str, np.ndarray] = {}

    if set(plan.collect) - {"sqrt_l"}:
        weights, log_evidence = softmax_and_logsumexp(cum, axis=1)
    if "log_evidence" in plan.collect:
        stats["log_evidence"] = log_evidence[:, idx]
    if "sqrt_l" in plan.collect:
        log_l = logsumexp(cum[:, rows(plan.subset_ids)], axis=1)
        stats["sqrt_l"] = np.exp(0.5 * log_l[:, idx])
    del cum  # freed before the Cesaro kernel takes its buffers
    if "posterior_mass" in plan.collect:
        masses = [weights[:, rows(ids), n].sum(axis=1) for n, ids in zip(n_values, plan.b_sets)]
        stats["posterior_mass"] = np.clip(np.stack(masses, axis=1), 0.0, 1.0)
    if "u_mass" in plan.collect:
        vals = weights[:, :, idx][:, rows(plan.u_set)].sum(axis=1)
        stats["u_mass"] = np.clip(vals, 0.0, 1.0)
    if "cesaro_kl" in plan.collect:
        # each column's weights are its own, so the pre-update columns are a slice
        kls = regime.cesaro_kls(samples, weights[:, :, :-1])
        running = np.cumsum(kls, axis=1) / np.arange(1, n_max + 1)
        vals = running[:, idx - 1]
        if regime.well_specified and np.any(vals < -1e-9):
            raise ExperimentError("negative Cesaro statistic in a well-specified run")
        stats["cesaro_kl"] = vals

    return [ReplicationRecord(rep_id=r, n_values=n_values,
                              stats={key: vals[b] for key, vals in stats.items()})
            for b, r in enumerate(rep_ids)]


def replicate(plan: ExperimentPlan, rep_id: int) -> ReplicationRecord:
    """Run one seeded replication and read statistics at the schedule points."""
    return replicate_block(plan, (rep_id,))[0]


def _adopt_fp_errors(settings: dict) -> None:
    """Pool initializer: a worker thread treats floating-point errors as its
    caller does.  A new thread starts from numpy's defaults, where an overflow
    or a division by zero only warns."""
    np.seterr(**settings)


def run_replications(plan: ExperimentPlan, jobs: int = 1) -> list[ReplicationRecord]:
    """All replications, one block per task, on ``jobs`` threads that share the
    plan; records come back sorted by id.

    The calling thread is one of the ``jobs``: it runs blocks 0, jobs,
    2 jobs, ... while a pool of jobs - 1 threads runs the rest, so no thread
    waits idle and one fewer grows a malloc arena of its own.
    """
    ids = range(plan.replications)
    blocks = [ids[s:s + REPLICATION_BLOCK] for s in range(0, len(ids), REPLICATION_BLOCK)]
    task = partial(replicate_block, plan)
    if jobs <= 1:
        spans = map(task, blocks)
    else:
        # imported here: only a pool run pays for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs - 1, initializer=_adopt_fp_errors,
                                initargs=(np.geterr(),)) as pool:
            futures = [pool.submit(task, b) for i, b in enumerate(blocks) if i % jobs]
            try:
                spans = [task(b) for b in blocks[::jobs]]
            except BaseException:
                pool.shutdown(cancel_futures=True)  # the pool's queued blocks go unrun
                raise
            spans += [future.result() for future in futures]
    records = [record for span in spans for record in span]
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
    """np.percentile(stat_matrix(records, key), 100 q, axis=0), bit for bit.

    Its linear rule written out, since np.percentile imports numpy.ma
    (12 ms per process): between two sorted rows, or on the last one, with
    the lerp run from the far end in the upper half of the step.
    """
    m = np.sort(stat_matrix(records, key), axis=0)
    at = (len(m) - 1) * (100.0 * q / 100.0)
    lo = -1 if at >= len(m) - 1 else math.floor(at)
    hi = -1 if lo == -1 else lo + 1
    t = at - lo
    diff = m[hi] - m[lo]
    return m[hi] - diff * (1 - t) if t >= 0.5 else m[lo] + diff * t


# ---------------------------------------------------------------------------
# thickness wiring


def thickness_records(regime, schedule: RateSchedule) -> list[ThicknessRecord]:
    """Regime-appropriate thickness profile along the schedule."""
    mask = regime.theta0_mask()
    return [thickness_profile(regime.prior, n, schedule.epsilon(n), regime.atom_kv(n), mask)
            for n in schedule.n_values]


def fitted_thickness_constant(records: Sequence[ThicknessRecord]) -> float:
    return max(r.implied_c for r in records)


# ---------------------------------------------------------------------------
# subset certification


@dataclass(frozen=True, eq=False)
class SubsetCertificate:
    vertex: SeparationReport
    hull_gap_bound: float


def certify_subset(regime, member_ids, delta: float, n: int) -> SubsetCertificate:
    """Machine-check the numerator bound's preconditions for one subset.

    Refuses (raises) unless, under misspecification, every vertex ratio
    certificate is at most one, the vertices clear delta, and the convex
    hull clears delta by the triangle certificate.  The last step proves
    the hull's separation.  W^2, the squared weighted Hellinger distance to
    a fixed centre, is convex in the mixture weights, so the hull lies in
    the ball around the certificate's centre whose radius is its farthest
    vertex; the starred gap is (W^2(f_circ, g) + 1 - cert(g)) / 2 with cert
    linear in g, so once every vertex has cert <= 1 it is at least
    W^2(f_circ, g) / 2 on the whole hull, which the triangle inequality
    bounds below.  The same holds per design index or per state.
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

    vertex = separation_report(regime.separation_gaps(ids, n), delta)
    if not vertex.separated:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: vertex separation failed "
            f"(min gap {vertex.min_gap:.6g} <= delta {delta:.6g})"
        )

    hull, _ = regime.hull_gap_bound(ids, n)
    if hull <= delta:
        raise SubsetNotAdmissibleError(
            f"subset not admissible: convex-hull separation not certified "
            f"(triangle bound {hull:.6g} <= delta {delta:.6g})"
        )
    return SubsetCertificate(vertex=vertex, hull_gap_bound=hull)


def certify_schedule(regime, member_ids, d: float, schedule: RateSchedule):
    """(n, delta, certificate or refusal) at each schedule point, delta = d * eps_n^2.

    A refusal is the ``SubsetNotAdmissibleError`` the point raised.
    """
    for n in schedule.n_values:
        delta = d * schedule.epsilon(n) ** 2
        try:
            cert = certify_subset(regime, member_ids, delta, n)
        except SubsetNotAdmissibleError as e:
            cert = e
        yield n, delta, cert


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


def certify_numerator(plan: ExperimentPlan, implied: float) -> None:
    """The numerator bound's preconditions, given the implied thickness C.

    Refuses unless the prior is thick, d > implied C + 1, and the subset
    certifies at every schedule point.
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
    for _, _, cert in certify_schedule(plan.regime, plan.subset_ids, d, plan.schedule):
        if isinstance(cert, SubsetNotAdmissibleError):
            raise cert


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


def verify_numerator_bound(plan: ExperimentPlan, jobs: int = 1) -> NumeratorBoundReport:
    """Monte Carlo check of mean sqrt(restricted numerator) against its bound."""
    implied = fitted_thickness_constant(thickness_records(plan.regime, plan.schedule))
    certify_numerator(plan, implied)
    records = run_replications(plan.collecting(("sqrt_l",)), jobs=jobs)
    return numerator_report(plan, records, implied)


@dataclass(frozen=True, eq=False)
class EvidenceBoundReport:
    n_values: tuple[int, ...]
    thresholds: np.ndarray
    fractions: np.ndarray
    trend_slope: float


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x, np.polyfit(x, y, 1)[0] to rounding.

    In closed form, x centred on its mean, so no fit calls LAPACK.  y is
    measured from its first value rather than its mean, which can round off
    equal values: a constant y gives exactly 0.0, and + 0.0 turns -0.0 into
    0.0.
    """
    dx = x - x.mean()
    sxx = float((dx * dx).sum())
    if not sxx > 0.0:
        raise ExperimentError("a slope needs at least two distinct x values")
    return float((dx * (y - y[0])).sum()) / sxx + 0.0


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
    slope = _slope(ns, fractions) if len(ns) >= 2 else 0.0
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
    slope = _slope(np.log(ns[keep]), np.log(vals[keep]))
    fitted_constant = math.nan
    if epsilons is not None:
        eps = np.asarray(epsilons, dtype=float)
        if eps.shape != ns.shape:
            raise ExperimentError("epsilons must align with n_values")
        fitted_constant = float(np.max(vals[keep] / eps[keep] ** 2))
    return RateFit(slope=slope, fitted_constant=fitted_constant)
