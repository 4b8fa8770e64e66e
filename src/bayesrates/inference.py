"""Sequential posterior updating and predictive densities over atomic priors.

The state tracks one unnormalized log weight per atom in likelihood-ratio
form: after i observations

    log_weights[j] = log pi_j + sum_{k<=i} [log f_j(Y_k | past) - log ref(Y_k | past)]

where ``ref`` is the reference member whose conditional densities divide the
running products.  With that convention ``logsumexp(log_weights)`` is the log
integrated likelihood ratio, and the restricted sum over a subset of atoms is
the restricted numerator path.  Normalized posterior weights do not depend on
the reference at all.

Observation contexts are tracked implicitly: the i-th update call uses design
index i for regression members, and the previous observation (none for the
first) as the conditioning state for Markov members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .divergences import (
    Grid,
    GridDensity,
    default_grid,
    gaussian_density,
    h_affinity_gap,
)
from .models import IID, MARKOV, REGRESSION, AtomicPrior, FamilyMember, log_likelihood
from .numerics import logsumexp


class InferenceError(ValueError):
    """Invalid posterior, subset, or predictive request."""


class RestrictedPosteriorUndefinedError(InferenceError):
    """The restricted posterior has no usable mass."""


@dataclass(frozen=True, eq=False)
class PosteriorState:
    prior: AtomicPrior
    reference: FamilyMember
    log_weights: np.ndarray
    n_observed: int
    last_observation: float | None

    @property
    def kind(self) -> str:
        return self.prior.kind


def initial_state(
    prior: AtomicPrior,
    reference: FamilyMember | None = None,
    y0: float | None = None,
) -> PosteriorState:
    """Fresh state at the prior.  ``reference`` defaults to the first member.

    ``y0`` is an observed starting state for Markov families: with it set,
    every likelihood term is a transition density; without it the first
    observation is scored by the stationary law.
    """
    if reference is None:
        reference = prior.members[0]
    if reference.kind != prior.kind:
        raise InferenceError(
            f"reference kind {reference.kind!r} does not match prior kind {prior.kind!r}"
        )
    if y0 is not None and prior.kind != MARKOV:
        raise InferenceError(f"a starting state makes no sense for {prior.kind!r}")
    return PosteriorState(
        prior=prior,
        reference=reference,
        log_weights=np.log(prior.weights),
        n_observed=0,
        last_observation=None if y0 is None else float(y0),
    )


def _context(state: PosteriorState) -> dict:
    """Likelihood context for the next observation."""
    if state.kind == REGRESSION:
        return {"index_i": state.n_observed + 1}
    if state.kind == MARKOV:
        return {"y_prev": state.last_observation}
    return {}


def update(state: PosteriorState, y: float) -> PosteriorState:
    """Absorb one observation; returns a new state."""
    ctx = _context(state)
    loglik = np.array([log_likelihood(m, y, **ctx) for m in state.prior.members])
    ref_ll = log_likelihood(state.reference, y, **ctx)
    return PosteriorState(
        prior=state.prior,
        reference=state.reference,
        log_weights=state.log_weights + (loglik - ref_ll),
        n_observed=state.n_observed + 1,
        last_observation=float(y),
    )


def _subset_indices(prior: AtomicPrior, member_ids: Iterable[int]) -> list[int]:
    ids = sorted(set(member_ids))
    if not ids:
        raise RestrictedPosteriorUndefinedError("restricted posterior undefined: empty subset")
    return [prior.index_of(i) for i in ids]


def _member_value_rows(
    state: PosteriorState, grid: Grid, idx: Sequence[int]
) -> np.ndarray:
    """Next-observation conditional density of each selected member, on ``grid``."""
    members = [state.prior.members[i] for i in idx]
    if state.kind == IID:
        for m in members:
            if m.density.grid != grid:
                raise InferenceError("iid predictive must use the members' grid")
        return np.stack([m.density.values for m in members])
    if state.kind == REGRESSION:
        i = state.n_observed + 1
        means = []
        for m in members:
            fn = m.payload
            if i > len(fn):
                raise InferenceError(f"design exhausted: no index {i}")
            means.append(fn.values_at_design[i - 1])
        z = (grid.x[None, :] - np.asarray(means)[:, None])
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    y_prev = state.last_observation
    rows = []
    for m in members:
        param = m.payload
        if y_prev is None:
            rows.append(gaussian_density(grid, 0.0, param.stationary_sd).values)
        else:
            z = (grid.x - param.theta * y_prev) / param.noise_sd
            rows.append(np.exp(-0.5 * z * z) / (param.noise_sd * math.sqrt(2.0 * math.pi)))
    return np.stack(rows)


def predictive_density(
    state: PosteriorState,
    member_ids: Iterable[int] | None = None,
    grid: Grid | None = None,
) -> GridDensity:
    """Posterior predictive for the next observation, materialized on a grid.

    ``member_ids`` restricts (and renormalizes) to a subset of atoms.
    """
    if member_ids is None:
        idx = list(range(len(state.prior)))
    else:
        idx = _subset_indices(state.prior, member_ids)
    if grid is None:
        grid = state.prior.members[0].density.grid if state.kind == IID else default_grid()
    logw = state.log_weights[idx]
    w = np.exp(logw - logsumexp(logw))
    rows = _member_value_rows(state, grid, idx)
    return GridDensity(grid, w @ rows)


def predictive_logpdf(
    state: PosteriorState, y: float, member_ids: Iterable[int] | None = None
) -> float:
    """Log predictive density at y, using the same likelihood path as update."""
    if member_ids is None:
        idx = list(range(len(state.prior)))
    else:
        idx = _subset_indices(state.prior, member_ids)
    ctx = _context(state)
    logw = state.log_weights[idx]
    loglik = np.array(
        [log_likelihood(state.prior.members[i], y, **ctx) for i in idx]
    )
    return float(logsumexp(logw + loglik) - logsumexp(logw))


@dataclass(frozen=True)
class FactorizationReport:
    log_joint_direct: float
    log_joint_factored: float

    @property
    def abs_diff(self) -> float:
        return abs(self.log_joint_direct - self.log_joint_factored)


def factorization_check(
    prior: AtomicPrior,
    data: Sequence[float],
    reference: FamilyMember | None = None,
    y0: float | None = None,
) -> FactorizationReport:
    """Two routes to the log joint marginal density of the data.

    Direct: logsumexp over atoms of log prior weight plus total log likelihood.
    Factored: the sum of successive log predictive values.  The two agree
    identically; the report records the achieved float discrepancy.
    """
    state = initial_state(prior, reference, y0=y0)
    totals = np.log(prior.weights).copy()
    factored = 0.0
    for y in data:
        ctx = _context(state)
        loglik = np.array([log_likelihood(m, y, **ctx) for m in prior.members])
        factored += predictive_logpdf(state, y)
        totals += loglik
        state = update(state, y)
    direct = float(logsumexp(totals))
    return FactorizationReport(log_joint_direct=direct, log_joint_factored=factored)


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)


def conditional_sqrt_ratio_identity(
    state: PosteriorState, member_ids: Iterable[int] | None = None
) -> IdentityReport:
    """One-step conditional expectation of the root likelihood ratio.

    f_star is the reference member's next-observation conditional density.
    lhs integrates sqrt(predictive/f_star) against f_star through the
    log-ratio route; rhs is one minus the affinity gap between f_star and the
    restricted predictive.  The two are the same integral computed through
    different code paths and must agree to float accuracy.
    """
    pred = predictive_density(state, member_ids=member_ids)
    f_star = _reference_conditional_density(state, pred.grid)
    half = np.exp(0.5 * (pred.log_values - f_star.log_values))
    lhs = float((pred.grid.quad_weights * f_star.values) @ half)
    rhs = 1.0 - h_affinity_gap(f_star, pred)
    return IdentityReport(lhs=lhs, rhs=rhs)


def _reference_conditional_density(state: PosteriorState, grid: Grid) -> GridDensity:
    """The reference member's next-observation conditional density."""
    ref = state.reference
    if ref.kind == IID:
        return ref.density
    one_member_prior = AtomicPrior([ref], [1.0])
    proxy = PosteriorState(
        prior=one_member_prior,
        reference=ref,
        log_weights=np.zeros(1),
        n_observed=state.n_observed,
        last_observation=state.last_observation,
    )
    return predictive_density(proxy, grid=grid)

