"""Model families, priors over them, and likelihood evaluation.

A family member is an atom a prior can sit on.  Three kinds are supported:

* ``iid-density``: a GridDensity; observations are iid draws from it.
* ``regression-function``: a mean function evaluated at fixed design points;
  observation i is Gaussian with that mean and unit-scale noise.
* ``markov-param``: an AR(1) coefficient with Gaussian innovations of sd
  ``noise_sd`` (1 by default); the chain starts from its stationary law.

Likelihoods for iid members interpolate the log density linearly between
grid nodes; extrapolation outside the grid is an error, never a guess.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergences import (
    Grid,
    GridDensity,
    NonstationaryError,
    ar1_stationary_sd,
    gaussian_density,
    kl,
)

IID = "iid-density"
REGRESSION = "regression-function"
MARKOV = "markov-param"
KINDS = (IID, REGRESSION, MARKOV)

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class ModelError(ValueError):
    """Invalid family, prior, or likelihood request."""


@dataclass(frozen=True)
class RegressionFunction:
    """Mean function materialized at the design points."""

    values_at_design: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values_at_design) < 1:
            raise ModelError("regression function needs at least one design value")

    def __len__(self) -> int:
        return len(self.values_at_design)


def design_points(n: int) -> np.ndarray:
    """Default equally spaced design x_i = i/n for i = 1..n."""
    if n < 1:
        raise ModelError(f"design needs n >= 1, got {n}")
    return np.arange(1, n + 1) / n


def linear_regression_function(slope: float, n: int) -> RegressionFunction:
    return RegressionFunction(tuple(slope * design_points(n)))


@dataclass(frozen=True)
class MarkovParam:
    """AR(1) coefficient; innovations are Gaussian with sd ``noise_sd``."""

    theta: float
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        if not abs(self.theta) < 1.0:
            raise NonstationaryError(f"coefficient {self.theta} has no stationary density")
        if not self.noise_sd > 0.0:
            raise ModelError(f"noise sd must be positive, got {self.noise_sd}")

    @property
    def stationary_sd(self) -> float:
        return ar1_stationary_sd(self.theta, self.noise_sd)


Payload = GridDensity | RegressionFunction | MarkovParam

_PAYLOAD_TYPES = {IID: GridDensity, REGRESSION: RegressionFunction, MARKOV: MarkovParam}


@dataclass(frozen=True)
class FamilyMember:
    id: int
    kind: str
    payload: Payload

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ModelError(f"unknown member kind {self.kind!r}")
        if not isinstance(self.payload, _PAYLOAD_TYPES[self.kind]):
            raise ModelError(
                f"member kind {self.kind!r} expects {_PAYLOAD_TYPES[self.kind].__name__}, "
                f"got {type(self.payload).__name__}"
            )

    @property
    def density(self) -> GridDensity:
        if self.kind != IID:
            raise ModelError(f"member {self.id} is {self.kind}, not a density")
        return self.payload  # type: ignore[return-value]


def build_gaussian_location_family(
    grid: Grid, means: Sequence[float], sd: float = 1.0
) -> list[FamilyMember]:
    """Unit-kind family of Gaussian location densities on a shared grid.

    A mean whose 6-sd bulk leaves the grid is rejected: the grid would clip
    the density and silently renormalize the overflow back in.
    """
    if not sd > 0.0:
        raise ModelError(f"sd must be positive, got {sd}")
    members = []
    for j, m in enumerate(means):
        if m - 6.0 * sd < grid.lower or m + 6.0 * sd > grid.upper:
            raise ModelError(
                f"grid clips density: mean {m} with sd {sd} needs "
                f"[{m - 6 * sd}, {m + 6 * sd}] inside [{grid.lower}, {grid.upper}]"
            )
        members.append(FamilyMember(j, IID, gaussian_density(grid, float(m), sd)))
    return members


@dataclass(frozen=True, eq=False)
class AtomicPrior:
    """Finitely supported prior over one family kind.

    Weights are validated positive and renormalized to sum to one exactly.
    """

    members: tuple[FamilyMember, ...]
    weights: np.ndarray

    def __init__(self, members: Sequence[FamilyMember], weights: Sequence[float]) -> None:
        members = tuple(members)
        if not members:
            raise ModelError("prior needs at least one member")
        kinds = {m.kind for m in members}
        if len(kinds) != 1:
            raise ModelError(f"prior mixes member kinds {sorted(kinds)}")
        ids = [m.id for m in members]
        if len(set(ids)) != len(ids):
            raise ModelError("member ids must be unique")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(members),):
            raise ModelError(f"{len(members)} members but {w.shape} weights")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ModelError("prior weights must be positive and finite")
        w = w / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", w)

    @property
    def kind(self) -> str:
        return self.members[0].kind

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, member_id: int) -> int:
        for i, m in enumerate(self.members):
            if m.id == member_id:
                return i
        raise ModelError(f"no member with id {member_id}")

    def mass_of(self, member_ids: Sequence[int]) -> float:
        idx = [self.index_of(i) for i in set(member_ids)]
        return float(self.weights[idx].sum())


def uniform_prior(members: Sequence[FamilyMember]) -> AtomicPrior:
    return AtomicPrior(members, np.full(len(members), 1.0 / len(members)))


@dataclass(frozen=True)
class MisspecifiedSetup:
    """A prior, a truth outside its support, and the in-family kl projection."""

    prior: AtomicPrior
    true_density: GridDensity
    projection_id: int

    def __post_init__(self) -> None:
        if self.prior.kind != IID:
            raise ModelError("misspecified setups are defined for iid-density families")
        proj = self.prior.members[self.prior.index_of(self.projection_id)]
        k_proj = kl(self.true_density, proj.density)
        for m in self.prior.members:
            if kl(self.true_density, m.density) < k_proj - 1e-9:
                raise ModelError(
                    f"member {m.id} beats declared projection {self.projection_id} in kl"
                )


def log_likelihood(
    member: FamilyMember,
    y: float,
    index_i: int | None = None,
    y_prev: float | None = None,
) -> float:
    """Log likelihood of one observation under one member.

    iid: log density at y (log-linear interpolation between nodes).
    regression: Gaussian at the design-point mean; needs 1-based index_i.
    markov: transition from y_prev, or the stationary law when y_prev is None.
    """
    if member.kind == IID:
        return float(member.density.log_interp(y))
    if member.kind == REGRESSION:
        fn: RegressionFunction = member.payload  # type: ignore[assignment]
        if index_i is None or not 1 <= index_i <= len(fn):
            raise ModelError(
                f"regression likelihood needs index_i in 1..{len(fn)}, got {index_i}"
            )
        mean = fn.values_at_design[index_i - 1]
        z = y - mean
        return -0.5 * z * z - LOG_SQRT_2PI
    param: MarkovParam = member.payload  # type: ignore[assignment]
    if y_prev is None:
        sd = param.stationary_sd
        z = y / sd
        return -0.5 * z * z - LOG_SQRT_2PI - math.log(sd)
    z = (y - param.theta * y_prev) / param.noise_sd
    return -0.5 * z * z - LOG_SQRT_2PI - math.log(param.noise_sd)

