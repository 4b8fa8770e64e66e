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
        if not all(math.isfinite(v) for v in self.values_at_design):
            raise ModelError("regression function values must be finite")

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
        if not 0.0 < self.noise_sd < math.inf:
            raise ModelError(f"noise sd must be positive and finite, got {self.noise_sd}")

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


def location_faults(grid: Grid, means: Sequence[float] | None, sd: float | None,
                    truth_mean: float | None = None, truth_sd: float | None = None,
                    projection_id: int | None = None) -> list[tuple[str, str]]:
    """(config key, complaint) pairs: each density's 6-sd bulk must lie on
    ``grid``, which would clip it.  Each sd must span 2 grid spacings: the grid
    kl(N(0, sd), N(0, 1)) is off by 1.1e-2 relative at half a spacing, 2.2e-8 at
    one and 2.1e-16 at 1.5.  The projection (an index of ``means``) must be an
    atom nearest the truth's mean: the atoms share one sd, so their kl from the
    truth differ only in the squared mean gap, whatever the truth's sd.  Under
    it, each atom's weighted integrand f_star f / f_circ is the truth's normal
    tilted to mean truth.mean + truth.sd^2 (means[i] - means[projection]) /
    family.sd^2, and its 6-sd bulk must lie on the grid too; the weighted
    Hellinger cross terms tilt to midpoints of these means, so they stay inside
    as well.  A value that is None (a config key already refused) is unchecked."""
    finest = 2.0 * grid.spacing
    faults = [(key, f"{key} = {s} is below 2 grid spacings, {finest}") for key, s in
              (("family.sd", sd), ("truth.sd", truth_sd)) if s is not None and not s >= finest]
    def off_grid(key: str, what: str, centre: float, s: float) -> None:
        lo, hi = centre - 6.0 * s, centre + 6.0 * s
        if not grid.lower <= lo <= hi <= grid.upper:
            faults.append((key, f"{what} needs [{lo}, {hi}] inside the grid "
                                f"[{grid.lower}, {grid.upper}]"))
    for i, m in enumerate(means if sd is not None and means is not None else ()):
        off_grid("family.means", f"family.means[{i}] = {m} with family.sd = {sd}", m, sd)
    if truth_mean is not None and truth_sd is not None:
        off_grid("truth.mean", f"truth.mean = {truth_mean} with truth.sd = {truth_sd}",
                 truth_mean, truth_sd)
    if None in (projection_id, sd, truth_mean) or means is None or not sd > 0:  # no kl at sd 0
        return faults
    gaps = [(m - truth_mean) ** 2 / (2.0 * sd * sd) for m in means]
    best = gaps.index(min(gaps))
    if gaps[best] < gaps[projection_id] - 1e-9:
        faults.append(("truth.projection_id", f"truth.projection_id = {projection_id} is not "
                       f"the kl projection: family.means[{best}] = {means[best]} is nearer "
                       f"truth.mean = {truth_mean}"))
    # the tilts of a refused projection or sd would only restate that refusal
    elif min(sd, truth_sd or 0.0) >= finest:
        for i, m in enumerate(means):
            tilt = truth_mean + truth_sd * truth_sd * (m - means[projection_id]) / (sd * sd)
            off_grid("family.means", f"family.means[{i}] = {m} tilts f_star f / f_circ to mean "
                                     f"{tilt} with truth.sd = {truth_sd}, which", tilt, truth_sd)
    return faults


def _refuse(faults: list[tuple[str, str]]) -> None:
    if faults:
        raise ModelError("grid clips density, undersamples it or misses the kl projection: "
                         + "; ".join(text for _, text in faults))


def build_gaussian_location_family(
    grid: Grid, means: Sequence[float], sd: float = 1.0
) -> list[FamilyMember]:
    """Unit-kind family of Gaussian location densities on a shared grid.

    Raises on its ``location_faults``: a mean whose 6-sd bulk leaves the grid,
    which would clip the density, or an sd under 2 grid spacings.
    """
    _refuse(location_faults(grid, means, sd))
    return [FamilyMember(j, IID, gaussian_density(grid, float(m), sd))
            for j, m in enumerate(means)]


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
        if check_location(self.prior, self.true_density, self.projection_id):
            return
        # densities with no recorded Gaussian parameters: the projection by grid kl
        proj = self.prior.members[self.prior.index_of(self.projection_id)]
        k_proj = kl(self.true_density, proj.density)
        for m in self.prior.members:
            if kl(self.true_density, m.density) < k_proj - 1e-9:
                raise ModelError(
                    f"member {m.id} beats declared projection {self.projection_id} in kl"
                )


def check_location(prior: AtomicPrior, true_density: GridDensity,
                   projection_id: int | None = None) -> bool:
    """Raise on the ``location_faults`` of a prior and truth whose densities all
    record their Gaussian (mean, sd) on one grid, the atoms sharing one sd, and
    return True; leave any other setup unchecked (False)."""
    dens = [m.density for m in prior.members]
    records, grid = [f.gaussian for f in dens], true_density.grid
    if (true_density.gaussian is None or None in records or any(f.grid != grid for f in dens)
            or len({sd for _, sd in records}) > 1):
        return False
    index = None if projection_id is None else prior.index_of(projection_id)
    _refuse(location_faults(grid, [m for m, _ in records], records[0][1],
                            *true_density.gaussian, index))
    return True


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

