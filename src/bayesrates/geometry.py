"""Prior thickness, separation and convexity checks, greedy covers, sieves.

Everything here is metric-agnostic: operations take per-atom divergence
values or distance callables, never a regime tag.  The regime-specific
wiring (which divergence plays K, V, or the covering metric) lives with the
experiment drivers.

Rate schedules follow the usual envelope eps_n = a * n^(-gamma) * (log n)^kappa
and are validated so that eps_n decreases while n * eps_n^2 grows over the
sample sizes actually used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .models import AtomicPrior


class GeometryError(ValueError):
    """Invalid schedule, constants, cover, or sieve request."""


# ---------------------------------------------------------------------------
# rate schedules and verification constants


@dataclass(frozen=True)
class RateSchedule:
    """Target rate eps_n = a * n^(-gamma) * (log n)^kappa over fixed sample sizes."""

    n_values: tuple[int, ...]
    a: float = 1.0
    gamma: float = 1.0 / 3.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if len(self.n_values) == 0:
            raise GeometryError("schedule needs at least one sample size")
        ns = list(self.n_values)
        if any(int(n) != n or n < 1 for n in ns):
            raise GeometryError("sample sizes must be positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise GeometryError("sample sizes must be strictly increasing")
        if self.a <= 0.0:
            raise GeometryError(f"amplitude a must be positive, got {self.a}")
        object.__setattr__(self, "n_values", tuple(int(n) for n in ns))
        eps = self.epsilons
        if np.any(np.diff(eps) >= 0.0):
            raise GeometryError("epsilon must decrease over the schedule")
        neps2 = np.asarray(self.n_values) * eps * eps
        if np.any(np.diff(neps2) <= 0.0):
            raise GeometryError("n * epsilon^2 must increase over the schedule")

    def epsilon(self, n: int) -> float:
        return self.a * n ** (-self.gamma) * math.log(n) ** self.kappa

    @cached_property
    def epsilons(self) -> np.ndarray:
        return np.array([self.epsilon(n) for n in self.n_values])


@dataclass(frozen=True)
class ConditionParams:
    """Constants used by the bound verifications.

    ``C`` is the thickness constant; ``c``, ``d``, ``r`` drive the evidence,
    numerator, and sieve bounds and must clear C + 1 at the point where a
    bound is actually checked; ``beta`` > 1 shapes the mass-root sums; ``M``
    scales the covering radius and the posterior far set.
    """

    C: float
    c: float | None = None
    d: float | None = None
    r: float | None = None
    beta: float | None = None
    M: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.C) and self.C >= 0.0):
            raise GeometryError(f"thickness constant C must be finite and >= 0, got {self.C}")
        for name in ("c", "d", "r", "M"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise GeometryError(f"constant {name} must be positive, got {v}")
        if self.beta is not None and not self.beta > 1.0:
            raise GeometryError(
                f"mass-root exponent beta must exceed 1, got {self.beta}"
            )


# ---------------------------------------------------------------------------
# thickness


@dataclass(frozen=True)
class ThicknessRecord:
    n: int
    epsilon: float
    neighborhood_mass: float
    implied_c: float


def thickness_profile(
    prior: AtomicPrior,
    schedule: RateSchedule,
    kv: np.ndarray,
    extra_mask: np.ndarray | None = None,
) -> list[ThicknessRecord]:
    """Prior mass of {K <= eps_n^2, V <= eps_n^2} along the schedule.

    ``kv`` holds one (K, V) row per atom, in prior order.  ``extra_mask``
    intersects an additional per-atom restriction (all True when omitted).
    implied_c is -log(mass) / (n eps_n^2), +inf when the neighborhood is
    empty; an empty neighborhood is a report, not an error.
    """
    kv = np.asarray(kv, dtype=float)
    if kv.shape != (len(prior), 2):
        raise GeometryError(f"kv must be ({len(prior)}, 2), got {kv.shape}")
    if np.any(kv < 0.0) or not np.all(np.isfinite(kv)):
        raise GeometryError("divergence pairs must be finite and nonnegative")
    if extra_mask is None:
        extra_mask = np.ones(len(prior), dtype=bool)
    extra_mask = np.asarray(extra_mask, dtype=bool)
    if extra_mask.shape != (len(prior),):
        raise GeometryError("extra_mask must have one entry per atom")
    records = []
    for n in schedule.n_values:
        eps = schedule.epsilon(n)
        bound = eps * eps
        inside = (kv[:, 0] <= bound) & (kv[:, 1] <= bound) & extra_mask
        mass = float(prior.weights[inside].sum())
        implied = math.inf if mass == 0.0 else -math.log(mass) / (n * bound)
        records.append(
            ThicknessRecord(n=n, epsilon=eps, neighborhood_mass=mass, implied_c=implied)
        )
    return records


# ---------------------------------------------------------------------------
# separation and convexity


@dataclass(frozen=True)
class SeparationReport:
    min_gap: float
    separated: bool


def separation_report(gaps: Sequence[float], delta: float) -> SeparationReport:
    """Separation holds when every affinity-gap value strictly exceeds delta."""
    g = np.asarray(gaps, dtype=float)
    if g.size == 0:
        raise GeometryError("separation needs a nonempty subset")
    min_gap = float(g.min())
    return SeparationReport(min_gap=min_gap, separated=min_gap > delta)


# a mixture may stick out of a ball by this much, rounding, and still count as inside
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    worst_violation: float


def mixture_closure_report(
    gaps_of_weights: Callable[[np.ndarray], np.ndarray],
    n_members: int,
    draws: int,
    rng: np.random.Generator,
) -> ClosureReport:
    """Random-mixture check that a ball is closed under convex combination.

    ``gaps_of_weights`` maps a (draws, n_members) matrix, one probability
    vector over the ball's members per row, to how far each row's mixture
    lies outside the ball: its metric value from the ball's center minus
    the ball's radius.  The rows are drawn flat Dirichlet in one call, which
    gives the same rows as one call per draw.  A singleton ball is checked
    once with weight 1.
    """
    if n_members < 1:
        raise GeometryError("closure check needs at least one member")
    if n_members == 1:
        weights = np.ones((1, 1))
    else:
        weights = rng.dirichlet(np.ones(n_members), size=draws)
    worst = max(0.0, float(np.max(gaps_of_weights(weights), initial=-math.inf)))
    return ClosureReport(closed=worst <= CLOSURE_TOL, worst_violation=worst)


# ---------------------------------------------------------------------------
# greedy covers


@dataclass(frozen=True)
class Ball:
    center_id: int
    radius: float
    member_ids: tuple[int, ...]


def greedy_cover(
    target_ids: Iterable[int],
    radius: float,
    dist_fn: Callable[[int, int], float],
) -> list[Ball]:
    """Farthest-point greedy covering of the target atoms.

    Centers come from the target itself.  The first center is the smallest
    id; each next center is the uncovered atom farthest from the chosen
    centers (ties to the smallest id).  Every ball absorbs all target atoms
    within ``radius`` of its center, so balls may overlap; the ball count
    upper-bounds the covering number at this radius.
    """
    ids = sorted(set(target_ids))
    if not ids:
        raise GeometryError("cover needs a nonempty target")
    if radius < 0.0:
        raise GeometryError(f"radius must be nonnegative, got {radius}")
    balls: list[Ball] = []
    covered: set[int] = set()
    min_center_dist = {i: math.inf for i in ids}
    while len(covered) < len(ids):
        uncovered = [i for i in ids if i not in covered]
        center = max(uncovered, key=lambda i: (min_center_dist[i], -i))
        members = tuple(j for j in ids if dist_fn(center, j) <= radius)
        balls.append(Ball(center_id=center, radius=radius, member_ids=members))
        covered.update(members)
        covered.add(center)  # zero self-distance is not assumed
        for i in ids:
            min_center_dist[i] = min(min_center_dist[i], dist_fn(center, i))
    return balls


# ---------------------------------------------------------------------------
# mass-root sums and the sieve


@dataclass(frozen=True, eq=False)
class CoveringAndSieve:
    """The sieve kept from a mass-sorted cover, and its numerical certificates.

    The cover's balls are sorted by descending prior mass (ties by center
    id).  ``j_n`` is how many balls the sieve keeps; ``j_requested`` is the
    exact solution of the defining inequality
    j^(beta-1) >= S_n^beta * exp(r n eps^2) and is None when it overflows any
    integer range worth storing.  When the request exceeds the available
    balls the sieve is the full union and ``exhausted`` is set.

    Certificates: ``log_j_bound`` is (r + beta c)/(beta - 1) * n eps^2 and
    ``log_j_ok`` says whether the requested count respects it;
    ``mass_bound_max_violation`` is the largest per-index excess of sorted
    ball mass over S_n^beta / j^beta; ``tail_bound`` is the partial sum of
    S_n^beta / j^beta past j_n, and ``uncovered_mass`` is prior mass no ball
    reaches (the tail chain bounds complement_mass by tail_bound +
    uncovered_mass).
    """

    j_n: int
    j_requested: int | None
    s_n: float
    sieve_ids: tuple[int, ...]
    complement_mass: float
    exhausted: bool
    log_j_requested: float
    log_j_bound: float
    log_j_ok: bool
    mass_bound_max_violation: float
    tail_bound: float
    uncovered_mass: float


def _smallest_j(beta: float, log_s: float, rne2: float) -> tuple[int | None, float]:
    """Least integer j with (beta-1) log j >= beta log S + r n eps^2."""
    t = beta * log_s + rne2
    if t <= 0.0:
        return 1, 0.0
    log_j = t / (beta - 1.0)
    if log_j > math.log(1e15):
        return None, log_j
    j = max(1, math.ceil(math.exp(log_j)))
    while j > 1 and (beta - 1.0) * math.log(j - 1) >= t:
        j -= 1
    while (beta - 1.0) * math.log(j) < t:
        j += 1
    return j, math.log(j)


def build_sieve_from_cover(
    cover: Sequence[Ball],
    prior: AtomicPrior,
    beta: float,
    r_const: float,
    c_const: float,
    n: int,
    epsilon_n: float,
) -> CoveringAndSieve:
    """Keep the highest-mass balls up to the defining inequality's J.

    Sorts internally, so pre-shuffled input yields the identical sieve.
    """
    if not beta > 1.0:
        raise GeometryError(f"mass-root exponent beta must exceed 1, got {beta}")
    if not cover:
        raise GeometryError("empty cover")
    if not (r_const > 0.0 and c_const > 0.0):
        raise GeometryError("sieve constants r and c must be positive")
    masses = [prior.mass_of(b.member_ids) for b in cover]
    order = sorted(range(len(cover)), key=lambda i: (-masses[i], cover[i].center_id))
    balls = tuple(cover[i] for i in order)
    ball_masses = tuple(masses[i] for i in order)
    target: set[int] = set()
    for b in balls:
        target |= set(b.member_ids)

    rne2 = r_const * n * epsilon_n**2
    s_n = float(sum(m ** (1.0 / beta) for m in ball_masses))
    if s_n <= 0.0:
        raise GeometryError("cover carries no prior mass")
    j_requested, log_j_requested = _smallest_j(beta, math.log(s_n), rne2)
    exhausted = j_requested is None or j_requested > len(balls)
    j_n = len(balls) if exhausted else int(j_requested)

    sieve: set[int] = set()
    for b in balls[:j_n]:
        sieve |= set(b.member_ids)
    sieve_mass = prior.mass_of(sieve) if sieve else 0.0
    complement_mass = max(0.0, 1.0 - sieve_mass)
    covered_mass = prior.mass_of(target)
    uncovered_mass = max(0.0, 1.0 - covered_mass)

    s_pow = s_n**beta
    idx = np.arange(1, len(balls) + 1, dtype=float)
    per_index_cap = s_pow / idx**beta
    mass_bound_max_violation = float(np.max(np.asarray(ball_masses) - per_index_cap))
    tail_bound = float(per_index_cap[j_n:].sum())

    log_j_bound = (r_const + beta * c_const) / (beta - 1.0) * n * epsilon_n**2
    return CoveringAndSieve(
        j_n=j_n,
        j_requested=j_requested,
        s_n=s_n,
        sieve_ids=tuple(sorted(sieve)),
        complement_mass=complement_mass,
        exhausted=exhausted,
        log_j_requested=log_j_requested,
        log_j_bound=log_j_bound,
        log_j_ok=log_j_requested <= log_j_bound + 1e-12,
        mass_bound_max_violation=mass_bound_max_violation,
        tail_bound=tail_bound,
        uncovered_mass=uncovered_mass,
    )
