"""Grid densities and divergence functionals.

Continuous densities live on a uniform grid and every integral over a
density here is a trapezoidal quadrature on that grid (the iid and
misspecified regime in ``experiments`` integrates on every s-th node of
it, all atoms or all mixtures at once).  The default working grid for
unit-scale Gaussian work is [-12, 12] with 4001 points.
The divergences between two normals of one sd (regression indices, AR(1)
transitions from one state) are exact, from ``gaussian_shift_kvh``, and so
are their stationary AR(1) averages, bar a one-dimensional h_q rule.
Densities are floored at ``FLOOR`` before use so that logarithms stay
finite.

Naming convention for the asymmetric functionals: the first density
argument is the one the integral is weighted by, so ``kl(f, g)`` is
``int log(f/g) f dmu``.  The starred variants take an anchor density
``f_circ`` and weight by a third density ``f_star``; they reduce to the
plain variants when ``f_circ == f_star``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

FLOOR = 1e-300
SQRT2 = math.sqrt(2.0)

DEFAULT_LOWER = -12.0
DEFAULT_UPPER = 12.0
DEFAULT_POINTS = 4001


class DivergenceError(ValueError):
    """Base class for grid/divergence input errors."""


class GridMismatchError(DivergenceError):
    """Two densities do not share the same grid."""


class OutsideGridError(DivergenceError):
    """A point or a density's effective support falls outside the grid."""


class NonstationaryError(DivergenceError):
    """An autoregressive coefficient admits no stationary density."""


@dataclass(frozen=True)
class Grid:
    """Uniform quadrature grid on [lower, upper] with ``points`` nodes."""

    lower: float
    upper: float
    points: int

    def __post_init__(self) -> None:
        if not self.upper > self.lower:
            raise DivergenceError(f"grid needs lower < upper, got [{self.lower}, {self.upper}]")
        if self.points < 3:
            raise DivergenceError(f"grid needs at least 3 points, got {self.points}")

    @cached_property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.linspace(self.lower, self.upper, self.points)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoidal weights: integral(v) == quad_weights @ v."""
        w = np.full(self.points, self.spacing)
        w[0] = 0.5 * self.spacing
        w[-1] = 0.5 * self.spacing
        w.flags.writeable = False
        return w

    def integrate(self, values: np.ndarray) -> float:
        return float(self.quad_weights @ values)


def default_grid() -> Grid:
    return Grid(DEFAULT_LOWER, DEFAULT_UPPER, DEFAULT_POINTS)


class GridDensity:
    """A probability density materialized on a grid.

    Values are floored at ``FLOOR`` and renormalized to unit trapezoidal
    integral at construction.
    """

    __slots__ = ("grid", "values", "__dict__")
    # (mean, sd) of a density ``gaussian_density`` made; the location rules read it
    gaussian: tuple[float, float] | None = None

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.points,):
            raise DivergenceError(
                f"density needs {grid.points} values for its grid, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DivergenceError("density values must be finite")
        if np.any(values < 0.0):
            raise DivergenceError("density values must be nonnegative")
        values = np.maximum(values, FLOOR)
        total = grid.integrate(values)
        if not total > 0.0 or not np.isfinite(total):
            raise DivergenceError(f"density mass {total} cannot be normalized")
        values = values / total
        # renormalizing can push an already floored tail back under the floor;
        # restoring it perturbs total mass by at most points * FLOOR
        values = np.maximum(values, FLOOR)
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    @cached_property
    def log_values(self) -> np.ndarray:
        out = np.log(self.values)
        out.flags.writeable = False
        return out

    @cached_property
    def sqrt_values(self) -> np.ndarray:
        out = np.sqrt(self.values)
        out.flags.writeable = False
        return out

    def mean(self) -> float:
        return float(self.grid.quad_weights @ (self.grid.x * self.values))

    def variance(self) -> float:
        m = self.mean()
        return float(self.grid.quad_weights @ ((self.grid.x - m) ** 2 * self.values))

    def log_interp(self, y) -> np.ndarray | float:
        """Log density at arbitrary points by linear interpolation of the log.

        Extrapolation is forbidden: points outside the grid raise.
        """
        arr = np.asarray(y, dtype=float)
        if np.any(arr < self.grid.lower) or np.any(arr > self.grid.upper):
            raise OutsideGridError(
                f"point outside grid [{self.grid.lower}, {self.grid.upper}]"
            )
        out = np.interp(arr, self.grid.x, self.log_values)
        return float(out) if np.isscalar(y) else out

    def cdf_values(self) -> np.ndarray:
        """Cumulative trapezoidal mass at each node, normalized to end at 1."""
        v = self.values
        inc = 0.5 * self.grid.spacing * (v[1:] + v[:-1])
        cdf = np.concatenate([[0.0], np.cumsum(inc)])
        return cdf / cdf[-1]


def gaussian_density(grid: Grid, mean: float, sd: float) -> GridDensity:
    if not sd > 0.0:
        raise DivergenceError(f"sd must be positive, got {sd}")
    z = (grid.x - mean) / sd
    values = np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    density = GridDensity(grid, values)
    density.gaussian = (mean, sd)
    return density


def _require_same_grid(f: GridDensity, g: GridDensity) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


# ---------------------------------------------------------------------------
# pairwise functionals
# ---------------------------------------------------------------------------

def kl(f: GridDensity, g: GridDensity) -> float:
    """int log(f/g) f dmu; the first argument carries the weight."""
    _require_same_grid(f, g)
    val = float((f.grid.quad_weights * f.values) @ (f.log_values - g.log_values))
    if -1e-9 < val < 0.0:
        return 0.0
    return val


def hellinger(f: GridDensity, g: GridDensity) -> float:
    """Hellinger distance sqrt(int (sqrt f - sqrt g)^2 dmu), in [0, sqrt 2]."""
    _require_same_grid(f, g)
    diff = f.sqrt_values - g.sqrt_values
    val = float(f.grid.quad_weights @ (diff * diff))
    return min(math.sqrt(max(val, 0.0)), SQRT2)

def h_affinity_gap(f: GridDensity, g: GridDensity) -> float:
    """h(f, g) = 1 - int sqrt(f g) dmu; equals hellinger(f, g)^2 / 2."""
    _require_same_grid(f, g)
    affinity = float(f.grid.quad_weights @ (f.sqrt_values * g.sqrt_values))
    return 1.0 - affinity


# ---------------------------------------------------------------------------
# starred (anchored) functionals
# ---------------------------------------------------------------------------

def weighted_hellinger(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """sqrt(int (sqrt f - sqrt f_circ)^2 (f_star/f_circ) dmu).

    The metric under which covering balls are built in the misspecified
    regime; reduces to hellinger(f_circ, f) when f_circ == f_star.
    """
    _require_same_grid(f, f_star)
    _require_same_grid(f, f_circ)
    diff = f.sqrt_values - f_circ.sqrt_values
    weight = np.exp(f_star.log_values - f_circ.log_values)
    return math.sqrt(max(float(f.grid.quad_weights @ (diff * diff * weight)), 0.0))


def h_star(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """h*(f_circ, f) = 1 - int sqrt(f/f_circ) f_star dmu.

    Not clamped: a negative value is meaningful (it certifies that
    int (f/f_circ) f_star dmu <= 1 fails to hold for this triple).
    """
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    ratio_sqrt = np.exp(0.5 * (f.log_values - f_circ.log_values))
    return 1.0 - float((f_circ.grid.quad_weights * f_star.values) @ ratio_sqrt)


def kleijn_certificate(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """int (f/f_circ) f_star dmu; h_star >= weighted_hellinger^2/2 needs <= 1."""
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    ratio = np.exp(f.log_values - f_circ.log_values)
    return float((f_circ.grid.quad_weights * f_star.values) @ ratio)


# ---------------------------------------------------------------------------
# sequence (regression-style) functionals
# ---------------------------------------------------------------------------

def mean_hellinger(seq_a: Sequence[GridDensity], seq_b: Sequence[GridDensity]) -> float:
    """Root mean of squared per-index Hellinger distances."""
    h2 = _per_index_squared_hellinger(seq_a, seq_b)
    return math.sqrt(float(np.mean(h2)))


def max_hellinger(seq_a: Sequence[GridDensity], seq_b: Sequence[GridDensity]) -> float:
    """Maximum per-index Hellinger distance."""
    h2 = _per_index_squared_hellinger(seq_a, seq_b)
    return math.sqrt(float(np.max(h2)))


def _per_index_squared_hellinger(
    seq_a: Sequence[GridDensity], seq_b: Sequence[GridDensity]
) -> np.ndarray:
    if len(seq_a) != len(seq_b) or not seq_a:
        raise DivergenceError("sequences must be nonempty and equal length")
    out = np.empty(len(seq_a))
    for i, (a, b) in enumerate(zip(seq_a, seq_b)):
        _require_same_grid(a, b)
        diff = a.sqrt_values - b.sqrt_values
        out[i] = max(float(a.grid.quad_weights @ (diff * diff)), 0.0)
    return out


# ---------------------------------------------------------------------------
# Gaussian shifts and autoregressive transition divergences
# ---------------------------------------------------------------------------

def gaussian_shift_kvh(d2):
    """(kl, v, h^2) between two normals of one sd whose means are sqrt(d2) sds apart.

    Exact, elementwise over an array of d2: the log ratio is linear in the
    observation, so kl = d2/2, v = int log(f/g)^2 f = d2 + d2^2/4 and the
    squared Hellinger distance is 2(1 - exp(-d2/8)).
    """
    return d2 / 2.0, d2 + d2 * d2 / 4.0, 2.0 * (1.0 - np.exp(-d2 / 8.0))


@dataclass(frozen=True)
class MarkovDivergences:
    kl: float


def ar1_stationary_sd(theta: float, noise_sd: float = 1.0) -> float:
    if not abs(theta) < 1.0:
        raise NonstationaryError(f"coefficient {theta} has no stationary density")
    return noise_sd / math.sqrt(1.0 - theta * theta)


# h_q is a trapezoid in t = log z, at step 0.125 from -24 to 2.625 (-24 + 0.125 k:
# an arange would drift the step), of 2 z phi(z) times the per-state distance, a
# smooth integrand dying doubly exponentially at both ends.  It is within 5.5e-16
# relative of adaptive quadrature for every a from 1e-14 to 2e6.
_HQ_Z = np.exp(-24.0 + 0.125 * np.arange(214))
_HQ_W = (0.25 / math.sqrt(2.0 * math.pi)) * _HQ_Z * np.exp(-0.5 * _HQ_Z * _HQ_Z)


def stationary_divergences(
    theta_star: float, thetas: Sequence[float]
) -> list[tuple[float, float, float]]:
    """State-averaged (kl, v, h_q) from the ``theta_star`` transitions to each theta's.

    From the stationary state y = z * (stationary sd), z standard normal, the
    transitions are normals a z^2 squared noise sds apart, with
    a = (theta_star - theta)^2 / (1 - theta_star^2) whatever the noise sd.
    So ``gaussian_shift_kvh`` averages to kl = a / 2 and v = a + 3 a^2 / 4,
    and h_q = 2 int_0^inf sqrt(2 (1 - exp(-a z^2 / 8))) phi(z) dz.
    """
    for theta in (theta_star, *thetas):
        ar1_stationary_sd(theta)
    a = (theta_star - np.asarray(thetas, dtype=float)) ** 2 / (1.0 - theta_star * theta_star)
    h_q = np.sqrt(-2.0 * np.expm1(np.multiply.outer(a, _HQ_Z * _HQ_Z) / -8.0)) @ _HQ_W
    return [(ak / 2.0, ak + 0.75 * ak * ak, hk) for ak, hk in zip(a.tolist(), h_q.tolist())]


def markov_divergences(theta_star: float, theta: float) -> MarkovDivergences:
    """Stationary-averaged kl between two AR(1) transition families of one noise sd.

    The closed form (theta_star - theta)^2 / (2 (1 - theta_star^2)).
    """
    return MarkovDivergences(kl=stationary_divergences(theta_star, [theta])[0][0])
