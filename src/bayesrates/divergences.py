"""Grid densities and divergence functionals.

Continuous densities live on a uniform grid and every integral over a
density here is a trapezoidal quadrature on that grid (the iid Cesaro
kernel in ``experiments`` uses every s-th node of it).  The default
working grid for unit-scale Gaussian work is [-12, 12] with 4001 points.
The divergences between two normals of one sd (regression indices, AR(1)
transitions from one state) are exact, from ``gaussian_shift_kvh``.
Densities are floored at ``FLOOR`` before use so that logarithms stay
finite; any construction that actually hits the floor sets a
tail-truncation quality flag on the density instead of raising.

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

# stationary-averaged transition divergences integrate over this many
# states; the sup-form hull bound sweeps this many states of its window
STATE_POINTS = 401
SWEEP_POINTS = 1001


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
    integral at construction.  ``floored`` records whether the floor was
    ever active, which marks every downstream comparison as tail-truncated
    rather than exact.
    """

    __slots__ = ("grid", "values", "floored", "__dict__")

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
        floored = bool(np.any(values < FLOOR))
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
        self.floored = floored

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
    return GridDensity(grid, values)


def mixture_density(components: Sequence[GridDensity], weights: Sequence[float]) -> GridDensity:
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

def kl_contrast(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """int log(f_circ/f) f_star dmu, computed directly by quadrature.

    When ``f_circ`` minimizes kl(f_star, .) over the family this equals
    kl(f_star, f) - kl(f_star, f_circ); the direct form avoids cancellation
    between two separately quadratured terms.
    """
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    w = f_circ.grid.quad_weights * f_star.values
    return float(w @ (f_circ.log_values - f.log_values))


def v_star(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """int (log(f_circ/f))^2 f_star dmu."""
    _require_same_grid(f_circ, f)
    _require_same_grid(f_circ, f_star)
    diff = f_circ.log_values - f.log_values
    return float((f_circ.grid.quad_weights * f_star.values) @ (diff * diff))


def weighted_hellinger(f_circ: GridDensity, f: GridDensity, f_star: GridDensity) -> float:
    """sqrt(int (sqrt f - sqrt f_circ)^2 (f_star/f_circ) dmu).

    Reduces to hellinger(f_circ, f) when f_circ == f_star.
    """
    return weighted_hellinger_between(f, f_circ, f_star=f_star, f_circ=f_circ)


def weighted_hellinger_between(
    f: GridDensity, g: GridDensity, *, f_star: GridDensity, f_circ: GridDensity
) -> float:
    """Weighted Hellinger distance between f and g with weight f_star/f_circ.

    This is the metric under which covering balls are built in the
    misspecified regime; ``weighted_hellinger`` is the special case g == f_circ.
    """
    _require_same_grid(f, f_star)
    _require_same_grid(f, f_circ)
    return hellinger_with_weight(f, g, np.exp(f_star.log_values - f_circ.log_values))


def hellinger_with_weight(f: GridDensity, g: GridDensity, weight: np.ndarray) -> float:
    """sqrt(int (sqrt f - sqrt g)^2 weight dmu) for a weight on the shared grid."""
    _require_same_grid(f, g)
    diff = f.sqrt_values - g.sqrt_values
    val = float(f.grid.quad_weights @ (diff * diff * weight))
    return math.sqrt(max(val, 0.0))


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


def transition_shift_sq(theta_a: float, theta_b, states, noise_sd: float):
    """Squared gap, in noise sds, between the AR(1) transition means from ``states``."""
    return (theta_a - theta_b) ** 2 * states * states / noise_sd**2


@dataclass(frozen=True)
class MarkovDivergences:
    kl: float


def ar1_stationary_sd(theta: float, noise_sd: float = 1.0) -> float:
    if not abs(theta) < 1.0:
        raise NonstationaryError(f"coefficient {theta} has no stationary density")
    return noise_sd / math.sqrt(1.0 - theta * theta)


def _check_transition_support(grid: Grid, theta: float, max_abs_state: float, noise_sd: float) -> None:
    reach = abs(theta) * max_abs_state + 4.0 * noise_sd
    if reach > max(abs(grid.lower), abs(grid.upper)):
        raise OutsideGridError(
            f"grid clips transition density: coefficient {theta} from states up to "
            f"+-{max_abs_state:.3g} needs +-{reach:.3g}"
        )


def check_state_window(grid: Grid, thetas: Sequence[float], window: float, noise_sd: float) -> None:
    """Refuse an empty state window, or one from which the grid clips a transition."""
    if not window > 0.0:
        raise DivergenceError(f"state window must be positive, got {window}")
    for theta in thetas:
        _check_transition_support(grid, theta, window, noise_sd)


def state_sup_hellinger(
    theta_a: float,
    theta_b: float,
    window: float,
    *,
    grid: Grid | None = None,
    noise_sd: float = 1.0,
) -> float:
    """sup over |y| <= window of the Hellinger distance between transitions from y.

    The per-state distance grows with |y|, so the sup sits at the window edge.
    """
    if grid is None:
        grid = default_grid()
    check_state_window(grid, (theta_a, theta_b), window, noise_sd)
    _, _, h2 = gaussian_shift_kvh(transition_shift_sq(theta_a, theta_b, window, noise_sd))
    return math.sqrt(float(h2))


def stationary_divergences(
    theta_star: float,
    thetas: Sequence[float],
    *,
    grid: Grid | None = None,
    noise_sd: float = 1.0,
) -> list[tuple[float, float, float]]:
    """State-averaged (kl, v, h_q) from the ``theta_star`` transitions to each theta's.

    The per-state kl, v and Hellinger distance between the transitions
    (``gaussian_shift_kvh``) are integrated against the stationary density
    of ``theta_star`` over +-6 stationary standard deviations.  The grid
    only vets that those transitions fit on it.
    """
    if grid is None:
        grid = default_grid()
    sd_star = ar1_stationary_sd(theta_star, noise_sd)
    for theta in thetas:
        if not abs(theta) < 1.0:
            raise NonstationaryError(f"coefficient {theta} has no stationary density")
    half = 6.0 * sd_star
    for theta in (theta_star, *thetas):
        _check_transition_support(grid, theta, half, noise_sd)
    states = np.linspace(-half, half, STATE_POINTS)
    u = np.exp(-0.5 * (states / sd_star) ** 2)
    state_w = np.full(STATE_POINTS, states[1] - states[0])
    state_w[0] *= 0.5
    state_w[-1] *= 0.5
    u_mass = state_w @ u

    out = []
    for theta in thetas:
        k_s, v_s, h2 = gaussian_shift_kvh(transition_shift_sq(theta_star, theta, states, noise_sd))
        out.append((
            float(state_w @ (u * k_s)) / u_mass,
            float(state_w @ (u * v_s)) / u_mass,
            float(state_w @ (u / u_mass * np.sqrt(h2))),
        ))
    return out


def markov_divergences(
    theta_star: float,
    theta: float,
    *,
    grid: Grid | None = None,
    noise_sd: float = 1.0,
) -> MarkovDivergences:
    """Stationary-averaged kl between two AR(1) transition families.

    The kl of ``stationary_divergences`` for the one theta.
    """
    [(k_val, _, _)] = stationary_divergences(theta_star, [theta], grid=grid, noise_sd=noise_sd)
    return MarkovDivergences(kl=k_val)
