"""Random mixtures of a certified subset against its hull bound.

``certify_subset`` certifies a subset's convex hull by the triangle bound
alone.  Two facts make that sound, and this file checks both on flat
Dirichlet mixtures of the subsets it certifies, drawn from seeded random
regimes of all four kinds:

- closure: each mixture lies in the ball around the bound's centre whose
  radius is the centre's farthest vertex (per design index on average for
  regression, at every sweep state for markov);
- gap: each mixture's gap to the truth is at least the hull bound (for
  markov the gap at each of the bound's sweep states, so its sup is).

They hold on markov chains off unit noise and on the shipped configs'
subsets at every schedule point they certify.  The rest of the file pins
the certificate itself: a singleton's bound is at most its atom's gap, the
hull step alone decides at delta equal to the bound, and a certificate is
a function of the regime, the ids, delta and n, and the distances it is
built from keep one contract in every regime.

Each gap comes from a reference that shares no z-node constant or kernel
with the library: Gaussian rows on a grid in x for regression and markov,
and the starred gap on the density regime's table nodes for iid and
misspecified.  TOL, the old closure step's rounding allowance, is what
either fact may miss by.
"""
from pathlib import Path

import numpy as np
import pytest

from bayesrates.cli import build_regime, parse_config
from bayesrates.divergences import Grid, default_grid, gaussian_density, stationary_divergences
from bayesrates.experiments import (
    REF_ID,
    SWEEP_POINTS,
    ExperimentError,
    IidRegime,
    MarkovRegime,
    MisspecifiedRegime,
    RegressionRegime,
    SubsetNotAdmissibleError,
    certify_schedule,
    certify_subset,
)
from bayesrates.models import (
    MARKOV,
    REGRESSION,
    FamilyMember,
    MarkovParam,
    MisspecifiedSetup,
    build_gaussian_location_family,
    linear_regression_function,
    uniform_prior,
)

from helpers import gaussian_affinity_gaps_oracle, table_dist, table_gap, table_mixture

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GRID = default_grid()
TRUTH = gaussian_density(GRID, 0.0, 1.0)
# the x-grid of the Gaussian rows, in noise sds: the markov means reach 6.7
# noise sds at the window's edge, and the rows' roots are below 1e-30 of
# their peak 17 sds out
X_GRID = Grid(-24.0, 24.0, 1201)
TOL = 1e-9
DELTA = 1e-3
REGIMES = 40  # per kind, one random subset of each
MIXTURES = 8  # per certified subset


def random_regime(kind: str, rng: np.random.Generator, noise_sd: float = 1.0):
    """Two to six atoms of the kind, drawn as the acceptance gate draws them;
    ``noise_sd`` is the markov chains' innovation sd."""
    atoms = int(rng.integers(2, 7))
    if kind == "iid":
        family = build_gaussian_location_family(GRID, list(rng.normal(0.0, 1.5, atoms)))
        return IidRegime(uniform_prior(family), TRUTH)
    if kind == "misspecified":
        family = build_gaussian_location_family(GRID, list(np.sort(rng.uniform(0.3, 3.0, atoms))))
        return MisspecifiedRegime(MisspecifiedSetup(uniform_prior(family), TRUTH, 0))
    if kind == "regression":
        members = [FamilyMember(j, REGRESSION, linear_regression_function(float(s), 50))
                   for j, s in enumerate(rng.uniform(-3.0, 3.0, atoms))]
        truth = linear_regression_function(float(rng.uniform(-1.0, 1.0)), 50)
        return RegressionRegime(uniform_prior(members), truth)
    members = [FamilyMember(j, MARKOV, MarkovParam(float(t), noise_sd=noise_sd))
               for j, t in enumerate(rng.uniform(-0.8, 0.8, atoms))]
    truth = MarkovParam(float(rng.uniform(-0.8, 0.8)), noise_sd=noise_sd)
    return MarkovRegime(uniform_prior(members), truth)


def normal_gap(d):
    """The affinity gap 1 - exp(-d^2 / 8) of two normals d sds apart."""
    return -np.expm1(-np.square(d) / 8.0)


def table_mixtures(reg, ids, center, weights, n):
    """(gaps, excesses) of each mixture, on the density regime's table."""
    roots = {i: reg._roots[reg.prior.index_of(i)] for i in ids}
    radius = max(table_dist(reg, roots[center], roots[j]) for j in ids)
    mixes = [table_mixture(reg, ids, w) for w in weights]
    return (np.array([table_gap(reg, m) for m in mixes]),
            np.array([table_dist(reg, roots[center], np.sqrt(m)) for m in mixes]) - radius)


def regression_mixtures(reg, ids, center, weights, n):
    """(gaps, excesses) of each mixture, as means over the first n indices."""
    means = np.stack([np.asarray(reg.prior.members[reg.prior.index_of(i)].payload
                                 .values_at_design[:n]) for i in ids])
    c = means[ids.index(center)]
    radius = max(np.mean(normal_gap(c - m)) for m in means)
    truth = np.asarray(reg.truth.values_at_design[:n])
    gaps = gaussian_affinity_gaps_oracle(X_GRID, means, truth, 1.0, weights)
    to_center = gaussian_affinity_gaps_oracle(X_GRID, means, c, 1.0, weights)
    return gaps.mean(axis=1), to_center.mean(axis=1) - radius


def markov_mixtures(reg, ids, center, weights, n):
    """(gaps, excesses) of each mixture, as sups over the bound's sweep states."""
    states = np.linspace(0.0, reg.state_window, SWEEP_POINTS)
    thetas = np.array([reg.prior.members[reg.prior.index_of(i)].payload.theta for i in ids])
    tc, sd = thetas[ids.index(center)], reg.noise_sd
    radius = np.max([normal_gap((tc - t) * states / sd) for t in thetas], axis=0)
    means = np.outer(thetas, states)
    grid = Grid(X_GRID.lower * sd, X_GRID.upper * sd, X_GRID.points)
    gaps = gaussian_affinity_gaps_oracle(grid, means, reg.theta_star.theta * states, sd,
                                         weights)
    to_center = gaussian_affinity_gaps_oracle(grid, means, tc * states, sd, weights)
    return gaps.max(axis=1), (to_center - radius).max(axis=1)


MIXTURE_ORACLES = {"iid": table_mixtures, "misspecified": table_mixtures,
                   "regression": regression_mixtures, "markov": markov_mixtures}


KINDS = list(MIXTURE_ORACLES)


def certified_subsets(kind, rng, regimes=REGIMES, noise_sd=1.0):
    """Yield (regime, ids, n, certificate) for the random subsets, one drawn
    from each of ``regimes`` random regimes, that certify at DELTA."""
    for _ in range(regimes):
        reg = random_regime(kind, rng, noise_sd)
        atoms = [m.id for m in reg.prior.members]
        size = int(rng.integers(2, len(atoms) + 1))
        ids = sorted(int(i) for i in rng.choice(atoms, size=size, replace=False))
        n = int(rng.integers(5, 51))
        try:
            yield reg, ids, n, certify_subset(reg, ids, DELTA, n)
        except SubsetNotAdmissibleError:
            continue


def check_mixtures(reg, ids, n, weights):
    """Each weight row's mixture keeps the hull bound's ball and gap; returns the bound."""
    bound, center = reg.hull_gap_bound(ids, n)
    gaps, excesses = MIXTURE_ORACLES[reg.kind](reg, ids, center, weights, n)
    assert np.all(gaps >= bound - TOL), (ids, n, bound, gaps.min())
    assert np.all(excesses <= TOL), (ids, n, excesses.max())
    return bound


def check_random_subsets(kind, rng, regimes=REGIMES, noise_sd=1.0):
    certified = []
    for reg, ids, n, cert in certified_subsets(kind, rng, regimes, noise_sd):
        weights = rng.dirichlet(np.ones(len(ids)), size=MIXTURES)
        assert cert.hull_gap_bound == check_mixtures(reg, ids, n, weights) > DELTA
        certified.append(len(ids))
    # one subset in eight or more certifies, and some hulls have three or more vertices
    assert len(certified) >= regimes // 8 and max(certified) >= 3, certified


@pytest.mark.parametrize("kind", KINDS)
def test_mixtures_of_a_certified_subset_keep_the_hull_bound(kind):
    check_random_subsets(kind, np.random.default_rng(KINDS.index(kind) + 2026))


@pytest.mark.parametrize("noise_sd", [0.5, 0.7, 1.3, 2.0])
def test_markov_mixtures_keep_the_hull_bound_off_unit_noise(noise_sd):
    """The sup-form bound scales the states by the noise sd; the reference
    rows take the sd as it is, on an x-grid that spans as many sds."""
    rng = np.random.default_rng(int(noise_sd * 10) + 2030)
    check_random_subsets("markov", rng, REGIMES // 4, noise_sd)


@pytest.mark.parametrize("name", ["iid", "misspecified", "regression", "markov"])
def test_shipped_subset_mixtures_keep_the_hull_bound(name):
    """At every schedule point where the config's subset certifies, its
    vertices and random mixtures keep the bound."""
    cfg = parse_config(CONFIGS / f"{name}.yaml")
    reg = build_regime(cfg)
    ids, k = list(cfg.subset), len(cfg.subset)
    rng = np.random.default_rng(2040)
    certified = 0
    for n, _, cert in certify_schedule(reg, ids, cfg.params.d, cfg.schedule):
        if isinstance(cert, SubsetNotAdmissibleError):
            continue
        weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=MIXTURES)])
        assert cert.hull_gap_bound == check_mixtures(reg, ids, n, weights)
        certified += 1
    assert certified, name


@pytest.mark.parametrize("kind", KINDS)
def test_a_lone_atom_bound_is_at_most_its_own_gap(kind):
    """A singleton's hull is its atom: the bound centres there with radius 0,
    and is at most the atom's gap, exactly its half-square distance on the
    regression and markov forms."""
    rng = np.random.default_rng(KINDS.index(kind) + 2050)
    for _ in range(REGIMES // 8):
        reg = random_regime(kind, rng)
        n = int(rng.integers(5, 51))
        for i in (m.id for m in reg.prior.members):
            if not reg.well_specified and reg.vertex_certificates([i])[0] > 1.0 + TOL:
                continue  # the ratio step refuses it, and the bound may then exceed its gap
            bound, center = reg.hull_gap_bound([i], n)
            gap = reg.separation_gaps([i], n)[0]
            assert center == i and bound <= gap + TOL, (i, bound, gap)
            if kind in ("regression", "markov"):
                assert bound == pytest.approx(gap, rel=1e-12, abs=0.0)
            check_mixtures(reg, [i], n, np.ones((1, 1)))


@pytest.mark.parametrize("kind", KINDS)
def test_the_hull_step_refuses_where_its_bound_meets_delta(kind):
    """The vertex gaps are at least the hull bound, so the hull step, not the
    vertex step, decides at delta = bound: refused there, certified just below."""
    rng = np.random.default_rng(KINDS.index(kind) + 2060)
    refused = 0
    for reg, ids, n, cert in certified_subsets(kind, rng):
        bound, gaps = cert.hull_gap_bound, reg.separation_gaps(ids, n)
        assert np.all(gaps >= bound - TOL), (ids, bound, gaps)
        below = certify_subset(reg, ids, float(np.nextafter(bound, 0.0)), n)
        assert below.hull_gap_bound == bound
        if np.min(gaps) > bound:
            with pytest.raises(SubsetNotAdmissibleError, match="convex-hull separation"):
                certify_subset(reg, ids, bound, n)
            refused += 1
    assert refused, kind


@pytest.mark.parametrize("kind", KINDS)
def test_a_certificate_is_a_function_of_its_inputs(kind):
    """Certifying twice gives the same certificate, built from the regime's
    vertex gaps and hull bound alone, and leaves numpy's global generator
    where it was."""
    rng = np.random.default_rng(KINDS.index(kind) + 2070)
    state = np.random.get_state()
    count = 0
    for reg, ids, n, cert in certified_subsets(kind, rng, REGIMES // 2):
        again = certify_subset(reg, ids, DELTA, n)
        gaps = reg.separation_gaps(ids, n)
        assert cert.hull_gap_bound == again.hull_gap_bound == reg.hull_gap_bound(ids, n)[0]
        assert cert.vertex == again.vertex
        assert cert.vertex.min_gap == float(np.min(gaps)) and cert.vertex.separated
        count += 1
    after = np.random.get_state()
    assert count and all(np.array_equal(a, b) for a, b in zip(state, after))


@pytest.mark.parametrize("kind", KINDS)
def test_every_regime_keeps_the_distance_contract(kind):
    """``pair_dist`` is symmetric to the bit and zero on the diagonal, the
    anchor (REF_ID) included; ``truth_dist`` is the pair distance from the
    anchor, except markov's, which is the stationary h_q; regression and
    markov gaps are half the squared anchor distance; only markov bounds
    theta0; and a regression distance without n raises."""
    rng = np.random.default_rng(KINDS.index(kind) + 2050)
    for _ in range(10):
        reg = random_regime(kind, rng, float(rng.uniform(0.5, 2.0)))
        atoms = [m.id for m in reg.prior.members]
        n = int(rng.integers(5, 51)) if kind == "regression" else None
        for a in [REF_ID, *atoms]:
            assert abs(reg.pair_dist(a, a, n)) <= 1e-12
            for b in [REF_ID, *atoms]:
                assert reg.pair_dist(a, b, n) == reg.pair_dist(b, a, n)
        from_anchor = [reg.pair_dist(REF_ID, i, n) for i in atoms]
        truth = [reg.truth_dist(i, n) for i in atoms]
        if kind == "markov":
            thetas = [reg.prior.members[reg.prior.index_of(i)].payload.theta for i in atoms]
            assert truth == [h for *_, h in stationary_divergences(reg.theta_star.theta, thetas)]
        else:
            assert truth == from_anchor
        if kind in ("regression", "markov"):
            assert reg.separation_gaps(atoms, n).tolist() == [0.5 * d ** 2 for d in from_anchor]
        assert (reg.theta0_mask() is None) == (kind != "markov")
        if kind == "regression":
            for call in (lambda: reg.pair_dist(atoms[0], atoms[1]),
                         lambda: reg.truth_dist(atoms[0]),
                         lambda: reg.separation_gaps(atoms),
                         lambda: reg.hull_gap_bound(atoms)):
                with pytest.raises(ExperimentError, match="need n"):
                    call()
