import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bayesrates.divergences import (
    SQRT2,
    DivergenceError,
    Grid,
    GridDensity,
    GridMismatchError,
    MarkovDivergences,
    NonstationaryError,
    OutsideGridError,
    ar1_stationary_sd,
    default_grid,
    gaussian_density,
    gaussian_shift_kvh,
    h_affinity_gap,
    h_star,
    hellinger,
    kl,
    kleijn_certificate,
    markov_divergences,
    max_hellinger,
    mean_hellinger,
    stationary_divergences,
    weighted_hellinger,
)
from bayesrates.experiments import MarkovRegime
from bayesrates.models import MARKOV, FamilyMember, MarkovParam, uniform_prior
from helpers import (
    kl_contrast,
    markov_kvh_oracle,
    moment_constrained_triple,
    random_gaussian_mixture,
    v_divergence,
    v_star,
    weighted_hellinger_between,
)

GRID = default_grid()


def gauss_kl(m1, s1, m2, s2):
    """Closed-form kl between two Gaussians."""
    return math.log(s2 / s1) + (s1 ** 2 + (m1 - m2) ** 2) / (2 * s2 ** 2) - 0.5


def gauss_hellinger(m1, s1, m2, s2):
    bc = math.sqrt(2 * s1 * s2 / (s1 ** 2 + s2 ** 2)) * math.exp(
        -((m1 - m2) ** 2) / (4 * (s1 ** 2 + s2 ** 2))
    )
    return math.sqrt(2 * (1 - bc))


class TestGrid:
    def test_nodes_and_weights(self):
        g = Grid(0.0, 1.0, 5)
        assert_allclose(g.x, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert_allclose(g.quad_weights, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert g.integrate(np.ones(5)) == pytest.approx(1.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DivergenceError):
            Grid(1.0, 1.0, 5)
        with pytest.raises(DivergenceError):
            Grid(0.0, 1.0, 2)


class TestGridDensity:
    def test_normalization(self):
        d = gaussian_density(GRID, 0.3, 1.1)
        assert abs(GRID.integrate(d.values) - 1.0) < 1e-12

    def test_rejects_negative_values(self):
        with pytest.raises(DivergenceError):
            GridDensity(GRID, -np.ones(GRID.points))

    def test_truncated_tails_stay_positive(self):
        d = gaussian_density(GRID, -8.0, 0.1)
        assert np.all(d.values > 0.0)

    def test_moments(self):
        d = gaussian_density(GRID, 0.7, 1.3)
        assert d.mean() == pytest.approx(0.7, abs=1e-9)
        assert d.variance() == pytest.approx(1.69, abs=1e-8)

    def test_log_interp_matches_nodes_and_rejects_outside(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert d.log_interp(GRID.x[17]) == pytest.approx(d.log_values[17], abs=1e-12)
        mid = 0.5 * (GRID.x[100] + GRID.x[101])
        expected = 0.5 * (d.log_values[100] + d.log_values[101])
        assert d.log_interp(mid) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(OutsideGridError):
            d.log_interp(12.5)


class TestKl:
    def test_identical_is_zero(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert kl(d, d) == 0.0

    def test_gaussian_closed_form(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 1.0, 1.0)
        assert kl(f, g) == pytest.approx(0.5, abs=1e-5)

    def test_unequal_variance_closed_form(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 0.4, 1.5)
        assert kl(f, g) == pytest.approx(gauss_kl(0, 1, 0.4, 1.5), abs=1e-5)

    def test_asymmetric(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 0.5, 1.7)
        assert kl(f, g) != pytest.approx(kl(g, f), abs=1e-6)

    def test_grid_mismatch(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(Grid(-10.0, 10.0, 2001), 0.0, 1.0)
        with pytest.raises(GridMismatchError):
            kl(f, g)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = random_gaussian_mixture(rng, GRID)
            g = random_gaussian_mixture(rng, GRID)
            assert kl(f, g) >= 0.0

    def test_quadrature_doubling_stable(self):
        fine = Grid(GRID.lower, GRID.upper, 2 * GRID.points - 1)
        for m1, s1, m2, s2 in [(0.0, 1.0, 1.0, 1.0), (-0.5, 0.8, 0.7, 1.4)]:
            a = kl(gaussian_density(GRID, m1, s1), gaussian_density(GRID, m2, s2))
            b = kl(gaussian_density(fine, m1, s1), gaussian_density(fine, m2, s2))
            assert abs(a - b) < 1e-7
            ah = hellinger(gaussian_density(GRID, m1, s1), gaussian_density(GRID, m2, s2))
            bh = hellinger(gaussian_density(fine, m1, s1), gaussian_density(fine, m2, s2))
            assert abs(ah - bh) < 1e-7


class TestV:
    def test_identical_is_zero(self):
        d = gaussian_density(GRID, 0.5, 1.2)
        assert v_divergence(d, d) == 0.0

    def test_gaussian_location_closed_form(self):
        # log(f/g) for unit-sd location pair is linear in y, so v is
        # Var + mean^2 of a Gaussian functional: v = d^2 (1 + d^2/4)
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 1.0, 1.0)
        assert v_divergence(f, g) == pytest.approx(1.25, abs=1e-5)

    def test_nonnegative_and_dominates_kl_squared(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_gaussian_mixture(rng, GRID)
            g = random_gaussian_mixture(rng, GRID)
            v = v_divergence(f, g)
            assert v >= 0.0
            # Cauchy-Schwarz: kl^2 <= v
            assert kl(f, g) ** 2 <= v + 1e-12


class TestHellinger:
    def test_identical_is_zero(self):
        d = gaussian_density(GRID, 0.0, 1.0)
        assert hellinger(d, d) == 0.0

    def test_gaussian_closed_form(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 1.0, 1.0)
        assert hellinger(f, g) == pytest.approx(0.48478, abs=1e-5)
        assert hellinger(f, g) == pytest.approx(math.sqrt(2 * (1 - math.exp(-0.125))), abs=1e-9)

    def test_disjoint_supports_saturate(self):
        f = gaussian_density(GRID, -8.0, 0.1)
        g = gaussian_density(GRID, 8.0, 0.1)
        assert hellinger(f, g) == pytest.approx(SQRT2, abs=1e-6)

    def test_affinity_gap_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_gaussian_mixture(rng, GRID)
            g = random_gaussian_mixture(rng, GRID)
            assert abs(h_affinity_gap(f, g) - 0.5 * hellinger(f, g) ** 2) < 1e-9

    def test_affinity_gap_closed_form(self):
        f = gaussian_density(GRID, 0.0, 1.0)
        g = gaussian_density(GRID, 1.0, 1.0)
        assert h_affinity_gap(f, g) == pytest.approx(1 - math.exp(-0.125), abs=1e-6)

    def test_gap_bounded_by_kl(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_gaussian_mixture(rng, GRID)
            g = random_gaussian_mixture(rng, GRID)
            assert h_affinity_gap(f, g) <= kl(f, g) + 1e-9


class TestStarred:
    def test_contrast_zero_at_anchor(self):
        rng = np.random.default_rng(5)
        f_star = random_gaussian_mixture(rng, GRID)
        f_circ = random_gaussian_mixture(rng, GRID)
        assert kl_contrast(f_circ, f_circ, f_star) == 0.0

    def test_contrast_gaussian_triple(self):
        f_star = gaussian_density(GRID, 0.0, 1.0)
        f_circ = gaussian_density(GRID, 0.5, 1.0)
        f = gaussian_density(GRID, 1.5, 1.0)
        assert kl_contrast(f_circ, f, f_star) == pytest.approx(1.0, abs=1e-4)
        # direct form agrees with the difference of kls
        diff = kl(f_star, f) - kl(f_star, f_circ)
        assert kl_contrast(f_circ, f, f_star) == pytest.approx(diff, abs=1e-9)

    def test_reduction_when_anchor_is_truth(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            f_star = random_gaussian_mixture(rng, GRID)
            f = random_gaussian_mixture(rng, GRID)
            assert abs(kl_contrast(f_star, f, f_star) - kl(f_star, f)) < 1e-9
            assert abs(v_star(f_star, f, f_star) - v_divergence(f_star, f)) < 1e-9
            assert abs(weighted_hellinger(f_star, f, f_star) - hellinger(f_star, f)) < 1e-9
            assert abs(h_star(f_star, f, f_star) - h_affinity_gap(f_star, f)) < 1e-9

    def test_double_resolution_oracle(self):
        fine = Grid(GRID.lower, GRID.upper, 2 * GRID.points - 1)
        specs = [(0.0, 1.0), (0.5, 1.0), (1.5, 1.2)]
        coarse_triple = [gaussian_density(GRID, m, s) for m, s in specs]
        fine_triple = [gaussian_density(fine, m, s) for m, s in specs]
        for op in (kl_contrast, v_star, weighted_hellinger, h_star):
            a = op(coarse_triple[1], coarse_triple[2], coarse_triple[0])
            b = op(fine_triple[1], fine_triple[2], fine_triple[0])
            assert abs(a - b) < 1e-6

    def test_weighted_hellinger_between_is_metric_like(self):
        rng = np.random.default_rng(23)
        f_star = gaussian_density(GRID, 0.0, 1.0)
        f_circ = gaussian_density(GRID, 0.5, 1.0)
        f = gaussian_density(GRID, 2.5, 1.0)
        g = gaussian_density(GRID, 2.8, 1.0)
        dfg = weighted_hellinger_between(f, g, f_star=f_star, f_circ=f_circ)
        dgf = weighted_hellinger_between(g, f, f_star=f_star, f_circ=f_circ)
        assert dfg == dgf
        assert dfg > 0.0
        # consistency with the anchored form
        anchored = weighted_hellinger(f_circ, f, f_star)
        viapair = weighted_hellinger_between(f, f_circ, f_star=f_star, f_circ=f_circ)
        assert anchored == viapair

    def test_h_star_inequality_on_certified_triples(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            f_circ, f, f_star = moment_constrained_triple(rng, GRID)
            cert = kleijn_certificate(f_circ, f, f_star)
            assert cert <= 1.0 + 1e-9
            hs = h_star(f_circ, f, f_star)
            wh = weighted_hellinger(f_circ, f, f_star)
            assert 0.5 * wh * wh <= hs + 1e-9


class TestSequences:
    def test_identical_sequences_zero(self):
        seq = [gaussian_density(GRID, 0.1 * i, 1.0) for i in range(5)]
        assert mean_hellinger(seq, seq) == 0.0
        assert max_hellinger(seq, seq) == 0.0

    def test_closed_form_profile(self):
        deltas = [0.0, 0.25, 0.5, 0.75, 1.0]
        seq_a = [gaussian_density(GRID, 0.0, 1.0) for _ in deltas]
        seq_b = [gaussian_density(GRID, d, 1.0) for d in deltas]
        h2 = [2 * (1 - math.exp(-d * d / 8)) for d in deltas]
        assert mean_hellinger(seq_a, seq_b) == pytest.approx(math.sqrt(np.mean(h2)), abs=1e-5)
        assert max_hellinger(seq_a, seq_b) == pytest.approx(math.sqrt(max(h2)), abs=1e-5)

    def test_max_dominates_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            seq_a = [random_gaussian_mixture(rng, GRID, 2) for _ in range(k)]
            seq_b = [random_gaussian_mixture(rng, GRID, 2) for _ in range(k)]
            assert max_hellinger(seq_a, seq_b) >= mean_hellinger(seq_a, seq_b) - 1e-12

    def test_length_mismatch(self):
        a = [gaussian_density(GRID, 0.0, 1.0)]
        with pytest.raises(DivergenceError):
            mean_hellinger(a, a + a)


def markov_regime(thetas, theta_star=0.6, window=None, noise_sd=1.0) -> MarkovRegime:
    members = [
        FamilyMember(j, MARKOV, MarkovParam(t, noise_sd=noise_sd)) for j, t in enumerate(thetas)
    ]
    return MarkovRegime(
        uniform_prior(members), MarkovParam(theta_star, noise_sd=noise_sd), state_window=window
    )


def window_edge_hellinger(theta_a, theta_b, window, noise_sd=1.0):
    """Hellinger distance between the AR(1) transitions from the state ``window``."""
    gap = (theta_a - theta_b) * window / noise_sd
    return math.sqrt(-2.0 * math.expm1(-gap * gap / 8.0))


# coefficients of the exactness grid: near both unit roots, near-equal pairs,
# and each truth against itself plus 1e-7
EXACT_THETAS = (0.9999, -0.9999, 0.99, -0.99, 0.6, 0.59, -0.5, 0.0)


class TestMarkov:
    def test_equal_coefficients_vanish(self):
        assert markov_divergences(0.6, 0.6).kl == 0.0
        [(_, v, h_q)] = stationary_divergences(0.6, [0.6])
        assert v == pytest.approx(0.0, abs=1e-12)
        assert h_q == pytest.approx(0.0, abs=1e-12)
        reg = markov_regime((0.6, 0.3), window=5.0)
        assert reg.pair_dist(0, 0) == pytest.approx(0.0, abs=1e-12)
        assert reg.separation_gaps([0])[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta_star", [0.6, 0.3])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6])
    def test_kl_closed_form(self, theta_star, theta):
        expected = (theta_star - theta) ** 2 / (2 * (1 - theta_star ** 2))
        out = markov_divergences(theta_star, theta)
        assert out.kl == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_v_closed_form(self):
        # log ratio is linear in the innovation: per-state v = K_y^2 + (d y)^2
        # with d = theta_star - theta; stationary average has a closed form.
        theta_star, theta = 0.6, 0.2
        d = theta_star - theta
        var = 1.0 / (1 - theta_star ** 2)
        expected = (d ** 4) * 3 * var ** 2 / 4 + d ** 2 * var
        [(_, v, _)] = stationary_divergences(theta_star, [theta])
        assert v == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("theta_star", EXACT_THETAS)
    def test_exact_against_adaptive_reference(self, theta_star):
        thetas = [t for t in EXACT_THETAS if t != theta_star] + [theta_star + 1e-7]
        rows = stationary_divergences(theta_star, thetas)
        for theta, (k, v, h_q) in zip(thetas, rows):
            a = (theta_star - theta) ** 2 / (1 - theta_star ** 2)
            assert k == pytest.approx(a / 2, rel=1e-15, abs=0.0)
            assert v == pytest.approx(a + 3 * a * a / 4, rel=1e-15, abs=0.0)
            _, _, expected = markov_kvh_oracle(theta_star, theta)
            assert h_q == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_h_inf_truncated_window_oracle(self):
        theta_star, theta, window = 0.6, 0.3, 5.0
        reg = markov_regime((theta_star, theta), theta_star, window=window)
        expected = math.sqrt(2 * (1 - math.exp(-((theta_star - theta) ** 2) * window ** 2 / 8)))
        assert reg.pair_dist(0, 1) == pytest.approx(expected, abs=1e-6)
        assert reg.separation_gaps([1])[0] == pytest.approx(expected ** 2 / 2, abs=1e-6)

    def test_default_window_is_five_stationary_sds(self):
        members = [FamilyMember(0, MARKOV, MarkovParam(0.3))]
        reg = MarkovRegime(uniform_prior(members), MarkovParam(0.6))
        assert reg.state_window == pytest.approx(5.0 * ar1_stationary_sd(0.6))

    def test_stationary_h_q_between_bounds(self):
        reg = markov_regime((0.6, 0.2))
        assert reg.state_window == 5.0 * ar1_stationary_sd(0.6)
        assert 0.0 < reg.truth_dist(1) < reg.pair_dist(0, 1)

    @pytest.mark.parametrize("noise_sd", [1.0, 0.5])
    @pytest.mark.parametrize("d", [0.0, 0.25, 1.0, 3.0])
    def test_gaussian_shift_kvh_against_quadrature(self, d, noise_sd):
        f = gaussian_density(GRID, 0.0, noise_sd)
        g = gaussian_density(GRID, d * noise_sd, noise_sd)
        got = gaussian_shift_kvh(d * d)
        expected = (kl(f, g), v_star(f, g, f), hellinger(f, g) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("noise_sd", [1.0, 0.8])
    @pytest.mark.parametrize("window", [2.0, 5.0])
    def test_state_sup_equals_regime_pair_dist(self, window, noise_sd):
        # atom 0 is the truth, so its pair distances are the separation gaps'
        thetas = (0.6, -0.3, 0.5)
        reg = markov_regime(thetas, window=window, noise_sd=noise_sd)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            expected = window_edge_hellinger(thetas[a], thetas[b], window, noise_sd)
            assert reg.pair_dist(a, b) == pytest.approx(expected, rel=1e-13)
        for b in (1, 2):
            assert reg.separation_gaps([b])[0] == 0.5 * reg.pair_dist(0, b) ** 2

    def test_state_sup_helper_matches(self):
        # the sup over a sweep of the window, by quadrature, sits at its edge
        a = markov_regime((0.6, 0.3), window=5.0).pair_dist(0, 1)
        swept = max(
            hellinger(gaussian_density(GRID, 0.6 * y, 1.0), gaussian_density(GRID, 0.3 * y, 1.0))
            for y in np.linspace(-5.0, 5.0, 41)
        )
        assert a == pytest.approx(swept, abs=1e-12)

    @pytest.mark.parametrize("theta_star", [0.6, 0.2, -0.5])
    def test_all_atoms_form_equals_per_atom_oracle(self, theta_star):
        thetas = [0.6, -0.3, 0.9]
        rows = stationary_divergences(theta_star, thetas)
        for theta, row in zip(thetas, rows):
            assert markov_divergences(theta_star, theta).kl == row[0]
            if theta == theta_star:
                assert row == (0.0, 0.0, 0.0)
            else:
                expected = markov_kvh_oracle(theta_star, theta)
                assert row == pytest.approx(expected, rel=1e-12)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonstationaryError):
            stationary_divergences(0.6, [0.3, -1.0])
        with pytest.raises(NonstationaryError):
            markov_divergences(1.0, 0.3)
        with pytest.raises(NonstationaryError):
            ar1_stationary_sd(-1.01)

    def test_kl_closed_form_near_a_unit_root(self):
        # 6 stationary sds of 0.95 is 19.2, so the transitions from the
        # averaged states reach past a +-12 grid; the closed form needs none
        expected = (0.95 - 0.3) ** 2 / (2 * (1 - 0.95 ** 2))
        assert markov_divergences(0.95, 0.3).kl == pytest.approx(expected, rel=1e-15, abs=0.0)


# hypothesis property checks ------------------------------------------------

small_grid = Grid(-12.0, 12.0, 801)
means = st.floats(-3.0, 3.0)
sds = st.floats(0.5, 2.0)


@settings(max_examples=60, deadline=None)
@given(m1=means, s1=sds, m2=means, s2=sds)
def test_hellinger_symmetry_exact(m1, s1, m2, s2):
    f = gaussian_density(small_grid, m1, s1)
    g = gaussian_density(small_grid, m2, s2)
    assert hellinger(f, g) == hellinger(g, f)


@settings(max_examples=60, deadline=None)
@given(m1=means, s1=sds, m2=means, s2=sds, m3=means, s3=sds)
def test_hellinger_triangle(m1, s1, m2, s2, m3, s3):
    f = gaussian_density(small_grid, m1, s1)
    g = gaussian_density(small_grid, m2, s2)
    h = gaussian_density(small_grid, m3, s3)
    assert hellinger(f, h) <= hellinger(f, g) + hellinger(g, h) + 1e-9


@settings(max_examples=60, deadline=None)
@given(m1=means, s1=sds, m2=means, s2=sds)
def test_kl_nonnegative_and_range(m1, s1, m2, s2):
    f = gaussian_density(small_grid, m1, s1)
    g = gaussian_density(small_grid, m2, s2)
    assert kl(f, g) >= 0.0
    assert 0.0 <= hellinger(f, g) <= SQRT2
    assert abs(h_affinity_gap(f, g) - 0.5 * hellinger(f, g) ** 2) < 1e-9
