"""Sequential updating against hand Bayes, brute-force joints, and path identities.

The restricted numerator path and the posterior masses are computed by the
replication engine from its cumulative log-ratio matrix; the sequential
posterior here is their oracle.
"""
import math

import numpy as np
import pytest

from bayesrates.divergences import Grid, default_grid, gaussian_density
from bayesrates.experiments import (
    ExperimentError,
    ExperimentPlan,
    IidRegime,
    MarkovRegime,
    MarkovSample,
    RegressionRegime,
    generate_data,
    replicate,
)
from bayesrates.geometry import RateSchedule
from bayesrates.inference import (
    FactorizationReport,
    InferenceError,
    conditional_sqrt_ratio_identity,
    factorization_check,
    initial_state,
    predictive_density,
    predictive_logpdf,
    update,
)
from bayesrates.models import (
    IID,
    AtomicPrior,
    FamilyMember,
    MARKOV,
    MarkovParam,
    REGRESSION,
    build_gaussian_location_family,
    linear_regression_function,
    log_likelihood,
    uniform_prior,
)
from bayesrates.numerics import logsumexp

from helpers import cumulative_log_ratio, ref_loglik, softmax

GRID = default_grid()


def location_prior(means, weights=None):
    fam = build_gaussian_location_family(GRID, means)
    return uniform_prior(fam) if weights is None else AtomicPrior(fam, weights)


def markov_prior(thetas):
    members = [
        FamilyMember(id=j, kind=MARKOV, payload=MarkovParam(t)) for j, t in enumerate(thetas)
    ]
    return uniform_prior(members)


def regression_prior(slopes, n_design):
    members = [
        FamilyMember(id=j, kind=REGRESSION, payload=linear_regression_function(s, n_design))
        for j, s in enumerate(slopes)
    ]
    return uniform_prior(members)


def log_phi(y, mean, sd=1.0):
    z = (y - mean) / sd
    return -0.5 * z * z - math.log(sd * math.sqrt(2.0 * math.pi))


class TestUpdate:
    def test_two_atom_hand_bayes(self):
        prior = location_prior([0.0, 1.0], weights=[0.3, 0.7])
        y = float(GRID.x[2200])
        state = update(initial_state(prior), y)
        raw = np.array([0.3 * math.exp(log_phi(y, 0.0)), 0.7 * math.exp(log_phi(y, 1.0))])
        np.testing.assert_allclose(softmax(state.log_weights), raw / raw.sum(), atol=1e-9)

    def test_weights_match_direct_loglik_accumulation(self):
        rng = np.random.default_rng(7)
        prior = location_prior([-1.0, 0.0, 0.5, 2.0])
        data = rng.normal(0.0, 1.0, size=15)
        state = initial_state(prior)
        totals = np.log(prior.weights).copy()
        for y in data:
            state = update(state, float(y))
            totals += np.array([log_likelihood(m, float(y)) for m in prior.members])
        expect = np.exp(totals - totals.max())
        expect /= expect.sum()
        np.testing.assert_allclose(softmax(state.log_weights), expect, atol=1e-10)

    def test_markov_first_step_uses_stationary_law(self):
        prior = markov_prior([0.3, 0.6])
        data = [0.5, -0.2]
        state = initial_state(prior)
        for y in data:
            state = update(state, y)
        logw = []
        for theta in (0.3, 0.6):
            sd0 = 1.0 / math.sqrt(1.0 - theta * theta)
            logw.append(
                math.log(0.5) + log_phi(0.5, 0.0, sd0) + log_phi(-0.2, theta * 0.5)
            )
        logw = np.array(logw)
        expect = np.exp(logw - logw.max())
        expect /= expect.sum()
        np.testing.assert_allclose(softmax(state.log_weights), expect, atol=1e-12)

    def test_regression_indices_advance_with_sample_size(self):
        n = 6
        prior = regression_prior([0.0, 2.0], n)
        rng = np.random.default_rng(3)
        data = rng.normal(size=n)
        state = initial_state(prior)
        for y in data:
            state = update(state, float(y))
        design = np.arange(1, n + 1) / n
        logw = np.array(
            [math.log(0.5) + sum(log_phi(y, s * x) for y, x in zip(data, design))
             for s in (0.0, 2.0)]
        )
        expect = np.exp(logw - logw.max())
        expect /= expect.sum()
        np.testing.assert_allclose(softmax(state.log_weights), expect, atol=1e-10)

    def test_reference_kind_must_match(self):
        prior = location_prior([0.0, 1.0])
        alien = FamilyMember(id=9, kind=MARKOV, payload=MarkovParam(0.2))
        with pytest.raises(InferenceError, match="kind"):
            initial_state(prior, reference=alien)

    def test_exchangeable_data_orders_agree(self):
        rng = np.random.default_rng(5)
        prior = location_prior([0.0, 1.0, -1.0])
        data = rng.normal(size=12)
        a = initial_state(prior)
        for y in data:
            a = update(a, float(y))
        b = initial_state(prior)
        for y in data[::-1]:
            b = update(b, float(y))
        np.testing.assert_allclose(softmax(a.log_weights), softmax(b.log_weights), atol=1e-10)
        assert abs(logsumexp(a.log_weights) - logsumexp(b.log_weights)) < 1e-9


class TestFactorization:
    @pytest.mark.parametrize(
        "prior,seed",
        [
            (location_prior(list(np.linspace(-2, 2, 10))), 1),
            (markov_prior([-0.5, 0.0, 0.3, 0.6, 0.8]), 2),
            (regression_prior([0.0, 0.5, 1.0, 3.0], 20), 3),
        ],
        ids=["iid", "markov", "regression"],
    )
    def test_direct_equals_factored(self, prior, seed):
        rng = np.random.default_rng(seed)
        data = [float(y) for y in rng.normal(0.0, 1.0, size=20)]
        report = factorization_check(prior, data)
        assert isinstance(report, FactorizationReport)
        assert report.abs_diff < 1e-9

    def test_factored_value_ignores_reference_choice(self):
        rng = np.random.default_rng(9)
        prior = location_prior([0.0, 0.5, 1.5])
        data = [float(y) for y in rng.normal(size=10)]
        r0 = factorization_check(prior, data, reference=prior.members[0])
        r2 = factorization_check(prior, data, reference=prior.members[2])
        assert abs(r0.log_joint_factored - r2.log_joint_factored) < 1e-10
        assert r0.log_joint_direct == r2.log_joint_direct


def restricted_log_path(regime, data, subset):
    """The engine's restricted numerator path: logsumexp of the subset rows."""
    rows = [regime.prior.index_of(m) for m in sorted(set(subset))]
    return logsumexp(cumulative_log_ratio(regime, data)[rows], axis=0)


class TestRestrictedPath:
    def test_full_set_path_is_evidence_ratio_path(self):
        rng = np.random.default_rng(21)
        prior = location_prior([0.0, 0.8, -0.8, 1.6])
        regime = IidRegime(prior, gaussian_density(GRID, 0.0, 1.0))
        data = rng.normal(size=18)
        path = restricted_log_path(regime, data, [m.id for m in prior.members])
        state = initial_state(prior, regime.reference)
        direct = [logsumexp(state.log_weights)]
        for y in data:
            state = update(state, float(y))
            direct.append(logsumexp(state.log_weights))
        np.testing.assert_allclose(path, np.array(direct), atol=1e-10)

    def test_singleton_path_telescopes_loglik_differences(self):
        rng = np.random.default_rng(22)
        prior = location_prior([0.0, 1.0, 2.0])
        ref = prior.members[0]
        regime = IidRegime(prior, ref.density)
        data = rng.normal(size=25)
        path = restricted_log_path(regime, data, [2])
        acc = math.log(prior.weights[2])
        expect = [acc]
        for y in data:
            acc += log_likelihood(prior.members[2], float(y)) - log_likelihood(ref, float(y))
            expect.append(acc)
        np.testing.assert_allclose(path, np.array(expect), atol=1e-10)
        assert path[0] == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize(
        "regime,subset,seed",
        [
            (IidRegime(location_prior(list(np.linspace(-1.5, 1.5, 7))),
                       gaussian_density(GRID, 0.0, 1.0)), [4, 5, 6], 31),
            (MarkovRegime(markov_prior([-0.4, 0.1, 0.5, 0.7]), MarkovParam(0.5)), [0, 3], 32),
            (RegressionRegime(regression_prior([0.0, 1.0, 2.0, 2.5], 30),
                              linear_regression_function(0.0, 30)), [2, 3], 33),
        ],
        ids=["iid", "markov", "regression"],
    )
    def test_ratio_identity_holds_stepwise(self, regime, subset, seed):
        # each increment is the log ratio of the restricted predictive to the
        # reference density at the new observation
        data = generate_data(regime, 30, seed)
        y0 = data.y0 if isinstance(data, MarkovSample) else None
        y_seq = data.y if isinstance(data, MarkovSample) else data
        path = restricted_log_path(regime, data, subset)
        ref_ll = ref_loglik(regime, data)
        assert len(path) == len(y_seq) + 1
        state = initial_state(regime.prior, regime.reference, y0=y0)
        for i, y in enumerate(y_seq):
            step = predictive_logpdf(state, float(y), member_ids=subset) - ref_ll[i]
            assert abs((path[i + 1] - path[i]) - step) <= 1e-10
            state = update(state, float(y))

    def test_empty_subset_rejected(self):
        regime = IidRegime(location_prior([0.0, 1.0]), gaussian_density(GRID, 0.0, 1.0))
        with pytest.raises(ExperimentError, match="subset_ids"):
            ExperimentPlan(regime=regime, schedule=RateSchedule((10,)), replications=1,
                           seed=0, collect=("sqrt_l",), subset_ids=())

    def test_duplicate_ids_collapse(self):
        regime = IidRegime(location_prior([0.0, 1.0, 2.0]), gaussian_density(GRID, 0.0, 1.0))
        stats = [
            replicate(ExperimentPlan(regime=regime, schedule=RateSchedule((5, 10)),
                                     replications=1, seed=3, collect=("sqrt_l",),
                                     subset_ids=ids), 0).stats["sqrt_l"]
            for ids in ((1,), (1, 1))
        ]
        np.testing.assert_array_equal(stats[0], stats[1])


class TestPredictive:
    def test_iid_predictive_is_weighted_member_mixture(self):
        prior = location_prior([0.0, 1.2], weights=[0.25, 0.75])
        state = update(initial_state(prior), 0.4)
        pred = predictive_density(state)
        w = softmax(state.log_weights)
        manual = w[0] * prior.members[0].density.values + w[1] * prior.members[1].density.values
        np.testing.assert_allclose(pred.values, manual, atol=1e-12)

    def test_restricted_predictive_renormalizes_within_subset(self):
        prior = location_prior([0.0, 1.0, 2.0])
        state = update(initial_state(prior), 0.9)
        pred = predictive_density(state, member_ids=[0, 2])
        w = softmax(state.log_weights)
        wa = np.array([w[0], w[2]]) / (w[0] + w[2])
        manual = wa[0] * prior.members[0].density.values + wa[1] * prior.members[2].density.values
        np.testing.assert_allclose(pred.values, manual, atol=1e-12)

    def test_markov_predictive_before_data_is_stationary_mixture(self):
        prior = markov_prior([0.0, 0.6])
        pred = predictive_density(initial_state(prior))
        manual = 0.5 * gaussian_density(GRID, 0.0, 1.0).values + 0.5 * gaussian_density(
            GRID, 0.0, 1.0 / math.sqrt(1.0 - 0.36)
        ).values
        np.testing.assert_allclose(pred.values, manual, rtol=1e-10, atol=1e-12)

    def test_markov_predictive_conditions_on_last_observation(self):
        prior = markov_prior([0.5])
        state = update(initial_state(prior), 1.4)
        pred = predictive_density(state)
        manual = gaussian_density(GRID, 0.5 * 1.4, 1.0)
        np.testing.assert_allclose(pred.values, manual.values, rtol=1e-9, atol=1e-12)

    def test_regression_predictive_uses_next_design_point(self):
        n = 4
        prior = regression_prior([2.0], n)
        state = update(initial_state(prior), 0.1)
        pred = predictive_density(state)
        manual = gaussian_density(GRID, 2.0 * (2 / n), 1.0)
        np.testing.assert_allclose(pred.values, manual.values, rtol=1e-9, atol=1e-12)

    def test_regression_predictive_past_design_end_rejected(self):
        prior = regression_prior([1.0], 2)
        state = initial_state(prior)
        for y in (0.0, 0.1):
            state = update(state, y)
        with pytest.raises(InferenceError, match="design exhausted"):
            predictive_density(state)

    def test_logpdf_matches_materialized_density_at_nodes(self):
        prior = location_prior([0.0, 0.7, -0.9])
        state = update(initial_state(prior), 0.25)
        pred = predictive_density(state)
        for k in (1500, 2000, 2600):
            y = float(GRID.x[k])
            assert predictive_logpdf(state, y) == pytest.approx(
                pred.log_interp(y), abs=1e-9
            )


class TestSqrtRatioIdentity:
    def test_iid_identity_against_reference(self):
        rng = np.random.default_rng(41)
        prior = location_prior([0.0, 0.5, 1.0, 1.5])
        state = initial_state(prior)
        for y in rng.normal(size=8):
            state = update(state, float(y))
        rep = conditional_sqrt_ratio_identity(state, member_ids=[2, 3])
        assert rep.abs_diff < 1e-9
        assert rep.lhs <= 1.0 + 1e-9

    def test_iid_identity_against_external_truth(self):
        prior = location_prior([0.0, 1.0])
        f_star = gaussian_density(GRID, 0.25, 1.1)
        truth = FamilyMember(id=-1, kind=IID, payload=f_star)
        state = update(initial_state(prior, reference=truth), 0.6)
        rep = conditional_sqrt_ratio_identity(state)
        assert rep.abs_diff < 1e-9

    def test_markov_identity_conditions_on_state(self):
        prior = markov_prior([0.2, 0.6])
        state = update(update(initial_state(prior), 0.8), -0.3)
        rep = conditional_sqrt_ratio_identity(state, member_ids=[1])
        assert rep.abs_diff < 1e-9
        assert rep.lhs < 1.0


class TestMassAndDump:
    def test_posterior_mass_sums_normalized_weights(self):
        prior = location_prior([0.0, 1.0, 2.0])
        regime = IidRegime(prior, gaussian_density(GRID, 0.0, 1.0))
        plan = ExperimentPlan(regime=regime, schedule=RateSchedule((1, 6)), replications=1,
                              seed=4, collect=("posterior_mass",), b_sets=((0, 2), (0, 1, 2)))
        got = replicate(plan, 0).stats["posterior_mass"]
        state = initial_state(prior)
        for k, y in enumerate(generate_data(regime, 6, plan.seed), start=1):
            state = update(state, float(y))
            if k == 1:
                w = softmax(state.log_weights)
                assert got[0] == pytest.approx(w[0] + w[2], abs=1e-12)
        assert got[1] == pytest.approx(1.0, abs=1e-12)
