"""Tests for the sampling regimes, the replication engine, and the verifiers."""
import math
import tracemalloc
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

from bayesrates import inference
from bayesrates.cli import build_regime, parse_config
from bayesrates.divergences import (
    SWEEP_POINTS,
    Grid,
    default_grid,
    gaussian_density,
    h_affinity_gap,
    hellinger,
    kl,
    mixture_density,
    weighted_hellinger_between,
)
from bayesrates.experiments import (
    ExperimentError,
    ExperimentPlan,
    IidRegime,
    MarkovRegime,
    MisspecifiedRegime,
    RegressionRegime,
    ReplicationRecord,
    SubsetNotAdmissibleError,
    _affinity_gaps,
    _density_stride,
    _gaussian_mixture_kls,
    _triangle_bound,
    certify_subset,
    concentration_sets,
    cumulative_log_ratio,
    fit_rate,
    fitted_thickness_constant,
    generate_data,
    mean_and_se,
    posterior_mass_path,
    replicate,
    run_replications,
    stat_matrix,
    stat_quantile,
    thickness_records,
    verify_evidence_bound,
    verify_numerator_bound,
)
from bayesrates.geometry import ConditionParams, RateSchedule
from bayesrates.numerics import logsumexp, softmax
from bayesrates.models import (
    MARKOV,
    REGRESSION,
    AtomicPrior,
    FamilyMember,
    MarkovParam,
    MisspecifiedSetup,
    build_gaussian_location_family,
    linear_regression_function,
    uniform_prior,
)

from helpers import (
    gaussian_affinity_gaps_oracle,
    gaussian_mixture_kls_oracle,
    iid_cesaro_oracle,
    markov_kvh_oracle,
    v_divergence,
)

GRID = default_grid()
WIDE = Grid(-24.0, 24.0, 8001)
UNIT_STRIDE = _density_stride(GRID, 1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MARKOV_CONFIG = CONFIGS / "markov.yaml"


def iid_regime(means=(0.0, 0.3, 2.0), truth_mean=0.0):
    fam = build_gaussian_location_family(GRID, list(means))
    return IidRegime(uniform_prior(fam), gaussian_density(GRID, truth_mean, 1.0))


def miss_regime(means=(0.5, 1.5), truth_mean=0.0, projection_id=0):
    fam = build_gaussian_location_family(GRID, list(means))
    setup = MisspecifiedSetup(
        prior=uniform_prior(fam),
        true_density=gaussian_density(GRID, truth_mean, 1.0),
        projection_id=projection_id,
    )
    return MisspecifiedRegime(setup)


def regression_regime(slopes=(0.0, 0.4, 3.0), truth_slope=0.0, length=250):
    members = [
        FamilyMember(j, REGRESSION, linear_regression_function(s, length))
        for j, s in enumerate(slopes)
    ]
    return RegressionRegime(
        uniform_prior(members), linear_regression_function(truth_slope, length)
    )


def markov_regime(thetas=(0.6, 0.3, -0.4), theta_star=0.6, **kwargs):
    members = [FamilyMember(j, MARKOV, MarkovParam(t)) for j, t in enumerate(thetas)]
    return MarkovRegime(uniform_prior(members), MarkovParam(theta_star), **kwargs)


class TestSampling:
    def test_generate_data_is_deterministic(self):
        reg = iid_regime()
        a = generate_data(reg, 40, seed=123)
        b = generate_data(reg, 40, seed=123)
        assert np.array_equal(a, b)
        mk = markov_regime()
        s1 = generate_data(mk, 40, seed=9)
        s2 = generate_data(mk, 40, seed=9)
        assert s1.y0 == s2.y0 and np.array_equal(s1.y, s2.y)

    def test_iid_sample_mean_matches_truth(self):
        reg = iid_regime(truth_mean=0.3)
        data = generate_data(reg, 100_000, seed=7)
        assert abs(data.mean() - 0.3) < 3.0 / math.sqrt(100_000)

    def test_markov_lag_one_autocorrelation(self):
        reg = markov_regime(theta_star=0.6)
        s = generate_data(reg, 100_000, seed=5)
        y = s.y
        r = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(r - 0.6) < 0.01

    def test_markov_start_is_stationary(self):
        reg = markov_regime(theta_star=0.6)
        starts = np.array([generate_data(reg, 1, seed=s).y0 for s in range(3000)])
        target = 1.0 / math.sqrt(1.0 - 0.36)
        assert abs(starts.std() - target) < 0.05 * target

    def test_regression_sampling_and_length_guard(self):
        reg = regression_regime(truth_slope=2.0, length=60)
        data = generate_data(reg, 60, seed=3)
        resid = data - np.asarray(reg.truth.values_at_design)
        assert abs(resid.mean()) < 3.0 / math.sqrt(60)
        with pytest.raises(ExperimentError, match="design has 60 points"):
            generate_data(reg, 61, seed=3)

    def test_regime_kind_mismatch(self):
        fam = build_gaussian_location_family(GRID, [0.0])
        with pytest.raises(ExperimentError, match="chain atoms"):
            MarkovRegime(uniform_prior(fam), MarkovParam(0.5))
        members = [FamilyMember(0, MARKOV, MarkovParam(0.2))]
        with pytest.raises(ExperimentError, match="density atoms"):
            IidRegime(uniform_prior(members), gaussian_density(GRID, 0.0, 1.0))

    def test_markov_noise_sd_must_match(self):
        members = [
            FamilyMember(0, MARKOV, MarkovParam(0.2, noise_sd=1.0)),
            FamilyMember(1, MARKOV, MarkovParam(0.4, noise_sd=2.0)),
        ]
        with pytest.raises(ExperimentError, match="noise sd"):
            MarkovRegime(uniform_prior(members), MarkovParam(0.2, noise_sd=1.0))


class TestEngine:
    @pytest.mark.parametrize("make", [iid_regime, regression_regime, markov_regime])
    def test_cumulative_matrix_matches_sequential_updates(self, make):
        reg = make()
        data = generate_data(reg, 25, seed=11)
        cum = cumulative_log_ratio(reg, data)
        if isinstance(data, np.ndarray):
            y_seq, y0 = data, None
        else:
            y_seq, y0 = data.y, data.y0
        state = inference.initial_state(reg.prior, reg.reference, y0=y0)
        assert np.allclose(cum[:, 0], np.log(reg.prior.weights), atol=1e-12)
        for i, y in enumerate(y_seq, start=1):
            state = inference.update(state, float(y))
            assert np.max(np.abs(state.log_weights - cum[:, i])) < 1e-10
        lse = logsumexp(state.log_weights)
        direct = math.log(np.exp(cum[:, -1] - cum[:, -1].max()).sum()) + cum[:, -1].max()
        assert abs(lse - direct) < 1e-10

    def test_replications_are_deterministic(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((20, 50)),
            replications=8,
            seed=77,
            collect=("log_evidence", "cesaro_kl"),
        )
        a = run_replications(plan)
        b = run_replications(plan)
        for key in ("log_evidence", "cesaro_kl"):
            assert np.array_equal(stat_matrix(a, key), stat_matrix(b, key))

    @pytest.mark.parametrize(
        "make, stat",
        [(iid_regime, "log_evidence"), (markov_regime, "cesaro_kl"),
         (partial(miss_regime, means=(0.5, 1.5, 2.5, 3.0)), "cesaro_kl")],
        ids=["iid-log_evidence", "markov-cesaro_kl", "misspecified-cesaro_kl"],
    )
    def test_parallel_matches_serial(self, make, stat):
        plan = ExperimentPlan(
            regime=make(),
            schedule=RateSchedule((20, 50)),
            replications=6,
            seed=5,
            collect=(stat,),
        )
        serial = run_replications(plan, jobs=1)
        parallel = run_replications(plan, jobs=2)
        assert np.array_equal(stat_matrix(serial, stat), stat_matrix(parallel, stat))

    def test_singleton_subset_numerator_path(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((10, 30)),
            replications=1,
            seed=21,
            collect=("sqrt_l",),
            subset_ids=(2,),
        )
        rec = replicate(plan, 0)
        data = generate_data(reg, 30, seed=21)
        cum = cumulative_log_ratio(reg, data)
        for k, n in enumerate((10, 30)):
            assert rec.stats["sqrt_l"][k] == pytest.approx(
                math.exp(0.5 * cum[2, n]), rel=1e-12
            )

    def test_mass_columns_and_empty_far_set(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((15, 40)),
            replications=3,
            seed=1,
            collect=("posterior_mass", "u_mass"),
            b_sets=((1, 2), ()),
            u_set=(0,),
        )
        recs = run_replications(plan)
        for r in recs:
            m = r.stats["posterior_mass"]
            assert 0.0 <= m[0] <= 1.0
            assert m[1] == 0.0
            assert 0.0 <= r.stats["u_mass"][0] <= 1.0

    def test_records_sorted_by_id(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg, schedule=RateSchedule((10,)), replications=5, seed=3
        )
        recs = run_replications(plan)
        assert [r.rep_id for r in recs] == [0, 1, 2, 3, 4]

    def test_aggregation_helpers(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg, schedule=RateSchedule((10, 20)), replications=12, seed=8
        )
        recs = run_replications(plan)
        mean, se = mean_and_se(recs, "log_evidence")
        mat = stat_matrix(recs, "log_evidence")
        assert mean == pytest.approx(mat.mean(axis=0))
        assert se == pytest.approx(mat.std(axis=0, ddof=1) / math.sqrt(12))
        med = stat_quantile(recs, "log_evidence", 0.5)
        assert med == pytest.approx(np.median(mat, axis=0))


class TestCesaro:
    def test_truth_only_prior_gives_zero(self):
        fam = build_gaussian_location_family(GRID, [0.0])
        reg = IidRegime(uniform_prior(fam), fam[0].density)
        rec = replicate(
            ExperimentPlan(
                regime=reg,
                schedule=RateSchedule((25,)),
                replications=1,
                seed=4,
                collect=("cesaro_kl",),
            ),
            0,
        )
        assert rec.stats["cesaro_kl"][0] <= 1e-12

    def test_projection_only_prior_gives_zero_contrast(self):
        reg = miss_regime(means=(0.5,), projection_id=0)
        rec = replicate(
            ExperimentPlan(
                regime=reg,
                schedule=RateSchedule((25,)),
                replications=1,
                seed=4,
                collect=("cesaro_kl",),
            ),
            0,
        )
        assert abs(rec.stats["cesaro_kl"][0]) <= 1e-12

    def test_two_atoms_match_direct_quadrature(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0])
        truth = gaussian_density(GRID, 0.0, 1.0)
        reg = IidRegime(uniform_prior(fam), truth)
        data = generate_data(reg, 30, seed=17)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        fast = reg.cesaro_kls(data, w)
        kern = GRID.quad_weights * truth.values
        entropy = kern @ truth.log_values
        v0, v1 = fam[0].density.values, fam[1].density.values
        direct = np.array(
            [
                entropy - kern @ np.log(w[0, i] * v0 + w[1, i] * v1)
                for i in range(w.shape[1])
            ]
        )
        assert np.max(np.abs(fast - np.maximum(direct, 0.0))) <= 1e-14

    def test_markov_one_hot_weights_give_state_conditional_kl(self):
        reg = markov_regime(thetas=(0.6, 0.2))
        sample = generate_data(reg, 20, seed=6)
        prev = np.concatenate(([sample.y0], sample.y[:-1]))
        w = np.zeros((2, 20))
        w[1] = 1.0
        got = reg.cesaro_kls(sample, w)
        expect = (0.6 - 0.2) ** 2 * prev * prev / 2.0
        assert np.max(np.abs(got - expect)) < 1e-7

    def test_regression_one_hot_running_mean_matches_kv(self):
        reg = regression_regime(slopes=(0.0, 0.4), truth_slope=0.0, length=50)
        data = generate_data(reg, 50, seed=12)
        w = np.zeros((2, 50))
        w[1] = 1.0
        kls = reg.cesaro_kls(data, w)
        running = kls.cumsum() / np.arange(1, 51)
        assert running[-1] == pytest.approx(reg.atom_kv(50)[1, 0], abs=1e-7)

    def test_average_predictive_gap_below_mean_step_gap(self):
        # convexity: the affinity gap of the averaged predictive never exceeds
        # the average of the per-step predictive gaps
        fam = build_gaussian_location_family(GRID, [0.0, 0.8, -0.5])
        prior = uniform_prior(fam)
        truth = gaussian_density(GRID, 0.0, 1.0)
        reg = IidRegime(prior, truth)
        data = generate_data(reg, 12, seed=19)
        state = inference.initial_state(prior)
        gaps = []
        for y in data:
            gaps.append(h_affinity_gap(truth, inference.predictive_density(state)))
            state = inference.update(state, float(y))
        states = [inference.initial_state(prior)]
        for y in data[:-1]:
            states.append(inference.update(states[-1], float(y)))
        # rebuild the running average of predictives directly
        preds = []
        st = inference.initial_state(prior)
        for y in data:
            preds.append(inference.predictive_density(st))
            st = inference.update(st, float(y))
        from bayesrates.divergences import mixture_density

        avg = mixture_density(preds, np.full(len(preds), 1.0 / len(preds)))
        assert h_affinity_gap(truth, avg) <= np.mean(gaps) + 1e-9


class TestFastPathOracles:
    """The blocked iid Cesaro kernel equals its reference form in ``helpers``
    bit for bit, and the Gaussian-mixture kernel matches the x-grid
    quadrature on +-24 to 1e-15 per step; the closed-form stationary
    divergences match the transition-row quadrature to rounding."""

    @pytest.mark.parametrize("name", ["iid", "misspecified"])
    def test_iid_config_replications(self, name):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        n = cfg.schedule.n_values[-1]
        for rep in range(6):
            data = generate_data(reg, n, seed=cfg.seed + rep)
            w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
            assert np.array_equal(reg.cesaro_kls(data, w),
                                  iid_cesaro_oracle(reg, w, UNIT_STRIDE))

    @pytest.mark.parametrize("n", [1, 31, 33, 400])
    @pytest.mark.parametrize("atoms", [2, 3, 5, 10])
    def test_iid_random_atoms(self, atoms, n):
        rng = np.random.default_rng(100 * atoms + n)
        reg = iid_regime(means=tuple(rng.normal(0.0, 1.5, atoms)), truth_mean=0.1)
        w = rng.dirichlet(np.ones(atoms), size=n).T
        assert np.array_equal(reg.cesaro_kls(None, w),
                              iid_cesaro_oracle(reg, w, UNIT_STRIDE))

    @pytest.mark.parametrize("atoms", [3, 5, 10])
    def test_iid_random_atoms_past_blas_row_blocking(self, atoms):
        """At 401 steps the whole-matrix product itself rounds some steps
        by other BLAS kernels than at 400 (past its row blocking, and by
        thread count), so it is matched to rounding, not bit for bit; the
        blocked kernel gives the first 400 steps the same bits either way."""
        rng = np.random.default_rng(atoms)
        reg = iid_regime(means=tuple(rng.normal(0.0, 1.5, atoms)), truth_mean=0.1)
        w = rng.dirichlet(np.ones(atoms), size=401).T
        got = reg.cesaro_kls(None, w)
        assert np.max(np.abs(got - iid_cesaro_oracle(reg, w, UNIT_STRIDE))) <= 1e-13
        assert np.array_equal(got[:400], reg.cesaro_kls(None, w[:, :400]))

    def test_iid_kernel_builds_no_full_matrix(self):
        cfg = parse_config(CONFIGS / "iid.yaml")
        reg = build_regime(cfg)
        data = generate_data(reg, 400, seed=cfg.seed)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        tracemalloc.start()
        try:
            reg.cesaro_kls(data, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_markov_config_replications(self):
        cfg = parse_config(MARKOV_CONFIG)
        reg = build_regime(cfg)
        n = cfg.schedule.n_values[-1]
        thetas = np.array([m.payload.theta for m in reg.prior.members])
        for rep in range(4):
            sample = generate_data(reg, n, seed=cfg.seed + rep)
            w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
            prev = np.concatenate(([sample.y0], sample.y[:-1]))
            expected = gaussian_mixture_kls_oracle(
                WIDE, thetas[:, None] * prev[None, :], reg.theta_star.theta * prev,
                reg.noise_sd, w,
            )
            assert np.max(np.abs(reg.cesaro_kls(sample, w) - expected)) <= 1e-15

    def test_regression_inputs(self):
        reg = regression_regime(slopes=(0.0, 0.4, 3.0, -1.0), length=120)
        data = generate_data(reg, 120, seed=8)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        means = np.stack([m.payload.values_at_design for m in reg.prior.members])
        expected = gaussian_mixture_kls_oracle(
            WIDE, means, np.asarray(reg.truth.values_at_design), 1.0, w
        )
        assert np.max(np.abs(reg.cesaro_kls(data, w) - expected)) <= 1e-15

    @staticmethod
    def _check_random_four_atoms(seed, sd):
        """Far-apart components, offsets spread over up to 15 sds, against the
        x-grid quadrature in long double: within 1e-15 per step, per unit
        of the step's kl where it exceeds one (an ulp of 10 is 1.8e-15)."""
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, 2.0, size=(4, 150))
        truth_means = rng.normal(0.0, 1.0, size=150)
        w = rng.dirichlet(np.ones(4), size=150).T
        got = _gaussian_mixture_kls((means - truth_means) / sd, w)
        exact = gaussian_mixture_kls_oracle(WIDE, means, truth_means, sd, w, np.longdouble)
        assert np.all(np.abs(got - exact) <= 1e-15 * np.maximum(1.0, exact))

    @pytest.mark.parametrize("sd", [0.7, 1.3])
    def test_random_four_atoms_off_unit_sd(self, sd):
        self._check_random_four_atoms(31, sd)

    @pytest.mark.parametrize("sd", [0.7, 1.3])
    def test_random_four_atoms_on_row_grid(self, sd):
        """The seed-32 inputs once integrated on the sd-sized row grid; with
        that grid gone they are held to the same +-24 long-double oracle."""
        self._check_random_four_atoms(32, sd)

    def test_columns_past_one_buffer(self):
        """At 4000 columns the spacings of 73 and 109 nodes overflow one
        Z_BUFFER chunk each; every column's kl and gap match those of
        300-column calls to rounding."""
        rng = np.random.default_rng(4)
        deltas = rng.normal(0.0, 1.0, size=(3, 4000))
        w = rng.dirichlet(np.ones(3), size=4000).T
        pieces = range(0, 4000, 300)
        kls = np.concatenate([_gaussian_mixture_kls(deltas[:, s:s + 300], w[:, s:s + 300])
                              for s in pieces])
        assert np.max(np.abs(_gaussian_mixture_kls(deltas, w) - kls)) <= 1e-15
        gaps = np.concatenate([_affinity_gaps(deltas[:, s:s + 300], w[:, 0]) for s in pieces])
        assert np.max(np.abs(_affinity_gaps(deltas, w[:, 0]) - gaps)) <= 1e-15

    def test_gaussian_mixture_kernel_builds_no_full_array(self):
        """The mixture is summed one atom at a time: on this chain that peaks at
        0.4 MB, and building each spacing's (atoms, steps, nodes) array at 1.4 MB."""
        cfg = parse_config(MARKOV_CONFIG)
        reg = build_regime(cfg)
        sample = generate_data(reg, 400, seed=cfg.seed)
        w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
        tracemalloc.start()
        try:
            reg.cesaro_kls(sample, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e5

    @pytest.mark.parametrize("noise_sd", [1.0, 0.8, 0.3])
    def test_markov_atom_divergences(self, noise_sd):
        thetas = (0.6, 0.5, 0.7, -0.3, -0.4, -0.5)
        members = [
            FamilyMember(j, MARKOV, MarkovParam(t, noise_sd=noise_sd))
            for j, t in enumerate(thetas)
        ]
        reg = MarkovRegime(uniform_prior(members), MarkovParam(0.6, noise_sd=noise_sd))
        kv = reg.atom_kv()
        for k, m in enumerate(members):
            kl_val, v_val, h_q = markov_kvh_oracle(
                0.6, m.payload.theta, grid=GRID, noise_sd=noise_sd
            )
            got = (kv[k, 0], kv[k, 1], reg.truth_dist(m.id))
            if m.payload.theta == 0.6:
                assert got == (0.0, 0.0, 0.0)
            else:
                assert got == pytest.approx((kl_val, v_val, h_q), rel=1e-12)


class TestDensityStride:
    """The iid Cesaro kernel integrates on every stride-th node of the
    density grid, the stride ``_density_stride`` gives at the smallest sd;
    against the integral on all 4001 nodes it differs by rounding."""

    @pytest.mark.parametrize("sd, stride", [(1.0, 16), (0.7, 10), (0.5, 8), (1.3, 20)])
    def test_stride_from_smallest_sd(self, sd, stride):
        assert _density_stride(GRID, sd) == stride
        wide = build_gaussian_location_family(GRID, [0.0, 0.5], sd=1.5)
        narrow = build_gaussian_location_family(GRID, [1.0], sd=sd, start_id=2)
        wide_truth = gaussian_density(GRID, 0.0, 1.5)
        rng = np.random.default_rng(3)
        for prior, truth in ((uniform_prior(wide + narrow), wide_truth),
                             (uniform_prior(wide), gaussian_density(GRID, 0.0, sd))):
            reg = IidRegime(prior, truth)
            w = rng.dirichlet(np.ones(len(prior.members)), size=40).T
            got = reg.cesaro_kls(None, w)
            assert np.array_equal(got, iid_cesaro_oracle(reg, w, stride))
            assert not np.array_equal(got, iid_cesaro_oracle(reg, w, _density_stride(GRID, 1.5)))
        assert (GRID.points - 1) % stride == 0
        assert stride * GRID.spacing <= sd / 10.0

    @pytest.mark.parametrize("sd", [0.5, 0.7, 1.0, 1.3])
    @pytest.mark.parametrize("atoms", [2, 5])
    def test_per_step_against_4001_points(self, atoms, sd):
        rng = np.random.default_rng(7 * atoms)
        fam = build_gaussian_location_family(GRID, list(rng.normal(0.0, 1.5, atoms)), sd=sd)
        reg = IidRegime(uniform_prior(fam), gaussian_density(GRID, 0.1, sd))
        w = rng.dirichlet(np.ones(atoms), size=400).T
        dense = iid_cesaro_oracle(reg, w, 1)
        assert np.max(np.abs(reg.cesaro_kls(None, w) - dense)) <= 1e-14

    @pytest.mark.parametrize("name", ["iid", "misspecified"])
    def test_config_replications_against_long_double(self, name):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        for rep in range(4):
            data = generate_data(reg, 400, seed=cfg.seed + rep)
            w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
            exact = iid_cesaro_oracle(reg, w, 1, np.longdouble)
            assert np.max(np.abs(reg.cesaro_kls(data, w) - exact)) <= 2e-15


def markov_config_regime(noise_sd):
    thetas = (0.6, 0.5, 0.7, -0.3, -0.4, -0.5)
    members = [FamilyMember(j, MARKOV, MarkovParam(t, noise_sd=noise_sd))
               for j, t in enumerate(thetas)]
    return MarkovRegime(uniform_prior(members), MarkovParam(0.6, noise_sd=noise_sd))


class TestRowGrid:
    """The Gaussian-mixture integrals of regression and markov (the Cesaro
    kl and the certification affinity gaps) against trapezoids over Gaussian
    rows on a grid in x: a +-24 grid of 8001 points everywhere, and the
    shared 4001-point grid where its +-12 span holds the rows to rounding.
    The z-node rule has no span: it follows the chain however far it goes.
    """

    @pytest.mark.parametrize("sd", [0.5, 0.7, 1.0, 1.3])
    def test_cesaro_kernel_against_4001_points(self, sd):
        reg = markov_config_regime(sd)
        steps = np.arange(1, 401)
        schedule = np.array([100, 200, 400]) - 1  # where cesaro.csv reads the mean
        for rep in range(4):
            sample = generate_data(reg, 400, seed=rep)
            w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
            prev = np.concatenate(([sample.y0], sample.y[:-1]))
            args = (reg._thetas[:, None] * prev[None, :], reg.theta_star.theta * prev, sd, w)
            got = reg.cesaro_kls(sample, w)
            wide = gaussian_mixture_kls_oracle(WIDE, *args)
            assert np.max(np.abs(got - wide)) <= 1e-15
            if sd <= 1.0:
                assert np.max(np.abs(got - gaussian_mixture_kls_oracle(GRID, *args))) <= 1e-15
            run_got, run_wide = np.cumsum(got) / steps, np.cumsum(wide) / steps
            err = np.abs(run_got - run_wide)[schedule]
            assert np.all(err <= 1e-14 * run_wide[schedule])

    def test_cesaro_kernel_where_the_span_clips(self):
        """At noise sd 1.3, six of eight markov.yaml chains reach past the
        +-12 span (the 4001-point grid is off the +-24 one by over 1e-12
        per step); the kernel matches the +-24 grid on all eight."""
        reg = markov_config_regime(1.3)
        clipped = 0
        for seed in range(8):
            sample = generate_data(reg, 400, seed=seed)
            w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
            prev = np.concatenate(([sample.y0], sample.y[:-1]))
            args = (reg._thetas[:, None] * prev[None, :], reg.theta_star.theta * prev, 1.3, w)
            wide = gaussian_mixture_kls_oracle(WIDE, *args)
            clipped += np.max(np.abs(gaussian_mixture_kls_oracle(GRID, *args) - wide)) > 1e-12
            assert np.max(np.abs(reg.cesaro_kls(sample, w) - wide)) <= 1e-15, f"seed {seed}"
        assert clipped == 6

    @pytest.mark.parametrize("sd", [0.5, 0.7, 1.0, 1.3])
    def test_markov_certification_gaps_against_4001_points(self, sd):
        """The probe states reach 5 stationary sds, so the +-12 span holds
        their rows to rounding only up to sd 0.7."""
        reg = markov_config_regime(sd)
        states = reg._probe_states()
        rng = np.random.default_rng(5)
        for ids in [(3, 4, 5), (1, 2), (0, 1, 2, 3, 4, 5)]:
            thetas = np.array([reg._theta_of(i) for i in ids])
            center = reg._theta_of(ids[0])
            # the closure radius: the largest per-state affinity gap to the center
            rho = np.array([np.max(1.0 - np.exp(-(((center - thetas) * y / sd) ** 2) / 8.0))
                            for y in states])
            for _ in range(4):
                w = rng.dirichlet(np.ones(len(ids)))
                for got, ref_theta, offset in (
                    (reg.mixture_truth_gap(ids, w), reg.theta_star.theta, 0.0),
                    (reg.closure_violation(ids, ids[0], w), center, rho),
                ):
                    args = (thetas[:, None] * states[None, :], ref_theta * states, sd, w)
                    wide = gaussian_affinity_gaps_oracle(WIDE, *args)
                    assert abs(got - np.max(wide - offset)) <= 1e-15
                    if sd <= 0.7:
                        dense = gaussian_affinity_gaps_oracle(GRID, *args)
                        assert abs(got - np.max(dense - offset)) <= 1e-15

    def test_regression_certification_gaps_against_4001_points(self):
        cfg = parse_config(CONFIGS / "regression.yaml")
        reg = build_regime(cfg)
        rng = np.random.default_rng(6)
        ids = tuple(cfg.subset)
        means = reg._means[list(ids)]
        for n in cfg.schedule.n_values:
            radius = max(0.5 * reg.pair_dist(ids[0], i, n) ** 2 for i in ids)
            for _ in range(4):
                w = rng.dirichlet(np.ones(len(ids)))
                truth_gaps = gaussian_affinity_gaps_oracle(
                    GRID, means[:, :n], reg._truth_means[:n], 1.0, w)
                center_gaps = gaussian_affinity_gaps_oracle(
                    GRID, means[:, :n], means[0, :n], 1.0, w)
                assert abs(reg.mixture_truth_gap(ids, w, n) - truth_gaps.mean()) <= 1e-15
                got = reg.closure_violation(ids, ids[0], w, n)
                assert abs(got - (center_gaps.mean() - radius)) <= 1e-15

    def test_far_offsets_raise_no_overflow(self):
        """Offsets of 200 and 400 sds: every term of a far mixture underflows
        and none overflows, and a far term beside a near one adds nothing."""
        deltas = np.array([[200.0, 0.0, 0.0], [400.0, 0.0, 200.0]])
        with np.errstate(over="raise", invalid="raise"):
            gaps = _affinity_gaps(deltas, np.array([0.5, 0.5]))
        assert gaps[0] == 1.0
        assert abs(gaps[1]) <= 1e-15
        assert abs(gaps[2] - (1.0 - math.sqrt(0.5))) <= 1e-15


class TestAnchoredAtTruth:
    """The density regime with its anchor at the truth against the plain
    functionals: where the starred weight exp(log f_star - log f_circ) is
    exactly one, the two forms round alike; the affinity gaps take
    different roads (sqrt f sqrt g against exp of half the log ratio)."""

    PRIORS = [((0.7,), 0.0), ((0.0, 1.0), 0.0), ((-0.5, 2.0), 0.3),
              ((0.0, 0.3, -0.3, 0.6, -0.6, 2.0, 2.3, 2.6), 0.0)]

    @pytest.mark.parametrize("means, truth_mean", PRIORS, ids=["j1", "j2", "j2-off", "j8"])
    def test_plain_forms(self, means, truth_mean):
        reg = iid_regime(means=means, truth_mean=truth_mean)
        truth = reg.true_density
        dens = {m.id: m.density for m in reg.prior.members}
        ids = tuple(dens)
        assert reg.well_specified and reg.f_circ is truth

        expect_kv = np.array([[kl(truth, f), v_divergence(truth, f)] for f in dens.values()])
        assert np.array_equal(reg.atom_kv(), expect_kv)
        for a in ids:
            assert reg.truth_dist(a) == hellinger(truth, dens[a])
            for b in ids:
                assert reg.pair_dist(a, b) == hellinger(dens[a], dens[b])
        assert reg.hull_gap_bound(ids) == _triangle_bound(
            ids, lambda c: hellinger(truth, dens[c]), lambda c, j: hellinger(dens[c], dens[j])
        )
        gaps = [h_affinity_gap(truth, f) for f in dens.values()]
        assert np.max(np.abs(reg.separation_gaps(ids) - gaps)) <= 1e-15
        assert np.max(np.abs(reg.vertex_certificates(ids) - 1.0)) <= 1e-12
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(ids)))
            plain = h_affinity_gap(truth, mixture_density(list(dens.values()), w))
            assert abs(reg.mixture_truth_gap(ids, w) - plain) <= 1e-15

        data = generate_data(reg, 200, seed=6)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        stride = UNIT_STRIDE
        nodes = Grid(GRID.lower, GRID.upper, (GRID.points - 1) // stride + 1)
        kern = nodes.quad_weights * truth.values[::stride]
        entropy = float(kern @ truth.log_values[::stride])
        values = np.stack([f.values[::stride] for f in dens.values()])
        plain = np.maximum(entropy - np.log(values.T @ w).T @ kern, 0.0)
        assert np.array_equal(reg.cesaro_kls(data, w), plain)


class TestThicknessWiring:
    def test_iid_records_match_manual_mass(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        sched = RateSchedule((50, 100))
        recs = thickness_records(reg, sched)
        kv = reg.atom_kv()
        for rec, n in zip(recs, (50, 100)):
            eps2 = sched.epsilon(n) ** 2
            mask = (kv[:, 0] <= eps2) & (kv[:, 1] <= eps2)
            mass = reg.prior.weights[mask].sum()
            assert rec.neighborhood_mass == pytest.approx(mass, rel=1e-12)
        assert fitted_thickness_constant(recs) == max(r.implied_c for r in recs)

    def test_markov_parameter_bound_mask(self):
        reg = markov_regime(thetas=(0.6, 0.55, -0.9), theta0_bound=0.5)
        mask = reg.theta0_mask()
        assert mask[0] and mask[1]
        assert not mask[2]

    def test_regression_kv_depends_on_horizon(self):
        reg = regression_regime(slopes=(0.0, 0.4), truth_slope=0.0, length=100)
        k_20 = reg.atom_kv(20)[1, 0]
        k_100 = reg.atom_kv(100)[1, 0]
        assert k_20 != pytest.approx(k_100, rel=1e-6)


class TestCertification:
    def test_far_pair_is_certified(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0, 2.3))
        rng = np.random.default_rng(0)
        cert = certify_subset(reg, (2, 3), delta=0.05, n=100, rng=rng, draws=100)
        assert cert.vertex.separated
        assert cert.hull_gap_bound > 0.05
        assert cert.closure.closed
        assert cert.mixture_min_gap > 0.05

    def test_vertex_failure_names_the_check(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        with pytest.raises(SubsetNotAdmissibleError, match="vertex separation failed"):
            certify_subset(reg, (1,), delta=0.5, n=100, rng=np.random.default_rng(1))

    def test_hull_failure_names_the_check(self):
        # the two atoms straddle the truth: each vertex is far but the
        # midpoint mixture sits on top of the sampling density
        reg = iid_regime(means=(-1.5, 1.5))
        with pytest.raises(SubsetNotAdmissibleError, match="convex-hull separation"):
            certify_subset(
                reg, (0, 1), delta=0.1, n=100, rng=np.random.default_rng(2), draws=50
            )

    def test_ratio_certificate_failure_names_the_check(self):
        reg = miss_regime(means=(0.5, -0.5), projection_id=0)
        with pytest.raises(SubsetNotAdmissibleError, match="ratio certificate"):
            certify_subset(
                reg, (1,), delta=0.01, n=100, rng=np.random.default_rng(3)
            )

    def test_empty_subset_rejected(self):
        reg = iid_regime()
        with pytest.raises(SubsetNotAdmissibleError, match="empty subset"):
            certify_subset(reg, (), delta=0.1, n=50, rng=np.random.default_rng(4))

    def test_markov_certificate_clears_sup_form_hull_bound(self):
        reg = markov_regime(thetas=(0.6, -0.3, -0.4))
        cert = certify_subset(
            reg, (1, 2), delta=0.02, n=100, rng=np.random.default_rng(5), draws=60
        )
        assert cert.hull_gap_bound == reg.hull_gap_bound((1, 2))[0]
        assert cert.hull_gap_bound > 0.02
        assert cert.closure.closed


def gauss_hellinger(mean_gap, sd=1.0):
    """Closed-form Hellinger distance between equal-variance normals."""
    return np.sqrt(2.0 * (1.0 - np.exp(-np.square(mean_gap) / (8.0 * sd * sd))))


class TestHullBound:
    """hull_gap_bound against the triangle bound written out per regime:
    max over centers c of measure(((d(truth, c) - max_j d(c, j))_+)^2) / 2,
    returned with a center that attains it."""

    @staticmethod
    def per_center(ids, to_truth, between, measure):
        return {
            c: measure(np.maximum(0.0, to_truth(c) - reduce(np.maximum,
                                                            [between(c, j) for j in ids]))
                       ** 2) / 2
            for c in ids
        }

    def iid_case(self):
        reg = iid_regime(means=(0.0, 1.5, 2.0, 2.6))
        ids = (1, 2, 3)
        mean = {1: 1.5, 2: 2.0, 3: 2.6}
        expect = self.per_center(
            ids, lambda c: gauss_hellinger(mean[c]),
            lambda c, j: gauss_hellinger(mean[c] - mean[j]), float,
        )
        return reg.hull_gap_bound(ids), expect, {"abs": 1e-9}

    def regression_case(self):
        reg = regression_regime(slopes=(0.0, 3.0, 3.5, 4.0), length=200)
        ids, n = (1, 2, 3), 150
        x = np.arange(1, n + 1) / 200
        slope = {1: 3.0, 2: 3.5, 3: 4.0}
        expect = self.per_center(
            ids, lambda c: gauss_hellinger(slope[c] * x),
            lambda c, j: gauss_hellinger((slope[c] - slope[j]) * x), np.mean,
        )
        return reg.hull_gap_bound(ids, n), expect, {"rel": 1e-12}

    def markov_case(self):
        reg = markov_regime(thetas=(0.6, -0.3, -0.4, -0.5))
        ids = (1, 2, 3)
        states = np.linspace(0.0, reg.state_window, SWEEP_POINTS)
        theta = {1: -0.3, 2: -0.4, 3: -0.5}
        expect = self.per_center(
            ids, lambda c: gauss_hellinger((0.6 - theta[c]) * states),
            lambda c, j: gauss_hellinger((theta[c] - theta[j]) * states), np.max,
        )
        return reg.hull_gap_bound(ids), expect, {"rel": 1e-12}

    def misspecified_case(self):
        reg = miss_regime(means=(0.5, 2.5, 2.8, 3.1))
        ids = (1, 2, 3)
        dens = {m.id: m.density for m in reg.prior.members}

        def dist(f, g):
            return weighted_hellinger_between(f, g, f_star=reg.true_density, f_circ=reg.f_circ)

        expect = self.per_center(
            ids, lambda c: dist(reg.f_circ, dens[c]),
            lambda c, j: dist(dens[c], dens[j]), float,
        )
        return reg.hull_gap_bound(ids), expect, {"rel": 1e-12}

    def test_iid_scalar_hellinger(self):
        (bound, _), expect, tol = self.iid_case()
        assert bound == pytest.approx(max(expect.values()), **tol)

    def test_regression_mean_over_design(self):
        (bound, _), expect, tol = self.regression_case()
        assert bound == pytest.approx(max(expect.values()), **tol)

    def test_markov_max_over_window(self):
        (bound, _), expect, tol = self.markov_case()
        assert bound == pytest.approx(max(expect.values()), **tol)

    def test_misspecified_weighted_hellinger(self):
        (bound, _), expect, tol = self.misspecified_case()
        assert bound == pytest.approx(max(expect.values()), **tol)
        assert bound > 0.0

    @pytest.mark.parametrize("regime", ["iid", "regression", "markov", "misspecified"])
    def test_returned_center_attains_bound(self, regime):
        (bound, center), expect, tol = getattr(self, f"{regime}_case")()
        assert expect[center] == pytest.approx(bound, **tol)


class TestVerifications:
    def test_numerator_bound_far_singleton(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((50, 100)),
            replications=60,
            seed=13,
            collect=("sqrt_l",),
            subset_ids=(2,),
            params=ConditionParams(C=0.0, d=2.5),
        )
        report = verify_numerator_bound(plan, closure_draws=40)
        assert report.passed
        assert np.all(report.empirical_mean <= report.bound + 3.0 * report.std_error)
        assert report.d > report.implied_c + 1.0

    def test_numerator_bound_requires_d_above_implied(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((50, 100)),
            replications=10,
            seed=13,
            collect=("sqrt_l",),
            subset_ids=(2,),
            params=ConditionParams(C=0.0, d=0.9),
        )
        with pytest.raises(SubsetNotAdmissibleError, match="must exceed implied C"):
            verify_numerator_bound(plan)

    def test_evidence_bound_two_atoms_never_small(self):
        reg = iid_regime(means=(0.0, 2.0))
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((50, 100, 200)),
            replications=40,
            seed=29,
            params=ConditionParams(C=0.0, c=1.5),
        )
        report = verify_evidence_bound(plan)
        assert np.all(report.fractions == 0.0)
        assert report.trend_slope <= 0.0

    def test_evidence_bound_enforces_thickness(self):
        reg = iid_regime(means=(0.0, 2.0))
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((50, 100)),
            replications=5,
            seed=29,
            params=ConditionParams(C=0.0, c=0.8),
        )
        with pytest.raises(ExperimentError, match="needs c > implied C"):
            verify_evidence_bound(plan)
        report = verify_evidence_bound(plan, enforce_thickness=False)
        assert report.fractions.shape == (2,)

    def test_concentration_sets_track_the_cutoff(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        sched = RateSchedule((50, 500))
        sets = concentration_sets(reg, sched, multiplier=1.0)
        h_near = hellinger(reg.true_density, reg.prior.members[1].density)
        assert sets[0] == (2,)
        assert h_near > sched.epsilon(500)
        assert sets[1] == (1, 2)

    def test_posterior_mass_path_decays(self):
        reg = iid_regime(means=(0.0, 0.3, 2.0))
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((50, 200)),
            replications=30,
            seed=31,
            u_set=(0,),
        )
        report = posterior_mass_path(plan, multiplier=1.0)
        assert report.medians[-1] < 0.05
        assert report.u_medians[-1] > 0.9
        assert report.b_sets == concentration_sets(reg, plan.schedule, 1.0)

    def test_huge_multiplier_empties_the_far_set(self):
        reg = iid_regime()
        plan = ExperimentPlan(
            regime=reg,
            schedule=RateSchedule((20, 40)),
            replications=4,
            seed=2,
        )
        report = posterior_mass_path(plan, multiplier=50.0)
        assert all(s == () for s in report.b_sets)
        assert np.all(report.medians == 0.0)


class TestRateFit:
    def test_exact_power_law(self):
        sched = RateSchedule((50, 100, 200, 400))
        ns = sched.n_values
        eps = sched.epsilons
        fit = fit_rate(ns, eps**2, epsilons=eps)
        assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert fit.fitted_constant == pytest.approx(1.0, rel=1e-12)

    def test_one_over_n(self):
        ns = [50, 100, 200, 400]
        fit = fit_rate(ns, [3.0 / n for n in ns])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert math.isnan(fit.fitted_constant)

    def test_nonpositive_points_are_excluded_and_flagged(self):
        # without n = 20 the rest lie on 1 / n exactly
        fit = fit_rate([10, 20, 40, 80], [0.1, 0.0, 0.025, 0.0125])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_positive_points(self):
        with pytest.raises(ExperimentError, match="at least 3 positive"):
            fit_rate([10, 20, 30], [1.0, 0.0, 2.0])

    def test_misaligned_inputs(self):
        with pytest.raises(ExperimentError, match="align"):
            fit_rate([10, 20], [1.0, 2.0, 3.0])
        with pytest.raises(ExperimentError, match="epsilons"):
            fit_rate([10, 20, 30], [1.0, 2.0, 3.0], epsilons=[0.1])


class TestPlanAndRecordValidation:
    def test_unknown_statistic(self):
        with pytest.raises(ExperimentError, match="unknown statistics"):
            ExperimentPlan(
                regime=iid_regime(),
                schedule=RateSchedule((10,)),
                replications=1,
                seed=0,
                collect=("entropy",),
            )

    def test_sqrt_l_needs_subset(self):
        with pytest.raises(ExperimentError, match="subset_ids"):
            ExperimentPlan(
                regime=iid_regime(),
                schedule=RateSchedule((10,)),
                replications=1,
                seed=0,
                collect=("sqrt_l",),
            )

    def test_b_sets_must_align_with_schedule(self):
        with pytest.raises(ExperimentError, match="one b_set per schedule point"):
            ExperimentPlan(
                regime=iid_regime(),
                schedule=RateSchedule((10, 20)),
                replications=1,
                seed=0,
                collect=("posterior_mass",),
                b_sets=((0,),),
            )

    def test_u_mass_needs_u_set(self):
        with pytest.raises(ExperimentError, match="u_set"):
            ExperimentPlan(
                regime=iid_regime(),
                schedule=RateSchedule((10,)),
                replications=1,
                seed=0,
                collect=("u_mass",),
            )

    def test_replications_positive(self):
        with pytest.raises(ExperimentError, match="at least one replication"):
            ExperimentPlan(
                regime=iid_regime(),
                schedule=RateSchedule((10,)),
                replications=0,
                seed=0,
            )

    def test_record_stat_alignment(self):
        with pytest.raises(ExperimentError, match="misaligned"):
            ReplicationRecord(
                rep_id=0,
                n_values=(10, 20),
                stats={"log_evidence": np.zeros(3)},
            )

    def test_record_mass_bounds(self):
        with pytest.raises(ExperimentError, match="outside"):
            ReplicationRecord(
                rep_id=0,
                n_values=(10,),
                stats={"posterior_mass": np.array([1.5])},
            )

    def test_record_rejects_nan(self):
        with pytest.raises(ExperimentError, match="NaN"):
            ReplicationRecord(
                rep_id=0,
                n_values=(10,),
                stats={"log_evidence": np.array([math.nan])},
            )
