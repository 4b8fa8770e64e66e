"""Tests for the sampling regimes, the replication engine, and the verifiers."""
import concurrent.futures
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

from bayesrates import experiments, inference
from bayesrates.cli import build_regime, parse_config
from bayesrates.divergences import (
    Grid,
    GridDensity,
    OutsideGridError,
    default_grid,
    gaussian_density,
    h_affinity_gap,
    h_star,
    hellinger,
    kl,
    kleijn_certificate,
)
from bayesrates.experiments import (
    REPLICATION_BLOCK,
    STAT_KEYS,
    SWEEP_POINTS,
    Z_BUFFER,
    ExperimentError,
    ExperimentPlan,
    IidRegime,
    MarkovRegime,
    MisspecifiedRegime,
    RegressionRegime,
    ReplicationRecord,
    SubsetNotAdmissibleError,
    _adopt_fp_errors,
    _density_stride,
    _triangle_bound,
    _z_integrals,
    certify_subset,
    concentration_sets,
    fit_rate,
    fitted_thickness_constant,
    generate_data,
    mean_and_se,
    posterior_mass_path,
    replicate,
    replicate_block,
    run_replications,
    stat_matrix,
    stat_quantile,
    thickness_records,
    verify_evidence_bound,
    verify_numerator_bound,
)
from bayesrates.geometry import ConditionParams, RateSchedule, thickness_profile
from bayesrates.numerics import logsumexp, softmax_and_logsumexp
from bayesrates.models import (
    IID,
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
    cesaro_kls_one,
    closure_violation_oracle,
    cumulative_log_ratio,
    gaussian_affinity_gaps_oracle,
    gaussian_mixture_kls_oracle,
    iid_cesaro_oracle,
    kl_contrast,
    loglik_matrix,
    markov_kvh_oracle,
    mixture_density,
    mixture_truth_gap_oracle,
    ref_loglik,
    replicate_oracle,
    softmax,
    v_divergence,
    v_star,
    weighted_hellinger_between,
    z_node_oracle,
)

GRID = default_grid()
WIDE = Grid(-24.0, 24.0, 8001)
UNIT_STRIDE = _density_stride(GRID, 1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"
MARKOV_CONFIG = CONFIGS / "markov.yaml"

# how far the density regime's node table may stray from the same functional
# on all 4001 grid nodes, per unit of max(1, |value|): ten times the worst
# seen on random location priors whose densities keep 8 sds inside the grid
# (iid gaps, certificates and distances 8e-16, kv 3e-14; misspecified
# certificates 3e-13, distances 1.3e-12).  Nearer the grid's edge a clipped
# density makes the trapezoid second order, and the two rules part further.
TABLE_TOL = {"iid": {"kv": 3e-13, "gap": 8e-15, "dist": 8e-15},
             "misspecified": {"kv": 3e-13, "gap": 3e-12, "dist": 1.3e-11}}


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

    def test_pool_workers_adopt_the_callers_error_handling(self, monkeypatch):
        seen = {}

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.update(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        plan = ExperimentPlan(regime=iid_regime(), schedule=RateSchedule((10,)),
                              replications=2, seed=5)
        with np.errstate(all="raise"):
            run_replications(plan, jobs=2)
            assert seen["initializer"] is _adopt_fp_errors
            assert seen["initargs"] == (np.geterr(),)

    def test_initializer_makes_a_spawned_worker_raise(self):
        """A spawned worker starts from numpy's defaults, where an overflow
        only warns; with the initializer it raises, as in the caller."""
        spawn = multiprocessing.get_context("spawn")
        huge = np.array(1000.0)
        with np.errstate(over="raise"):
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
                assert pool.submit(np.exp, huge).result() == np.inf
            with concurrent.futures.ProcessPoolExecutor(
                    1, mp_context=spawn, initializer=_adopt_fp_errors,
                    initargs=(np.geterr(),)) as pool:
                with pytest.raises(FloatingPointError, match="overflow"):
                    pool.submit(np.exp, huge).result()

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


SHIPPED = ("iid", "misspecified", "markov", "regression", "sieve", "smoke")
# ragged against blocks of 3 and of REPLICATION_BLOCK
BLOCK_REPS = 11


def shipped_plan(name: str, replications: int = BLOCK_REPS) -> ExperimentPlan:
    """A plan on the shipped config's regime collecting every statistic it can."""
    cfg = parse_config(CONFIGS / f"{name}.yaml")
    regime = build_regime(cfg)
    b_sets = (None if cfg.params is None
              else concentration_sets(regime, cfg.schedule, cfg.params.M))
    have = {"posterior_mass": b_sets is not None, "u_mass": cfg.u_set is not None,
            "sqrt_l": bool(cfg.subset)}
    return ExperimentPlan(regime=regime, schedule=cfg.schedule, replications=replications,
                          seed=cfg.seed, collect=tuple(k for k in STAT_KEYS if have.get(k, True)),
                          subset_ids=cfg.subset, b_sets=b_sets, u_set=cfg.u_set)


def assert_same_records(got, expect) -> None:
    assert [r.rep_id for r in got] == [r.rep_id for r in expect]
    for a, b in zip(got, expect):
        assert a.n_values == b.n_values and a.stats.keys() == b.stats.keys()
        for key in b.stats:
            assert np.array_equal(a.stats[key], b.stats[key]), (a.rep_id, key)


@pytest.fixture(scope="module", params=SHIPPED)
def shipped(request):
    """A shipped config's plan and its per-replication oracle records, built once."""
    plan = shipped_plan(request.param)
    return plan, [replicate_oracle(plan, i) for i in range(plan.replications)]


class TestReplicationBlocks:
    """A record is the same bits however its replication is grouped: alone,
    in any block, ragged last blocks included, or in a pool worker."""

    def test_counts_leave_ragged_blocks(self):
        assert BLOCK_REPS % 3 and BLOCK_REPS % REPLICATION_BLOCK

    @pytest.mark.parametrize("block", [1, 3, REPLICATION_BLOCK])
    def test_blocks_match_the_oracle(self, shipped, monkeypatch, block):
        plan, oracle = shipped
        monkeypatch.setattr(experiments, "REPLICATION_BLOCK", block)
        assert_same_records(run_replications(plan), oracle)

    def test_pool_matches_the_oracle(self, shipped):
        plan, oracle = shipped
        assert_same_records(run_replications(plan, jobs=2), oracle)

    def test_any_grouping_matches_the_oracle(self, shipped):
        plan, oracle = shipped
        ids = (10, 2, 7)
        assert_same_records(replicate_block(plan, ids), [oracle[i] for i in ids])
        assert_same_records([replicate(plan, 4)], [oracle[4]])

    def test_pool_tasks_are_whole_blocks(self, monkeypatch):
        """Each task but the last is whole blocks, and there are no more tasks
        than chunks of replications // (8 jobs) would make: 17 for 200
        replications at two jobs, as markov.yaml runs in the lab benchmark."""
        tasks = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, spans):
                tasks.extend(spans)
                return super().map(fn, spans)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        plan = ExperimentPlan(regime=iid_regime(), schedule=RateSchedule((5,)),
                              replications=200, seed=5)
        records = run_replications(plan, jobs=2)
        assert [r.rep_id for r in records] == list(range(200))
        assert [i for t in tasks for i in t] == list(range(200))
        assert all(len(t) % REPLICATION_BLOCK == 0 for t in tasks[:-1])
        assert len(tasks) <= math.ceil(200 / (200 // (8 * 2))) == 17

    @pytest.mark.parametrize("name", ["markov", "regression"])
    def test_gaussian_block_at_a_ragged_n(self, name):
        """The z-node Cesaro kernel takes a whole block in one call: a
        replication alone, in a one-replication block and inside a block
        gives the same bits at a horizon no chunk width divides."""
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        plan = ExperimentPlan(regime=build_regime(cfg), schedule=RateSchedule((37, 123)),
                              replications=5, seed=cfg.seed, collect=("cesaro_kl",))
        block = replicate_block(plan, range(5))
        assert_same_records(block, [replicate(plan, i) for i in range(5)])
        assert_same_records(block[3:4], replicate_block(plan, (3,)))

    # replicate_block's and a certification step's traced peaks when each
    # replication took the z-node kernel alone: (block, step) in MiB
    GAUSSIAN_PEAKS = {"markov": (0.68, 0.61), "regression": (0.83, 1.68)}

    @pytest.mark.parametrize("name", sorted(GAUSSIAN_PEAKS))
    def test_gaussian_kernel_memory_holds_its_parent_peaks(self, name):
        plan = shipped_plan(name, REPLICATION_BLOCK).collecting(("cesaro_kl",))
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        n = cfg.schedule.n_values[-1]
        delta = cfg.params.d * cfg.schedule.epsilon(n) ** 2
        runs = (lambda: replicate_block(plan, range(REPLICATION_BLOCK)),
                lambda: certify_subset(plan.regime, cfg.subset, delta, n,
                                       np.random.default_rng(cfg.seed), draws=100))
        for run, bound in zip(runs, self.GAUSSIAN_PEAKS[name]):
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 2 ** 20, (peak, bound)

    def test_one_block_stays_small(self):
        """One block on iid.yaml at n = 400 with every statistic peaks at
        0.80 MB, 0.50 MB of it the Cesaro kernel's step buffer; a replication
        alone peaks at 0.14 MB, and the (reps, nodes, steps) matrix the
        buffer stands for would take 6.4 MB."""
        plan = shipped_plan("iid", REPLICATION_BLOCK)
        ids = range(REPLICATION_BLOCK)
        replicate_block(plan, ids)
        tracemalloc.start()
        try:
            replicate_block(plan, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_softmax_and_logsumexp_match_their_separate_forms(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=30.0, size=(4, 7, 9))
        a[1, :, 2] = -np.inf  # an all -inf column: nan weights, -inf total, in both forms
        a[2, 3] = -np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            weights, lse = softmax_and_logsumexp(a, axis=1)
            assert np.array_equal(weights, softmax(a, axis=1), equal_nan=True)
            assert np.array_equal(lse, logsumexp(a, axis=1))
        assert lse[1, 2] == -np.inf


class TestSharedBinLookup:
    """The density regime scores every atom and the anchor from one bin
    search; each column is np.interp's value, as GridDensity.log_interp gives it."""

    @pytest.fixture(scope="class", params=["iid", "misspecified", "unfloored"])
    def regime(self, request):
        if request.param != "unfloored":
            return build_regime(parse_config(CONFIGS / f"{request.param}.yaml"))
        # the shipped densities sit on the floor at both grid ends, where every
        # rule gives the same value; these do not
        rng = np.random.default_rng(7)
        members = [FamilyMember(j, IID, GridDensity(GRID, rng.uniform(0.5, 1.5, GRID.points)))
                   for j in range(6)]
        return IidRegime(uniform_prior(members), members[0].density)

    def test_matches_log_interp(self, regime):
        grid, x = regime.grid, regime.grid.x
        points = np.concatenate([
            x, [grid.lower, grid.upper],
            np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf),
            np.random.default_rng(20).uniform(grid.lower, grid.upper, 10**5),
        ])
        logs = regime._grid_logs(points)
        densities = [m.density for m in regime.prior.members] + [regime.f_circ]
        assert logs.shape == (len(points), len(densities))
        for k, density in enumerate(densities):
            assert np.array_equal(logs[:, k], density.log_interp(points))

    def test_log_ratios_match_the_oracle(self, regime):
        samples = [regime.sample(400, np.random.default_rng(s)) for s in range(3)]
        expect = [loglik_matrix(regime, d) - ref_loglik(regime, d) for d in samples]
        assert np.array_equal(regime.log_ratios(samples), np.stack(expect))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_point_off_the_grid_raises(self, regime, side):
        edge = regime.grid.upper if side > 0 else regime.grid.lower
        off = np.array([0.0, np.nextafter(edge, side * np.inf)])
        with pytest.raises(OutsideGridError, match="point outside grid"):
            regime.log_ratios([off])
        with pytest.raises(OutsideGridError, match="point outside grid"):
            regime.f_circ.log_interp(off)


class TestStatQuantile:
    """stat_quantile writes out np.percentile's linear rule; it must agree to
    the bit, ties and both halves of the lerp included."""

    @staticmethod
    def records(matrix):
        n_values = tuple(range(1, matrix.shape[1] + 1))
        return [ReplicationRecord(rep_id=r, n_values=n_values, stats={"cesaro_kl": row})
                for r, row in enumerate(matrix)]

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 8, 200, 201])
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
    def test_equals_percentile(self, rows, q):
        rng = np.random.default_rng(rows)
        for matrix in (rng.normal(size=(rows, 5)),
                       rng.integers(-2, 3, size=(rows, 5)).astype(float) / 3.0,  # ties
                       np.exp(rng.normal(scale=20.0, size=(rows, 5)))):
            expect = np.percentile(matrix, 100.0 * q, axis=0)
            got = stat_quantile(self.records(matrix), "cesaro_kl", q)
            assert np.array_equal(got, expect)
            assert np.array_equal(np.signbit(got), np.signbit(expect))

    def test_imports_no_masked_arrays(self):
        code = ("import sys, numpy as np; from bayesrates.experiments import "
                "ReplicationRecord, stat_quantile; "
                "recs = [ReplicationRecord(r, (1,), {'cesaro_kl': np.array([r / 3])}) "
                "for r in range(5)]; stat_quantile(recs, 'cesaro_kl', 0.5); "
                "print('numpy.ma' in sys.modules)")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert run.stdout == "False\n"


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
        fast = cesaro_kls_one(reg, data, w)
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
        got = cesaro_kls_one(reg, sample, w)
        expect = (0.6 - 0.2) ** 2 * prev * prev / 2.0
        assert np.max(np.abs(got - expect)) < 1e-7

    def test_regression_one_hot_running_mean_matches_kv(self):
        reg = regression_regime(slopes=(0.0, 0.4), truth_slope=0.0, length=50)
        data = generate_data(reg, 50, seed=12)
        w = np.zeros((2, 50))
        w[1] = 1.0
        kls = cesaro_kls_one(reg, data, w)
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
            assert np.array_equal(cesaro_kls_one(reg, data, w),
                                  iid_cesaro_oracle(reg, w, UNIT_STRIDE))

    @pytest.mark.parametrize("n", [1, 31, 33, 400])
    @pytest.mark.parametrize("atoms", [2, 3, 5, 10])
    def test_iid_random_atoms(self, atoms, n):
        rng = np.random.default_rng(100 * atoms + n)
        reg = iid_regime(means=tuple(rng.normal(0.0, 1.5, atoms)), truth_mean=0.1)
        w = rng.dirichlet(np.ones(atoms), size=n).T
        assert np.array_equal(cesaro_kls_one(reg, None, w),
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
        got = cesaro_kls_one(reg, None, w)
        assert np.max(np.abs(got - iid_cesaro_oracle(reg, w, UNIT_STRIDE))) <= 1e-13
        assert np.array_equal(got[:400], cesaro_kls_one(reg, None, w[:, :400]))

    def test_iid_kernel_builds_no_full_matrix(self):
        cfg = parse_config(CONFIGS / "iid.yaml")
        reg = build_regime(cfg)
        data = generate_data(reg, 400, seed=cfg.seed)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        tracemalloc.start()
        try:
            cesaro_kls_one(reg, data, w)
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
            assert np.max(np.abs(cesaro_kls_one(reg, sample, w) - expected)) <= 1e-15

    def test_markov_block_in_long_double(self):
        """A markov block's replications go to the kernel side by side as its
        columns; each step still matches the x-grid quadrature in long double."""
        cfg = parse_config(MARKOV_CONFIG)
        reg = build_regime(cfg)
        thetas = np.array([m.payload.theta for m in reg.prior.members])
        samples = [generate_data(reg, 150, seed=cfg.seed + rep) for rep in range(3)]
        w = np.stack([softmax(cumulative_log_ratio(reg, s)[:, :-1], axis=0) for s in samples])
        for sample, w_rep, got in zip(samples, w, reg.cesaro_kls(samples, w)):
            prev = np.concatenate(([sample.y0], sample.y[:-1]))
            exact = gaussian_mixture_kls_oracle(WIDE, thetas[:, None] * prev[None, :],
                                                reg.theta_star.theta * prev, reg.noise_sd,
                                                w_rep, np.longdouble)
            assert np.all(np.abs(got - exact) <= 1e-15 * np.maximum(1.0, exact))

    def test_regression_inputs(self):
        reg = regression_regime(slopes=(0.0, 0.4, 3.0, -1.0), length=120)
        data = generate_data(reg, 120, seed=8)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        means = np.stack([m.payload.values_at_design for m in reg.prior.members])
        expected = gaussian_mixture_kls_oracle(
            WIDE, means, np.asarray(reg.truth.values_at_design), 1.0, w
        )
        assert np.max(np.abs(cesaro_kls_one(reg, data, w) - expected)) <= 1e-15

    @staticmethod
    def _check_random_four_atoms(seed, sd):
        """Far-apart components, offsets spread over up to 15 sds, against the
        x-grid quadrature in long double: within 1e-15 per step, per unit
        of the step's kl where it exceeds one (an ulp of 10 is 1.8e-15)."""
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, 2.0, size=(4, 150))
        truth_means = rng.normal(0.0, 1.0, size=150)
        w = rng.dirichlet(np.ones(4), size=150).T
        got = _z_integrals((means - truth_means) / sd, w[None])[0]
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
        kls = np.concatenate([_z_integrals(deltas[:, s:s + 300], w[None, :, s:s + 300])[0]
                              for s in pieces])
        assert np.max(np.abs(_z_integrals(deltas, w[None])[0] - kls)) <= 1e-15
        one = w[None, :, 0]
        gaps = np.concatenate([_z_integrals(deltas[:, s:s + 300], one, affinity=True)[0]
                               for s in pieces])
        assert np.max(np.abs(_z_integrals(deltas, one, affinity=True)[0] - gaps)) <= 1e-15

    def test_gaussian_mixture_kernel_builds_no_full_array(self):
        """The mixture is summed one atom at a time: on this chain that peaks at
        0.4 MB, and building each spacing's (atoms, steps, nodes) array at 1.4 MB."""
        cfg = parse_config(MARKOV_CONFIG)
        reg = build_regime(cfg)
        sample = generate_data(reg, 400, seed=cfg.seed)
        w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
        tracemalloc.start()
        try:
            cesaro_kls_one(reg, sample, w)
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
            kl_val, v_val, h_q = markov_kvh_oracle(0.6, m.payload.theta, noise_sd=noise_sd)
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
        narrow = [FamilyMember(2, IID, gaussian_density(GRID, 1.0, sd))]
        wide_truth = gaussian_density(GRID, 0.0, 1.5)
        rng = np.random.default_rng(3)
        for prior, truth in ((uniform_prior(wide + narrow), wide_truth),
                             (uniform_prior(wide), gaussian_density(GRID, 0.0, sd))):
            reg = IidRegime(prior, truth)
            w = rng.dirichlet(np.ones(len(prior.members)), size=40).T
            got = cesaro_kls_one(reg, None, w)
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
        assert np.max(np.abs(cesaro_kls_one(reg, None, w) - dense)) <= 1e-14

    @pytest.mark.parametrize("name", ["iid", "misspecified"])
    def test_config_replications_against_long_double(self, name):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        for rep in range(4):
            data = generate_data(reg, 400, seed=cfg.seed + rep)
            w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
            exact = iid_cesaro_oracle(reg, w, 1, np.longdouble)
            assert np.max(np.abs(cesaro_kls_one(reg, data, w) - exact)) <= 2e-15


def markov_config_regime(noise_sd):
    thetas = (0.6, 0.5, 0.7, -0.3, -0.4, -0.5)
    members = [FamilyMember(j, MARKOV, MarkovParam(t, noise_sd=noise_sd))
               for j, t in enumerate(thetas)]
    return MarkovRegime(uniform_prior(members), MarkovParam(0.6, noise_sd=noise_sd))


class TestZNodeRule:
    """The Gaussian-mixture integrals of regression and markov (the Cesaro
    kl and the certification affinity gaps) against trapezoids over Gaussian
    rows on a grid in x: a +-24 grid of 8001 points everywhere, and the
    shared 4001-point grid where its +-12 span holds the rows to rounding.
    The z-node rule has no span: it follows the chain however far it goes.
    """

    @pytest.mark.parametrize("sd", [0.5, 0.7, 1.0, 1.3])
    def test_cesaro_kernel_against_x_grids(self, sd):
        reg = markov_config_regime(sd)
        steps = np.arange(1, 401)
        schedule = np.array([100, 200, 400]) - 1  # where cesaro.csv reads the mean
        for rep in range(4):
            sample = generate_data(reg, 400, seed=rep)
            w = softmax(cumulative_log_ratio(reg, sample)[:, :-1], axis=0)
            prev = np.concatenate(([sample.y0], sample.y[:-1]))
            args = (reg._thetas[:, None] * prev[None, :], reg.theta_star.theta * prev, sd, w)
            got = cesaro_kls_one(reg, sample, w)
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
            assert np.max(np.abs(cesaro_kls_one(reg, sample, w) - wide)) <= 1e-15, f"seed {seed}"
        assert clipped == 6

    @pytest.mark.parametrize("sd", [0.5, 0.7, 1.0, 1.3])
    def test_markov_certification_gaps_against_x_grids(self, sd):
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
            weights = rng.dirichlet(np.ones(len(ids)), size=4)
            for gots, ref_theta, offset in (
                (reg.mixture_truth_gap(ids, weights), reg.theta_star.theta, 0.0),
                (reg.closure_violation(ids, ids[0], weights), center, rho),
            ):
                for w, got in zip(weights, gots):
                    args = (thetas[:, None] * states[None, :], ref_theta * states, sd, w)
                    wide = gaussian_affinity_gaps_oracle(WIDE, *args)
                    assert abs(got - np.max(wide - offset)) <= 1e-15
                    if sd <= 0.7:
                        dense = gaussian_affinity_gaps_oracle(GRID, *args)
                        assert abs(got - np.max(dense - offset)) <= 1e-15

    def test_regression_certification_gaps_against_x_grid(self):
        cfg = parse_config(CONFIGS / "regression.yaml")
        reg = build_regime(cfg)
        rng = np.random.default_rng(6)
        ids = tuple(cfg.subset)
        means = reg._means[list(ids)]
        for n in cfg.schedule.n_values:
            radius = max(0.5 * reg.pair_dist(ids[0], i, n) ** 2 for i in ids)
            weights = rng.dirichlet(np.ones(len(ids)), size=4)
            truth_gots = reg.mixture_truth_gap(ids, weights, n)
            center_gots = reg.closure_violation(ids, ids[0], weights, n)
            for w, truth_got, center_got in zip(weights, truth_gots, center_gots):
                truth_gaps = gaussian_affinity_gaps_oracle(
                    GRID, means[:, :n], reg._truth_means[:n], 1.0, w)
                center_gaps = gaussian_affinity_gaps_oracle(
                    GRID, means[:, :n], means[0, :n], 1.0, w)
                assert abs(truth_got - truth_gaps.mean()) <= 1e-15
                assert abs(center_got - (center_gaps.mean() - radius)) <= 1e-15

    def test_far_offsets_raise_no_overflow(self):
        """Offsets of 200 and 400 sds: every term of a far mixture underflows
        and none overflows, and a far term beside a near one adds nothing."""
        deltas = np.array([[200.0, 0.0, 0.0], [400.0, 0.0, 200.0]])
        with np.errstate(over="raise", invalid="raise"):
            gaps = _z_integrals(deltas, np.array([[0.5, 0.5]]), affinity=True)[0]
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

        # the regime integrates on its node table, the plain forms on all
        # 4001 nodes: they agree within the table's bounds
        tol = TABLE_TOL["iid"]
        expect_kv = np.array([[kl(truth, f), v_divergence(truth, f)] for f in dens.values()])
        assert np.all(np.abs(reg.atom_kv() - expect_kv) <= tol["kv"] * np.maximum(1.0, expect_kv))
        for a in ids:
            assert abs(reg.truth_dist(a) - hellinger(truth, dens[a])) <= tol["dist"]
            for b in ids:
                assert abs(reg.pair_dist(a, b) - hellinger(dens[a], dens[b])) <= tol["dist"]
        hull, center = reg.hull_gap_bound(ids)
        plain_hull, plain_center = _triangle_bound(
            ids, lambda c: hellinger(truth, dens[c]), lambda c, j: hellinger(dens[c], dens[j])
        )
        assert center == plain_center and abs(hull - plain_hull) <= tol["dist"]
        gaps = [h_affinity_gap(truth, f) for f in dens.values()]
        assert np.max(np.abs(reg.separation_gaps(ids) - gaps)) <= 1e-15
        assert np.max(np.abs(reg.vertex_certificates(ids) - 1.0)) <= 1e-12
        weights = np.random.default_rng(4).dirichlet(np.ones(len(ids)), size=5)
        for w, got in zip(weights, reg.mixture_truth_gap(ids, weights)):
            plain = h_affinity_gap(truth, mixture_density(list(dens.values()), w))
            assert abs(got - plain) <= 1e-15

        data = generate_data(reg, 200, seed=6)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        stride = UNIT_STRIDE
        nodes = Grid(GRID.lower, GRID.upper, (GRID.points - 1) // stride + 1)
        kern = nodes.quad_weights * truth.values[::stride]
        entropy = float(kern @ truth.log_values[::stride])
        values = np.stack([f.values[::stride] for f in dens.values()])
        plain = np.maximum(entropy - np.log(values.T @ w).T @ kern, 0.0)
        assert np.array_equal(cesaro_kls_one(reg, data, w), plain)


def random_location_regime(rng, kind):
    """A location prior of one to seven atoms, sd 0.7 to 1.3, whose every
    density, and under misspecification every weighted integrand
    f_star f / f_circ, keeps 8 sds inside the grid."""
    while True:
        sd = rng.uniform(0.7, 1.3)
        reach = GRID.upper - 8.0 * sd
        means = sorted(rng.uniform(-reach, reach, int(rng.integers(1, 8))))
        prior = uniform_prior(build_gaussian_location_family(GRID, means, sd=sd))
        if kind == "iid":
            truth_sd = rng.uniform(0.7, 1.3)
            truth_reach = GRID.upper - 8.0 * truth_sd
            truth = gaussian_density(GRID, rng.uniform(-truth_reach, truth_reach), truth_sd)
            return IidRegime(prior, truth)
        truth_mean = rng.uniform(-reach, reach)
        proj = int(np.argmin([(m - truth_mean) ** 2 for m in means]))
        if max(abs(truth_mean + m - means[proj]) for m in means) <= reach:
            truth = gaussian_density(GRID, truth_mean, sd)
            return MisspecifiedRegime(MisspecifiedSetup(prior, truth, proj))


class TestNodeTable:
    """The density regime integrates every atom and every certification
    mixture on one table at its Cesaro nodes; each method agrees with the
    same functional on all 4001 grid nodes within ``TABLE_TOL``."""

    @staticmethod
    def _check(reg, rng):
        tol = TABLE_TOL[reg.kind]
        fc, fs = reg.f_circ, reg.true_density
        dens = {m.id: m.density for m in reg.prior.members}
        ids = tuple(dens)

        def close(got, ref, key):
            ref = np.asarray(ref)
            assert np.all(np.abs(np.asarray(got) - ref) <= tol[key] * np.maximum(1.0, np.abs(ref)))

        def dist(f, g):
            return weighted_hellinger_between(f, g, f_star=fs, f_circ=fc)

        close(reg.atom_kv(), [[max(0.0, kl_contrast(fc, f, fs)), v_star(fc, f, fs)]
                              for f in dens.values()], "kv")
        close(reg.separation_gaps(ids), [h_star(fc, f, fs) for f in dens.values()], "gap")
        close(reg.vertex_certificates(ids),
              [kleijn_certificate(fc, f, fs) for f in dens.values()], "gap")
        close([reg.truth_dist(a) for a in ids], [dist(fc, dens[a]) for a in ids], "dist")
        close([[reg.pair_dist(a, b) for b in ids] for a in ids],
              [[dist(dens[a], dens[b]) for b in ids] for a in ids], "dist")
        hull, center = reg.hull_gap_bound(ids)
        ref_hull, ref_center = _triangle_bound(
            ids, lambda c: dist(fc, dens[c]), lambda c, j: dist(dens[c], dens[j]))
        assert center == ref_center
        close(hull, ref_hull, "dist")
        weights = rng.dirichlet(np.ones(len(ids)), size=5)
        mixes = [mixture_density(list(dens.values()), w) for w in weights]
        close(reg.mixture_truth_gap(ids, weights), [h_star(fc, m, fs) for m in mixes], "gap")
        radius = max(dist(dens[center], dens[i]) for i in ids)
        close(reg.closure_violation(ids, center, weights),
              [dist(dens[center], m) - radius for m in mixes], "dist")

    @pytest.mark.parametrize("name", ["iid", "misspecified", "sieve"])
    def test_shipped_configs(self, name):
        self._check(build_regime(parse_config(CONFIGS / f"{name}.yaml")),
                    np.random.default_rng(8))

    @pytest.mark.parametrize("kind", ["iid", "misspecified"])
    def test_random_priors_inside_the_grid(self, kind):
        rng = np.random.default_rng(9)
        for _ in range(150):
            self._check(random_location_regime(rng, kind), rng)

    @pytest.mark.parametrize("name", ["iid", "misspecified"])
    def test_one_hot_on_the_farthest_atom_closes_exactly(self, name):
        """The closure radius and the mixture distances come from one table,
        so the ball's farthest atom as a mixture lies exactly on its edge,
        whatever batch of draws it comes in."""
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        ids = cfg.subset
        center = reg.hull_gap_bound(ids)[1]
        far = max(range(len(ids)), key=lambda k: reg.pair_dist(center, ids[k]))
        weights = np.random.default_rng(10).dirichlet(np.ones(len(ids)), size=7)
        weights[3] = np.eye(len(ids))[far]
        violation = reg.closure_violation(ids, center, weights)
        assert violation[3] == 0.0
        assert reg.closure_violation(ids, center, weights[3:4])[0] == 0.0
        assert np.max(violation) <= 0.0


class TestPickledRegime:
    """A regime sent to a pool worker is a pickled copy; every method must
    give the bits the original gives, so that parallel runs equal serial ones."""

    @pytest.mark.parametrize("name", ["iid", "misspecified", "regression", "markov"])
    def test_pickled_regime_computes_the_same_bits(self, name):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        clone = pickle.loads(pickle.dumps(reg))
        n = cfg.schedule.n_values[-1]
        ids = cfg.subset
        atoms = [m.id for m in reg.prior.members]
        weights = np.random.default_rng(13).dirichlet(np.ones(len(ids)), size=20)
        data = generate_data(reg, n, seed=cfg.seed)
        w = softmax(cumulative_log_ratio(reg, data)[:, :-1], axis=0)
        calls = [
            lambda r: r.atom_kv(n),
            lambda r: r.separation_gaps(atoms, n),
            lambda r: [r.truth_dist(a, n) for a in atoms],
            lambda r: [[r.pair_dist(a, b, n) for b in atoms] for a in atoms],
            lambda r: r.hull_gap_bound(ids, n),
            lambda r: r.mixture_truth_gap(ids, weights, n),
            lambda r: r.closure_violation(ids, ids[-1], weights, n),
            lambda r: cesaro_kls_one(r, data, w),
        ]
        if name in ("iid", "misspecified"):
            calls.append(lambda r: r.vertex_certificates(atoms))
        for call in calls:
            assert np.array_equal(call(clone), call(reg))


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

    def test_one_profile_per_n_and_no_schedule_built(self, monkeypatch):
        reg = markov_regime(thetas=(0.6, 0.55, -0.9), theta0_bound=0.5)
        sched = RateSchedule((50, 100, 200))

        def no_schedule(*args, **kwargs):
            raise AssertionError("thickness_records built a RateSchedule")

        monkeypatch.setattr(experiments, "RateSchedule", no_schedule)
        recs = thickness_records(reg, sched)
        assert recs == [thickness_profile(reg.prior, n, sched.epsilon(n), reg.atom_kv(n),
                                          reg.theta0_mask()) for n in sched.n_values]

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
        assert cert.closure_violation <= 1e-9
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
        assert cert.closure_violation <= 1e-9


class ClosureStub:
    """A well-specified regime on which every check of certify_subset passes
    but the closure step, whose violation per weight row is ``violation``.
    It records the weights each mixture step is given."""

    well_specified = True

    def __init__(self, violation):
        self.violation = violation
        self.seen = []

    def separation_gaps(self, ids, n):
        return np.full(len(ids), 0.5)

    def hull_gap_bound(self, ids, n):
        return 0.5, ids[0]

    def closure_violation(self, ids, center_id, weights, n):
        self.seen.append(("closure", weights))
        return self.violation(weights)

    def mixture_truth_gap(self, ids, weights, n):
        self.seen.append(("mixture", weights))
        return np.full(len(weights), 0.4)


class TestClosureStep:
    """certify_subset's two mixture steps draw from one rule, and its closure
    step reports the worst violation, clipped at 0, within a 1e-9 tolerance."""

    def certify(self, violation, ids=(1, 2, 3), draws=25, seed=7):
        stub = ClosureStub(violation)
        rng = np.random.default_rng(seed)
        return certify_subset(stub, ids, 0.1, 50, rng, draws=draws), stub, rng

    def test_singleton_takes_weight_one_and_draws_nothing(self):
        cert, stub, rng = self.certify(lambda w: np.zeros(len(w)), ids=(4,), draws=50, seed=0)
        assert len(stub.seen) == 1 and stub.seen[0][0] == "closure"
        assert np.array_equal(stub.seen[0][1], np.ones((1, 1)))
        assert cert.closure_violation == 0.0 and cert.mixture_min_gap == 0.5
        assert rng.random() == np.random.default_rng(0).random()

    @staticmethod
    def per_draw_rows(seed=7, draws=25):
        single = np.random.default_rng(seed)
        return single, [np.stack([single.dirichlet(np.ones(3)) for _ in range(draws)])
                        for _ in ("closure", "mixture")]

    def test_one_dirichlet_call_per_step_gives_the_per_draw_rows(self):
        cert, stub, rng = self.certify(lambda w: (w[:, 0] - 0.5) * 1e-9)
        single, expect = self.per_draw_rows()
        for step, (name, weights), rows in zip(("closure", "mixture"), stub.seen, expect,
                                               strict=True):
            assert name == step and np.array_equal(weights, rows)
        assert rng.random() == single.random()
        assert cert.mixture_min_gap == 0.4

    def test_worst_row_violation_is_reported(self):
        """Rows of both signs, all within the tolerance: the largest is the
        one reported, not the first row's or the mean."""
        cert, _, _ = self.certify(lambda w: (w[:, 0] - 0.5) * 1e-9)
        closure = (self.per_draw_rows()[1][0][:, 0] - 0.5) * 1e-9
        assert np.any(closure > 0.0) and np.any(closure < 0.0)
        assert closure[0] != np.max(closure) != np.mean(closure)
        assert cert.closure_violation == float(np.max(closure))

    def test_worst_row_violation_refuses(self):
        closure = self.per_draw_rows()[1][0][:, 0] - 0.5
        assert np.any(closure < 0.0) and closure[0] != np.max(closure)
        refused = rf"mixture closure failed \(violation {float(np.max(closure)):.6g}\)"
        with pytest.raises(SubsetNotAdmissibleError, match=refused):
            self.certify(lambda w: w[:, 0] - 0.5)

    def test_worst_violation_is_clipped_at_zero(self):
        cert, _, _ = self.certify(lambda w: w[:, 0] - 2.0)
        assert cert.closure_violation == 0.0

    def test_rounding_tolerance(self):
        cert, _, _ = self.certify(lambda w: np.full(len(w), 1e-9))
        assert cert.closure_violation == 1e-9
        refused = r"mixture closure failed \(violation 2e-09\)"
        with pytest.raises(SubsetNotAdmissibleError, match=refused):
            self.certify(lambda w: np.full(len(w), 2e-9))

    def test_zero_draws_find_no_violation(self):
        cert, stub, _ = self.certify(lambda w: w[:, 0], draws=0)
        assert [w.shape for _, w in stub.seen] == [(0, 3), (0, 3)]
        assert cert.closure_violation == 0.0 and cert.mixture_min_gap == math.inf

    def test_violation_reported_when_radius_too_small(self):
        refused = r"mixture closure failed \(violation 0.3\)"
        with pytest.raises(SubsetNotAdmissibleError, match=refused):
            self.certify(lambda w: np.full(len(w), 0.5 - 0.2), draws=10, seed=1)


class TestBatchedCertification:
    """Every certification step evaluates all its Dirichlet draws in one call;
    each draw must come out exactly as it did when computed alone."""

    @pytest.mark.parametrize("k", [2, 3, 6])
    @pytest.mark.parametrize("draws", [1, 7, 100])
    def test_dirichlet_size_gives_the_separate_draws(self, k, draws):
        batch_rng, single_rng = np.random.default_rng(11), np.random.default_rng(11)
        batch = batch_rng.dirichlet(np.ones(k), size=draws)
        singles = np.stack([single_rng.dirichlet(np.ones(k)) for _ in range(draws)])
        assert np.array_equal(batch, singles)
        assert batch_rng.random() == single_rng.random()

    # subsets per config, singletons included; 250 draws end in a partial
    # draw chunk on regression (chunks of 3 to 15 draws) and markov (212 up)
    CASES = {
        "iid": ((3,), (2, 3), (1, 2, 3)), "misspecified": ((1,), (0, 1)),
        "regression": ((4,), (3, 4, 5), (0, 3, 5)), "markov": ((5,), (4, 5), (0, 3, 4, 5)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batched_equals_per_draw_oracle(self, name):
        cfg = parse_config(CONFIGS / f"{name}.yaml")
        reg = build_regime(cfg)
        rng = np.random.default_rng(12)
        counts = (1, 7) if name in ("iid", "misspecified") else (1, 7, 250)
        n = cfg.schedule.n_values[-1]
        for ids in self.CASES[name]:
            for draws in counts:
                weights = rng.dirichlet(np.ones(len(ids)), size=draws)
                truth = reg.mixture_truth_gap(ids, weights, n)
                closure = reg.closure_violation(ids, ids[-1], weights, n)
                assert truth.shape == closure.shape == (draws,)
                assert np.array_equal(
                    truth, [mixture_truth_gap_oracle(reg, ids, w, n) for w in weights])
                assert np.array_equal(
                    closure, [closure_violation_oracle(reg, ids, ids[-1], w, n) for w in weights])

    def test_regression_gaps_at_every_horizon(self):
        cfg = parse_config(CONFIGS / "regression.yaml")
        reg = build_regime(cfg)
        ids = cfg.subset
        weights = np.random.default_rng(13).dirichlet(np.ones(len(ids)), size=5)
        for n in (1, 2, *cfg.schedule.n_values):
            assert np.array_equal(reg.mixture_truth_gap(ids, weights, n),
                                  [mixture_truth_gap_oracle(reg, ids, w, n) for w in weights])

    def test_spacing_groups_and_one_draw_chunks(self):
        """Offsets spread far enough to split the columns into several spacing
        groups and chunks, each too wide to hold two draws."""
        rng = np.random.default_rng(14)
        deltas = rng.normal(0.0, 6.0, size=(3, 700))
        weights = rng.dirichlet(np.ones(3), size=9)
        got = _z_integrals(deltas, weights, affinity=True)
        assert np.array_equal(got, [z_node_oracle(deltas, w, affinity=True) for w in weights])

    def test_regression_certification_memory_is_bounded(self):
        """A 1,000-draw certification holds its per-draw results and a few
        buffers of Z_BUFFER node values, never a (draws, columns, nodes) array
        (about 150 MB here)."""
        cfg = parse_config(CONFIGS / "regression.yaml")
        reg = build_regime(cfg)
        n, draws = cfg.schedule.n_values[-1], 1000
        reg.mixture_truth_gap(cfg.subset, np.full((1, 3), 1.0 / 3.0), n)  # first-call set-up, untraced
        tracemalloc.start()
        try:
            certify_subset(reg, cfg.subset, 0.01, n, np.random.default_rng(15), draws=draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results = draws * n * 8
        buffers = (len(cfg.subset) + 2) * Z_BUFFER * 8
        assert peak <= results + buffers + (1 << 20), peak

    def test_wide_subset_memory_is_bounded(self):
        """Fourteen atoms and 100 draws: a chunk's terms, a row group's mixture
        and the product being added to it hold at most Z_BUFFER values each,
        however many atoms and draws there are."""
        rng = np.random.default_rng(16)
        deltas = rng.normal(0.0, 1.0, size=(14, 450))
        weights = rng.dirichlet(np.ones(14), size=100)
        _z_integrals(deltas, weights, affinity=True)
        tracemalloc.start()
        try:
            _z_integrals(deltas, weights, affinity=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= weights.shape[0] * deltas.shape[1] * 8 + 3 * Z_BUFFER * 8 + (1 << 19), peak


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
