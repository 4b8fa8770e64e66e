import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bayesrates.divergences import (
    Grid,
    NonstationaryError,
    OutsideGridError,
    default_grid,
    gaussian_density,
    hellinger,
    kl,
)
from bayesrates.models import (
    IID,
    MARKOV,
    REGRESSION,
    AtomicPrior,
    FamilyMember,
    MarkovParam,
    MisspecifiedSetup,
    ModelError,
    RegressionFunction,
    build_gaussian_location_family,
    design_points,
    linear_regression_function,
    location_faults,
    log_likelihood,
    uniform_prior,
)
from helpers import kl_contrast, kl_projection, random_gaussian_mixture

GRID = default_grid()


class TestFamilies:
    def test_single_member_projection_is_zero(self):
        fam = build_gaussian_location_family(GRID, [0.7])
        f_star = gaussian_density(GRID, 0.7, 1.0)
        member_id, val = kl_projection(f_star, fam)
        assert member_id == 0
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_two_member_hellinger(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0])
        assert hellinger(fam[0].density, fam[1].density) == pytest.approx(0.48478, abs=1e-5)

    def test_members_normalized(self):
        fam = build_gaussian_location_family(GRID, np.linspace(-2, 2, 21))
        assert len(fam) == 21
        for m in fam:
            assert abs(GRID.integrate(m.density.values) - 1.0) < 1e-8

    def test_grid_clipping_rejected(self):
        with pytest.raises(ModelError, match="grid clips density"):
            build_gaussian_location_family(GRID, [8.0], sd=1.0)

    @pytest.mark.parametrize("sd", [0.0, -1.0, math.nan, 0.011])
    def test_sd_under_two_spacings_rejected(self, sd):
        with pytest.raises(ModelError, match=f"family.sd = {sd} is below 2 grid spacings"):
            build_gaussian_location_family(GRID, [0.0], sd=sd)

    def test_member_kind_payload_consistency(self):
        with pytest.raises(ModelError):
            FamilyMember(0, IID, MarkovParam(0.5))
        with pytest.raises(ModelError):
            FamilyMember(0, MARKOV, gaussian_density(GRID, 0.0, 1.0))
        with pytest.raises(ModelError):
            FamilyMember(0, "weird", MarkovParam(0.5))


class TestKlProjection:
    def test_closed_form_example(self):
        fam = build_gaussian_location_family(GRID, [0.5, 1.0, 1.5])
        f_star = gaussian_density(GRID, 0.0, 1.0)
        member_id, val = kl_projection(f_star, fam)
        assert member_id == 0
        assert val == pytest.approx(0.125, abs=1e-5)

    def test_tie_goes_to_smallest_id(self):
        fam = build_gaussian_location_family(GRID, [-1.0, 1.0])
        f_star = gaussian_density(GRID, 0.0, 1.0)
        member_id, _ = kl_projection(f_star, fam)
        assert member_id == 0

    def test_random_scan_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            means = rng.uniform(-2, 2, size=rng.integers(2, 8))
            fam = build_gaussian_location_family(GRID, means)
            f_star = random_gaussian_mixture(rng, GRID)
            member_id, val = kl_projection(f_star, fam)
            vals = [kl(f_star, m.density) for m in fam]
            assert member_id == int(np.argmin(vals))
            assert val == pytest.approx(min(vals), abs=1e-12)

    def test_contrast_nonnegative_at_projection(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            means = rng.uniform(-2, 2, size=5)
            fam = build_gaussian_location_family(GRID, means)
            f_star = random_gaussian_mixture(rng, GRID)
            proj_id, _ = kl_projection(f_star, fam)
            f_circ = fam[proj_id].density
            for m in fam:
                assert kl_contrast(f_circ, m.density, f_star) >= -1e-9


class TestPrior:
    def test_weights_renormalized(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0])
        prior = AtomicPrior(fam, [2.0, 6.0])
        assert_allclose(prior.weights, [0.25, 0.75])
        assert abs(prior.weights.sum() - 1.0) <= 1e-12

    def test_uniform(self):
        fam = build_gaussian_location_family(GRID, [0.0, 0.5, 1.0])
        prior = uniform_prior(fam)
        assert_allclose(prior.weights, np.full(3, 1 / 3))
        assert prior.kind == IID

    def test_mass_of(self):
        fam = build_gaussian_location_family(GRID, [0.0, 0.5, 1.0])
        prior = AtomicPrior(fam, [0.2, 0.3, 0.5])
        assert prior.mass_of([0, 2]) == pytest.approx(0.7)
        assert prior.mass_of([1, 1]) == pytest.approx(0.3)

    def test_validation(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0])
        with pytest.raises(ModelError):
            AtomicPrior(fam, [0.5, -0.5])
        with pytest.raises(ModelError):
            AtomicPrior(fam, [1.0])
        with pytest.raises(ModelError):
            AtomicPrior([], [])
        mixed = [fam[0], FamilyMember(1, MARKOV, MarkovParam(0.5))]
        with pytest.raises(ModelError):
            AtomicPrior(mixed, [0.5, 0.5])
        dup = [fam[0], FamilyMember(0, IID, fam[1].density)]
        with pytest.raises(ModelError):
            AtomicPrior(dup, [0.5, 0.5])


class TestMisspecifiedSetup:
    def test_accepts_true_projection(self):
        fam = build_gaussian_location_family(GRID, [0.5, 1.0, 1.5])
        prior = uniform_prior(fam)
        f_star = gaussian_density(GRID, 0.0, 1.0)
        setup = MisspecifiedSetup(prior, f_star, projection_id=0)
        assert setup.prior.members[setup.prior.index_of(setup.projection_id)] is fam[0]

    def test_rejects_wrong_projection(self):
        fam = build_gaussian_location_family(GRID, [0.5, 1.0, 1.5])
        prior = uniform_prior(fam)
        f_star = gaussian_density(GRID, 0.0, 1.0)
        with pytest.raises(ModelError, match=r"truth.projection_id = 2 is not the kl "
                                              r"projection: family.means\[0\] = 0.5"):
            MisspecifiedSetup(prior, f_star, projection_id=2)

    def test_rejects_tilt_off_the_grid(self):
        # atom 1's weighted integrand f_star f / f_circ peaks at 16, off the
        # grid; built, its ratio certificate read 6.0e8 against e^24
        prior = uniform_prior(build_gaussian_location_family(GRID, [0.0, 4.0]))
        with pytest.raises(ModelError, match=r"family.means\[1\] = 4.0 tilts f_star f / f_circ "
                                              r"to mean 16.0 with truth.sd = 2.0"):
            MisspecifiedSetup(prior, gaussian_density(GRID, 0.0, 2.0), projection_id=0)

    def test_hand_built_atoms_are_checked(self):
        members = [FamilyMember(j, IID, gaussian_density(GRID, m, 1.0))
                   for j, m in enumerate([0.0, 8.0])]
        with pytest.raises(ModelError, match=r"grid clips density.*family.means\[1\] = 8.0 "
                                              r"with family.sd = 1.0 needs \[2.0, 14.0\]"):
            MisspecifiedSetup(uniform_prior(members), gaussian_density(GRID, 0.0, 1.0), 0)

    def test_densities_without_gaussian_parameters_use_the_grid_kl(self):
        # a mixture truth, and atoms of two sds, have no closed-form projection
        rng = np.random.default_rng(5)
        for f_star, fam in (
            (random_gaussian_mixture(rng, GRID),
             build_gaussian_location_family(GRID, [-1.0, 0.0, 1.5])),
            (gaussian_density(GRID, 0.3, 1.0),
             [FamilyMember(j, IID, gaussian_density(GRID, m, s))
              for j, (m, s) in enumerate([(0.0, 1.0), (0.3, 2.5)])]),
        ):
            assert f_star.gaussian is None or len({m.density.gaussian[1] for m in fam}) > 1
            best, _ = kl_projection(f_star, fam)
            MisspecifiedSetup(uniform_prior(fam), f_star, projection_id=best)
            for other in {m.id for m in fam} - {best}:
                with pytest.raises(ModelError, match=f"beats declared projection {other}"):
                    MisspecifiedSetup(uniform_prior(fam), f_star, projection_id=other)


class TestLocationFaults:
    def test_faults_carry_their_config_key(self):
        assert location_faults(GRID, [0.0, 4.0, 11.0], 1.0, 20.0, 0.01, 0) == [
            ("truth.sd", "truth.sd = 0.01 is below 2 grid spacings, 0.012"),
            ("family.means", "family.means[2] = 11.0 with family.sd = 1.0 needs [5.0, 17.0] "
                             "inside the grid [-12.0, 12.0]"),
            ("truth.mean", "truth.mean = 20.0 with truth.sd = 0.01 needs [19.94, 20.06] "
                           "inside the grid [-12.0, 12.0]"),
            ("truth.projection_id", "truth.projection_id = 0 is not the kl projection: "
                                    "family.means[2] = 11.0 is nearer truth.mean = 20.0"),
        ]

    def test_none_is_not_checked(self):
        assert location_faults(GRID, None, None, None, None, 0) == []
        assert location_faults(GRID, [40.0], None, 0.0, 1.0) == []
        assert location_faults(GRID, [0.0, 3.0], 1.0, None, 4.0, 1) == []

    def test_means_may_be_an_array(self):
        assert location_faults(GRID, np.array([0.0, 1.0]), 1.0, 0.9, 1.0, 0) == [
            ("truth.projection_id", "truth.projection_id = 0 is not the kl projection: "
                                    "family.means[1] = 1.0 is nearer truth.mean = 0.9")]


class TestLikelihood:
    def test_iid_matches_density_at_nodes(self):
        fam = build_gaussian_location_family(GRID, [0.0])
        y = float(GRID.x[1234])
        assert log_likelihood(fam[0], y) == pytest.approx(fam[0].density.log_values[1234])

    def test_iid_outside_grid_rejected(self):
        fam = build_gaussian_location_family(GRID, [0.0])
        with pytest.raises(OutsideGridError):
            log_likelihood(fam[0], 12.5)

    def test_regression_gaussian_form(self):
        member = FamilyMember(0, REGRESSION, linear_regression_function(2.0, 10))
        # x_5 = 0.5, mean = 1.0
        expected = -0.5 * (1.3 - 1.0) ** 2 - 0.5 * math.log(2 * math.pi)
        assert log_likelihood(member, 1.3, index_i=5) == pytest.approx(expected, abs=1e-12)

    def test_regression_index_required_and_bounded(self):
        member = FamilyMember(0, REGRESSION, linear_regression_function(1.0, 4))
        with pytest.raises(ModelError):
            log_likelihood(member, 0.0)
        with pytest.raises(ModelError):
            log_likelihood(member, 0.0, index_i=5)

    def test_markov_transition_and_stationary(self):
        member = FamilyMember(0, MARKOV, MarkovParam(0.6))
        z = 1.1 - 0.6 * 0.4
        expected = -0.5 * z * z - 0.5 * math.log(2 * math.pi)
        assert log_likelihood(member, 1.1, y_prev=0.4) == pytest.approx(expected, abs=1e-12)
        sd = 1.0 / math.sqrt(1 - 0.36)
        expected0 = -0.5 * (1.1 / sd) ** 2 - 0.5 * math.log(2 * math.pi) - math.log(sd)
        assert log_likelihood(member, 1.1) == pytest.approx(expected0, abs=1e-12)


def stationary_density(param: MarkovParam):
    return gaussian_density(GRID, 0.0, param.stationary_sd)


class TestStationary:
    def test_zero_coefficient_is_standard_normal(self):
        d = stationary_density(MarkovParam(0.0))
        ref = gaussian_density(GRID, 0.0, 1.0)
        assert_allclose(d.values, ref.values, rtol=1e-12)

    def test_variance_closed_form(self):
        d = stationary_density(MarkovParam(0.6))
        assert d.variance() == pytest.approx(1.5625, abs=1e-6)

    def test_invariance_fixed_point(self):
        theta = 0.6
        u = stationary_density(MarkovParam(theta))
        probe = GRID.x[::50]
        kernel = np.exp(-0.5 * (probe[:, None] - theta * GRID.x[None, :]) ** 2) / math.sqrt(
            2 * math.pi
        )
        integrated = kernel @ (GRID.quad_weights * u.values)
        expected = np.exp(u.log_values[::50])
        assert np.max(np.abs(integrated - expected)) < 1e-4

    def test_nonstationary_rejected(self):
        with pytest.raises(NonstationaryError):
            MarkovParam(1.0)


class TestDesign:
    def test_design_points(self):
        assert_allclose(design_points(4), [0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ModelError):
            design_points(0)

    def test_linear_function(self):
        fn = linear_regression_function(2.0, 4)
        assert_allclose(fn.values_at_design, [0.5, 1.0, 1.5, 2.0])
        with pytest.raises(ModelError):
            RegressionFunction(())
