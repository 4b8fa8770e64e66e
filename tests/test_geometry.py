"""Thickness, separation, covers, and the sieve against direct-scan oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesrates.divergences import default_grid, h_affinity_gap, hellinger
from bayesrates.geometry import (
    Ball,
    ConditionParams,
    GeometryError,
    RateSchedule,
    build_sieve_from_cover,
    greedy_cover,
    separation_report,
    thickness_profile,
)
from bayesrates.models import build_gaussian_location_family, uniform_prior
from helpers import exhaustive_cover_count, mixture_density

GRID = default_grid()


def gauss_hellinger(m0, m1):
    return math.sqrt(2.0 * (1.0 - math.exp(-((m0 - m1) ** 2) / 8.0)))


class TestRateSchedule:
    def test_stores_and_evaluates_power_law(self):
        sched = RateSchedule((50, 100, 200), a=0.8, gamma=1.0 / 3.0)
        assert sched.epsilon(100) == pytest.approx(0.8 * 100 ** (-1 / 3))
        assert len(sched.epsilons) == 3

    def test_epsilon_must_decrease(self):
        # kappa-heavy envelopes rise over small n
        with pytest.raises(GeometryError, match="decrease"):
            RateSchedule((2, 3, 4), a=1.0, gamma=0.1, kappa=2.0)

    def test_n_eps_sq_must_increase(self):
        with pytest.raises(GeometryError, match="increase"):
            RateSchedule((100, 200), a=1.0, gamma=0.75)

    def test_rejects_bad_sample_sizes(self):
        with pytest.raises(GeometryError, match="increasing"):
            RateSchedule((100, 100))
        with pytest.raises(GeometryError, match="positive"):
            RateSchedule((0, 10))
        with pytest.raises(GeometryError, match="at least one"):
            RateSchedule(())


class TestConditionParams:
    def test_field_validation(self):
        with pytest.raises(GeometryError, match="beta"):
            ConditionParams(C=0.1, beta=1.0)
        with pytest.raises(GeometryError, match="positive"):
            ConditionParams(C=0.1, r=-1.0)


class TestThickness:
    def test_true_atom_keeps_its_weight_in_every_neighborhood(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0, 2.0])
        prior = uniform_prior(fam)
        kv = np.array([[0.0, 0.0], [0.5, 0.6], [2.0, 2.4]])
        recs = [thickness_profile(prior, n, n ** (-1.0 / 3.0), kv) for n in (100, 400, 1600)]
        for rec in recs:
            assert rec.neighborhood_mass >= prior.weights[0] - 1e-15
            assert rec.implied_c <= -math.log(prior.weights[0]) / (rec.n * rec.epsilon**2) + 1e-12
        assert recs[-1].implied_c < recs[0].implied_c

    def test_mass_counts_exactly_the_qualifying_atoms(self):
        fam = build_gaussian_location_family(GRID, [0.0, 0.5, 3.0])
        prior = uniform_prior(fam)
        # at eps = 0.3 only the first atom fits K, V <= 0.09
        kv = np.array([[0.05, 0.08], [0.125, 0.2], [4.5, 9.0]])
        rec = thickness_profile(prior, 100, 0.3, kv)
        assert (rec.n, rec.epsilon) == (100, 0.3)
        assert rec.neighborhood_mass == pytest.approx(1.0 / 3.0)
        assert rec.implied_c == -math.log(1.0 / 3.0) / (100 * (0.3 * 0.3))

    def test_empty_neighborhood_reports_infinite_constant(self):
        fam = build_gaussian_location_family(GRID, [1.0, 2.0])
        prior = uniform_prior(fam)
        kv = np.array([[0.5, 0.5], [2.0, 2.0]])
        rec = thickness_profile(prior, 100, RateSchedule((100,), a=0.3).epsilon(100), kv)
        assert rec.neighborhood_mass == 0.0
        assert rec.implied_c == math.inf

    def test_extra_mask_intersects(self):
        fam = build_gaussian_location_family(GRID, [0.0, 0.1])
        prior = uniform_prior(fam)
        kv = np.zeros((2, 2))
        rec = thickness_profile(prior, 100, 100 ** (-1.0 / 3.0), kv,
                                extra_mask=np.array([True, False]))
        assert rec.neighborhood_mass == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        fam = build_gaussian_location_family(GRID, [0.0, 1.0])
        prior = uniform_prior(fam)
        with pytest.raises(GeometryError, match="kv"):
            thickness_profile(prior, 100, 0.2, np.zeros((3, 2)))


class TestSeparation:
    def test_reference_itself_is_never_separated(self):
        rep = separation_report([0.0, 0.4], delta=1e-12)
        assert not rep.separated
        assert rep.min_gap == 0.0

    def test_hellinger_ball_around_distant_center(self):
        # members within H-radius r/2 of f0, with H(f*, f0) > r: the
        # affinity gaps all clear r^2/8
        fam = build_gaussian_location_family(GRID, [1.0, 1.2, 1.5])
        f_star = build_gaussian_location_family(GRID, [0.0])[0].density
        f0 = fam[1].density
        r = 0.55
        assert hellinger(f_star, f0) > r
        for m in fam:
            assert hellinger(f0, m.density) <= r / 2.0
        rep = separation_report(
            [0.5 * hellinger(f_star, m.density) ** 2 for m in fam], delta=r * r / 8.0
        )
        assert rep.separated

    def test_flag_matches_exhaustive_scan(self):
        rng = np.random.default_rng(17)
        means = np.linspace(-2.0, 2.0, 9)
        fam = build_gaussian_location_family(GRID, list(means))
        f_star = fam[4].density
        gap = lambda a, b: h_affinity_gap(a, b)
        for _ in range(20):
            take = rng.choice(9, size=rng.integers(1, 5), replace=False)
            members = [fam[i].density for i in take]
            delta = float(rng.uniform(0.0, 0.3))
            rep = separation_report([gap(f_star, m) for m in members], delta)
            manual = min(gap(f_star, m) for m in members)
            assert rep.min_gap == pytest.approx(manual, abs=1e-15)
            assert rep.separated == (manual > delta)

    def test_empty_subset_rejected(self):
        with pytest.raises(GeometryError, match="nonempty"):
            separation_report([], 0.1)


class TestMixtureClosure:
    """Affinity-gap balls are closed under mixing, which lets certify_subset's
    hull bound stand for every mixture of a subset; tests/test_hull_certificate.py
    checks that on random regimes of every kind."""

    def test_affinity_gap_ball_closed_under_mixing(self):
        fam = build_gaussian_location_family(GRID, [0.0, -0.5, 0.3, 0.6])
        center = fam[0].density
        members = [m.density for m in fam[1:]]
        radius = max(h_affinity_gap(center, m) for m in members)
        for w in np.random.default_rng(3).dirichlet(np.ones(len(members)), size=200):
            assert h_affinity_gap(center, mixture_density(members, w)) <= radius + 1e-9

    def test_two_member_ball_on_weight_grid(self):
        fam = build_gaussian_location_family(GRID, [0.0, 0.9, -0.9])
        center = fam[0].density
        members = [m.density for m in fam[1:]]
        radius = max(h_affinity_gap(center, m) for m in members)
        for w in np.linspace(0.0, 1.0, 21):
            mix = mixture_density(members, np.array([w, 1.0 - w]))
            assert h_affinity_gap(center, mix) <= radius + 1e-12


class TestGreedyCover:
    def dist_from_means(self, means):
        return lambda i, j: gauss_hellinger(means[i], means[j])

    def test_one_ball_when_everything_is_close(self):
        means = {0: 0.0, 1: 0.05, 2: -0.04}
        cover = greedy_cover([0, 1, 2], 0.5, self.dist_from_means(means))
        assert len(cover) == 1
        assert cover[0].center_id == 0
        assert set(cover[0].member_ids) == {0, 1, 2}

    def test_one_ball_per_atom_when_all_far(self):
        means = {0: -6.0, 1: 0.0, 2: 6.0}
        cover = greedy_cover([0, 1, 2], 0.1, self.dist_from_means(means))
        assert len(cover) == 3
        assert sorted(b.center_id for b in cover) == [0, 1, 2]

    def test_members_lie_within_radius_and_union_covers(self):
        rng = np.random.default_rng(23)
        means = {i: float(m) for i, m in enumerate(rng.uniform(-3, 3, size=15))}
        dist = self.dist_from_means(means)
        cover = greedy_cover(means.keys(), 0.25, dist)
        covered = set()
        for b in cover:
            covered |= set(b.member_ids)
            for j in b.member_ids:
                assert dist(b.center_id, j) <= 0.25
        assert covered == set(means.keys())

    def test_ball_count_is_near_optimal_on_a_line(self):
        means = {i: float(m) for i, m in enumerate(np.linspace(-2.0, 2.0, 21))}
        dist = self.dist_from_means(means)
        greedy = len(greedy_cover(means.keys(), 0.2, dist))
        exact = exhaustive_cover_count(means.keys(), 0.2, dist)
        assert exact <= greedy <= 2 * exact

    def test_larger_radius_never_needs_more_balls(self):
        rng = np.random.default_rng(29)
        means = {i: float(m) for i, m in enumerate(rng.uniform(-3, 3, size=12))}
        dist = self.dist_from_means(means)
        counts = [len(greedy_cover(means.keys(), r, dist)) for r in (0.1, 0.25, 0.5, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_each_pair_is_measured_once(self):
        """A ball's membership and the nearest-center update read one distance
        per (center, atom) pair."""
        means = {i: float(m) for i, m in enumerate(np.linspace(-2.0, 2.0, 9))}
        dist = self.dist_from_means(means)
        calls = []

        def counted(i, j):
            calls.append((i, j))
            return dist(i, j)

        cover = greedy_cover(means.keys(), 0.3, counted)
        assert len(calls) == len(set(calls)) == len(cover) * len(means)
        assert cover == greedy_cover(means.keys(), 0.3, dist)

    def test_exhaustive_search_capped(self):
        with pytest.raises(GeometryError, match="capped"):
            exhaustive_cover_count(range(30), 0.1, lambda i, j: 1.0)


def flat_prior(n_atoms, weights=None):
    fam = build_gaussian_location_family(GRID, list(np.linspace(-1, 1, n_atoms)))
    from bayesrates.models import AtomicPrior

    return uniform_prior(fam) if weights is None else AtomicPrior(fam, weights)


def partition_balls(prior, groups, radius=0.1):
    return [
        Ball(center_id=g[0], radius=radius, member_ids=tuple(g)) for g in groups
    ]


class TestConditionPSum:
    """S_n, the sum of ball-mass^(1/beta) that sizes the sieve."""

    def test_single_full_mass_ball(self):
        prior = flat_prior(2)
        cover = partition_balls(prior, [[0, 1]])
        sieve = build_sieve_from_cover(cover, prior, 2.0, 1.0, 1.0, n=10, epsilon_n=0.1)
        assert sieve.s_n == pytest.approx(1.0)

    def test_half_quarter_quarter(self):
        prior = flat_prior(3, weights=[0.5, 0.25, 0.25])
        cover = partition_balls(prior, [[0], [1], [2]])
        sieve = build_sieve_from_cover(cover, prior, 2.0, 1.0, 1.0, n=1, epsilon_n=1e-6)
        assert sieve.s_n == pytest.approx(1.0 / math.sqrt(2.0) + 0.5 + 0.5, abs=1e-12)
        assert sieve.s_n == pytest.approx(1.7071067811865475, abs=1e-12)


class TestSieve:
    def geometric_prior(self, n_balls):
        weights = [2.0**-j for j in range(1, n_balls + 1)]
        fam = build_gaussian_location_family(GRID, list(np.linspace(-1, 1, n_balls)))
        from bayesrates.models import AtomicPrior

        return AtomicPrior(fam, weights)

    def test_small_request_keeps_one_ball(self):
        prior = flat_prior(1)
        cover = partition_balls(prior, [[0]])
        # S = 1 so the defining inequality needs r n eps^2 <= 0 volume;
        # shrink S instead via beta on a sub-mass ball
        prior3 = flat_prior(3, weights=[0.25, 0.5, 0.25])
        cover3 = [Ball(center_id=0, radius=0.1, member_ids=(0,))]
        sieve = build_sieve_from_cover(cover3, prior3, beta=2.0, r_const=0.5,
                                       c_const=0.5, n=1, epsilon_n=1.0)
        # t = 2 log 0.5 + 0.5 < 0: j = 1 immediately
        assert sieve.j_n == 1 and sieve.j_requested == 1
        assert not sieve.exhausted
        assert sieve.complement_mass == pytest.approx(0.75)
        del prior, cover

    def test_j_matches_direct_scan_on_geometric_masses(self):
        n_balls = 20
        prior = self.geometric_prior(n_balls)
        cover = partition_balls(prior, [[j] for j in range(n_balls)])
        n, eps, beta, r, c = 100, 0.1, 2.0, 1.0, 0.4
        sieve = build_sieve_from_cover(cover, prior, beta, r, c, n, eps)
        s = sum(prior.weights[j] ** 0.5 for j in range(n_balls))
        target = s**beta * math.exp(r * n * eps * eps)
        direct = next(j for j in range(1, 10**6) if j ** (beta - 1.0) >= target)
        assert sieve.j_requested == direct
        assert sieve.j_n == direct
        assert sieve.s_n == pytest.approx(s, abs=1e-12)

    def test_tail_chain_holds_both_ways(self):
        prior = self.geometric_prior(20)
        cover = partition_balls(prior, [[j] for j in range(20)])
        sieve = build_sieve_from_cover(cover, prior, 2.0, 1.0, 0.4, 100, 0.1)
        assert not sieve.exhausted
        # complement of the retained union, against the proof's partial sum
        assert sieve.complement_mass <= sieve.tail_bound + sieve.uncovered_mass + 1e-12
        assert sieve.mass_bound_max_violation <= 1e-12

    def test_shuffled_input_gives_identical_sieve(self):
        rng = np.random.default_rng(31)
        prior = self.geometric_prior(12)
        groups = [[j] for j in range(12)]
        cover = partition_balls(prior, groups)
        shuffled = list(cover)
        rng.shuffle(shuffled)
        a = build_sieve_from_cover(cover, prior, 2.0, 1.0, 0.4, 80, 0.12)
        b = build_sieve_from_cover(shuffled, prior, 2.0, 1.0, 0.4, 80, 0.12)
        assert a.sieve_ids == b.sieve_ids
        assert a.j_n == b.j_n
        assert a.s_n == b.s_n
        assert a.mass_bound_max_violation == b.mass_bound_max_violation
        assert a.tail_bound == b.tail_bound

    def test_exhaustion_flagged_and_sieve_is_full_union(self):
        prior = flat_prior(3, weights=[0.5, 0.3, 0.2])
        cover = partition_balls(prior, [[0], [1], [2]])
        sieve = build_sieve_from_cover(cover, prior, 2.0, 10.0, 1.0, 10, 0.5)
        assert sieve.exhausted
        assert sieve.j_n == 3
        assert set(sieve.sieve_ids) == {0, 1, 2}
        assert sieve.complement_mass == pytest.approx(0.0)
        assert sieve.tail_bound == 0.0

    def test_astronomical_request_does_not_overflow(self):
        prior = flat_prior(2)
        cover = partition_balls(prior, [[0], [1]])
        sieve = build_sieve_from_cover(cover, prior, 1.001, 5.0, 1.0, 10**4, 1.0)
        assert sieve.exhausted
        assert sieve.j_requested is None
        assert sieve.log_j_requested > 1e4

    def test_log_j_bound_certificate(self):
        prior = self.geometric_prior(20)
        cover = partition_balls(prior, [[j] for j in range(20)])
        n, eps, beta, r = 100, 0.1, 2.0, 1.0
        # c large enough that log S_n <= c n eps^2: the proof bound must bind
        c = 1.0
        sieve = build_sieve_from_cover(cover, prior, beta, r, c, n, eps)
        assert math.log(sieve.s_n) <= c * n * eps * eps
        assert sieve.log_j_bound == pytest.approx((r + beta * c) / (beta - 1.0) * n * eps * eps)
        assert sieve.log_j_ok
        # and with c too small for the discounted sum, the certificate may fail
        weak = build_sieve_from_cover(cover, prior, beta, r, 0.4, n, eps)
        assert not weak.log_j_ok


@settings(max_examples=60, deadline=None)
@given(
    masses=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
    beta=st.floats(1.05, 4.0),
)
def test_sorted_mass_bound_per_index(masses, beta):
    # j-th largest mass cannot exceed S^beta / j^beta
    w = np.sort(np.asarray(masses))[::-1]
    w = w / w.sum()
    s = np.sum(w ** (1.0 / beta))
    caps = s**beta / np.arange(1.0, len(w) + 1.0) ** beta
    assert np.all(w <= caps + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12, unique=True),
    radius=st.floats(0.01, 3.0),
)
def test_greedy_cover_is_a_cover(points, radius):
    coords = {i: p for i, p in enumerate(points)}
    dist = lambda i, j: abs(coords[i] - coords[j])
    cover = greedy_cover(coords.keys(), radius, dist)
    covered = set()
    for b in cover:
        for j in b.member_ids:
            assert dist(b.center_id, j) <= radius
        covered |= set(b.member_ids)
    assert covered == set(coords.keys())
    assert len(cover) <= len(points)
