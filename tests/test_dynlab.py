import dataclasses
import math

import numpy as np
import pytest

from geodlab import dynlab as dl
from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab import mme
from geodlab.errors import InvalidConfigurationError
from geodlab.quotient import FundamentalDomain


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def domain(bolza):
    return FundamentalDomain(bolza)


@pytest.fixture(scope="module")
def table(bolza):
    return fu.build_spectrum(bolza, 8.5)


@pytest.fixture(scope="module")
def big_boxes(domain):
    rng = np.random.default_rng(101)
    return [mme.random_box(domain, rng, position_radius=0.6,
                           angle_halfwidth=1.2) for _ in range(2)]


# a box covering all of T^1 F (position ball beyond the circumradius)
FULL_BOX = mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0),
                        fu.CIRCUMRADIUS + 0.1, math.pi)


class TestReduceRealize:
    def test_reduce_to_F_witness(self, domain):
        v = hg.PhasePoint(hg.DiskPoint(0.88 - 0.21j), 1.9)
        w, g = domain.reduce_phase(v)
        assert domain.contains_z(w.base.z)[0]
        w2 = hg.apply_phase(g, v)
        assert abs(w.base.z - w2.base.z) < 1e-12

    def test_realized_samples_in_F(self, domain, table):
        # every tile piece of every period is carried into F
        _, a, b, length = dl.axis_pieces(domain, table, slice(0, 10))
        x = np.tanh(0.5 * np.outer(length, np.linspace(0.0, 1.0, 9))) + 0j
        z = hg.mobius_apply_z(a[:, None], b[:, None], x)
        assert domain.contains_z(z.ravel(), tol=1e-6).all()

    def test_sample_count_and_total_length(self, domain, table):
        # the pieces of each period add up to its length
        owner, _, _, length = dl.axis_pieces(domain, table, slice(0, 40))
        total = np.bincount(owner, weights=length, minlength=40)
        assert (length > 0).all()
        assert np.abs(total - table.length[:40]).max() < 1e-12

    def test_periodicity_in_the_quotient(self, domain, table, neighbours):
        # each piece starts where the previous one ends, and the last one
        # ends where the first starts, as points of the quotient
        for i in range(5):
            _, a, b, length = dl.axis_pieces(domain, table, slice(i, i + 1))
            start = b / np.conj(a)
            end = hg.mobius_apply_z(a, b, np.tanh(0.5 * length) + 0j)
            qd = neighbours.quotient_dist_z(end, np.roll(start, -1))
            assert qd.max() < 1e-6
            # the closed-form flow by one period returns to the start
            v = hg.PhasePoint(hg.DiskPoint(complex(start[0])),
                              float(2.0 * np.angle(a[0])))
            w, _ = domain.reduce_phase(hg.flow(v, table.length[i]))
            assert neighbours.quotient_dist_z(w.base.z,
                                              start[:1])[0] < 1e-6

    def test_full_box_counts_every_sample(self, domain, table):
        tau = dl.box_times(domain, table, slice(0, 30), [FULL_BOX])[:, 0]
        assert np.abs(tau - table.length[:30]).max() < 1e-12


class TestCrossings:
    def test_counts_bounded_by_segments(self, domain, table, big_boxes):
        # box times lie in [0, length], and complementary angle windows
        # add up to the full circle
        ell = table.length[:20]
        b = big_boxes[0]
        halves = [mme.PhaseBox(hg.PhasePoint(b.center.base,
                                             b.center.dir + shift),
                               b.position_radius, math.pi / 2)
                  for shift in (0.0, math.pi)]
        full = mme.PhaseBox(b.center, b.position_radius, math.pi)
        tau = dl.box_times(domain, table, slice(0, 20),
                          big_boxes + halves + [full])
        assert (tau >= 0).all() and (tau <= ell[:, None] + 1e-12).all()
        assert np.abs(tau[:, 2] + tau[:, 3] - tau[:, 4]).max() < 1e-12
        assert (tau[:, 4] > 0).any()


class TestMixing:
    def test_b2_none_is_box_measure(self, domain, big_boxes):
        b = big_boxes[0]
        est = dl.mixing_correlation(domain, b, None, 5.0,
                                    n_samples=200_000, seed=3)
        liv = mme.liouville_measure(domain, b, n_samples=400_000, seed=4)
        assert abs(est.value - liv.value) < 4.0 * math.hypot(est.std_error,
                                                             liv.std_error)

    def test_t_zero_same_box_is_identity(self, domain, big_boxes):
        b = big_boxes[0]
        a = dl.mixing_correlation(domain, b, b, 0.0, n_samples=50_000, seed=5)
        c = dl.mixing_correlation(domain, b, None, 0.0, n_samples=50_000,
                                  seed=5)
        assert a.value == c.value

    def test_mixes_to_product_at_large_t(self, domain, big_boxes):
        b1, b2 = big_boxes
        m1 = dl.mixing_correlation(domain, b1, None, 0.0,
                                   n_samples=400_000, seed=6).value
        m2 = dl.mixing_correlation(domain, b2, None, 0.0,
                                   n_samples=400_000, seed=7).value
        est = dl.mixing_correlation(domain, b1, b2, 12.0,
                                    n_samples=400_000, seed=8)
        assert abs(est.value - m1 * m2) < 4.0 * est.std_error

    def test_decorrelates_from_t4_to_t12(self, domain, big_boxes):
        b1, b2 = big_boxes
        m1 = dl.mixing_correlation(domain, b1, None, 0.0,
                                   n_samples=400_000, seed=6).value
        m2 = dl.mixing_correlation(domain, b2, None, 0.0,
                                   n_samples=400_000, seed=7).value
        e4 = dl.mixing_correlation(domain, b1, b2, 4.0,
                                   n_samples=400_000, seed=8)
        e12 = dl.mixing_correlation(domain, b1, b2, 12.0,
                                    n_samples=400_000, seed=8)
        assert (abs(e12.value - m1 * m2)
                <= abs(e4.value - m1 * m2) + 2.0 * e12.std_error)


class TestEquidistribution:
    def test_full_space_mass_is_one(self, domain, table):
        got = dl.equidistribution_stat(table, domain, FULL_BOX, 8.0)
        assert abs(got - 1.0) < 1e-12

    def test_box_mass_near_liouville(self, domain, table, big_boxes):
        b = big_boxes[0]
        liv = mme.liouville_measure(domain, b, n_samples=400_000, seed=9)
        got = dl.equidistribution_stat(table, domain, b, 8.0)
        assert abs(got / liv.value - 1.0) < 0.4

    def test_t_beyond_cutoff_rejected(self, domain, table, big_boxes):
        with pytest.raises(InvalidConfigurationError):
            dl.equidistribution_stat(table, domain, big_boxes[0], 20.0)

    def test_no_classes_rejected(self, domain, table, big_boxes):
        with pytest.raises(InvalidConfigurationError):
            dl.equidistribution_stat(table, domain, big_boxes[0], 1.0)


class TestCountingSuite:
    def test_rows_and_sane_ratios(self, table):
        rep = dl.counting_suite(table, [6.0, 7.0, 8.0], 0.5)
        assert len(rep.window) == len(rep.cumulative) == 3
        assert rep.triangle == [] and rep.crossings == []
        for row in rep.window + rep.cumulative:
            assert 0.3 < row.ratio < 3.0

    def test_empirical_slope_near_entropy(self, table):
        rep = dl.counting_suite(table, [6.0, 7.0, 8.0], 0.5)
        assert abs(rep.empirical_slope - 1.0) < 0.3

    def test_slope_skips_empty_counts(self, table):
        # P_t = 0 below the systole: those t drop out of the fit
        rep = dl.counting_suite(table, [1.0, 6.0, 7.0], 0.5)
        assert rep.empirical_slope == dl.counting_suite(
            table, [6.0, 7.0], 0.5).empirical_slope
        for grid in ([1.0, 2.0, 6.0], [6.0]):
            assert dl.counting_suite(table, grid, 0.5).empirical_slope is None

    def test_laws_use_the_table_entropy(self, table):
        h2 = dataclasses.replace(
            table, surface=dataclasses.replace(table.surface, entropy_h=2.0))
        rep = dl.counting_suite(h2, [6.0, 7.0], 0.5)
        assert rep.h == 2.0
        for row in rep.cumulative:
            assert row.predicted == math.exp(2.0 * row.t) / (2.0 * row.t)
        for row in rep.window:
            assert row.predicted == 2.0 * 0.5 * math.exp(2.0 * row.t) / row.t

    def test_box_rows_present_with_box(self, domain, table, big_boxes):
        b = big_boxes[0]
        liv = mme.liouville_measure(domain, b, n_samples=200_000, seed=10)
        rep = dl.counting_suite(table, [7.0, 8.0], 0.5, domain=domain,
                                box=b, box_measure=liv.value)
        assert len(rep.triangle) == 2 and len(rep.crossings) == 2
        for row in rep.triangle + rep.crossings:
            assert 0.3 < row.ratio < 3.0

    def test_box_without_domain_or_measure_rejected(self, domain, table,
                                                    big_boxes):
        with pytest.raises(InvalidConfigurationError):
            dl.counting_suite(table, [8.0], 0.5, box=big_boxes[0],
                              box_measure=0.05)
        with pytest.raises(InvalidConfigurationError):
            dl.counting_suite(table, [8.0], 0.5, domain=domain,
                              box=big_boxes[0])
