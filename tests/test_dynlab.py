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


def full_box(bolza):
    """A box covering all of T^1 F (position ball beyond the circumradius)."""
    return mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0),
                        0.5 * bolza.domain_diameter + 0.1, math.pi)


class TestReduceRealize:
    def test_reduce_to_F_witness(self, domain):
        v = hg.PhasePoint(hg.DiskPoint(0.88 - 0.21j), 1.9)
        w, g = dl.reduce_to_F(domain, v)
        assert domain.contains(w.base)
        w2 = hg.apply_phase(g, v)
        assert abs(w.base.z - w2.base.z) < 1e-12

    def test_realized_samples_in_F(self, domain, table):
        for cls in table.classes[:10]:
            geo = dl.realize_geodesic(domain, cls)
            assert domain.contains_z(geo.z, tol=1e-6).all()

    def test_sample_count_and_total_length(self, domain, table):
        cls = table.classes[0]
        geo = dl.realize_geodesic(domain, cls, 0.05)
        assert geo.n == max(int(round(cls.length / 0.05)), 1)
        assert abs(geo.n * geo.step - cls.length) < 1e-12

    def test_periodicity_in_the_quotient(self, domain, table):
        # flowing any sample by the class length returns to the same
        # quotient point
        for cls in table.classes[:5]:
            geo = dl.realize_geodesic(domain, cls, 0.1)
            k = geo.n // 3
            v = hg.PhasePoint(hg.DiskPoint(complex(geo.z[k])),
                              float(geo.theta[k]))
            w, _ = domain.reduce_phase(hg.flow(v, cls.length))
            qd = domain.quotient_dist_z(np.array([w.base.z]),
                                        np.array([geo.z[k]]))[0]
            assert qd < 1e-6

    def test_full_box_counts_every_sample(self, bolza, domain, table):
        cls = table.classes[3]
        geo = dl.realize_geodesic(domain, cls)
        assert geo.box_count(full_box(bolza)) == geo.n

    def test_class_without_axis_rejected(self, domain, table, tmp_path):
        # a table loaded without its meta has no surface, hence no axes
        table.save(tmp_path / "spec.csv")
        loaded = fu.SpectrumTable.load(tmp_path / "spec.csv")
        with pytest.raises(InvalidConfigurationError):
            dl.realize_geodesic(domain, loaded.classes[0])


class TestCrossings:
    def test_counts_bounded_by_segments(self, domain, table, big_boxes):
        classes = table.classes[:20]
        eps = 0.5
        recs = dl.crossing_records(domain, classes, big_boxes, eps)
        for rec in recs:
            limit = int(round(rec.t / eps)) + 1
            assert all(0 <= c <= limit for c in rec.counts)

    def test_negative_count_rejected(self, table):
        with pytest.raises(InvalidConfigurationError):
            dl.CrossingRecord(table.classes[0], 3.0, [2, -1])


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
    def test_full_space_mass_is_one(self, bolza, domain, table):
        got = dl.equidistribution_stat(table, domain, full_box(bolza), 8.0)
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

    def test_box_rows_present_with_box(self, domain, table, big_boxes):
        b = big_boxes[0]
        liv = mme.liouville_measure(domain, b, n_samples=200_000, seed=10)
        rep = dl.counting_suite(table, [7.0, 8.0], 0.5, domain=domain,
                                box=b, box_measure=liv.value)
        assert len(rep.triangle) == 2 and len(rep.crossings) == 2
        for row in rep.crossings:
            assert 0.3 < row.ratio < 3.0

    def test_crossing_subsample_is_seeded(self, domain, table, big_boxes):
        b = big_boxes[0]
        kw = dict(domain=domain, box=b, box_measure=0.05,
                  max_crossing_classes=20, seed=4)
        r1 = dl.counting_suite(table, [8.0], 0.5, **kw)
        r2 = dl.counting_suite(table, [8.0], 0.5, **kw)
        assert r1.crossings[0].observed == r2.crossings[0].observed


class TestAsymCompare:
    t_grid = [4.0, 6.0, 8.0]
    eps_grid = [0.1, 0.2, 0.4]

    def _grids(self, fn):
        return np.array([[fn(t, e) for e in self.eps_grid]
                         for t in self.t_grid])

    def test_equal_families_pass_with_zero_K(self):
        g = self._grids(lambda t, e: math.exp(t) / t)
        rep = dl.asym_compare(g, g, 0.05, self.t_grid, self.eps_grid)
        assert rep.passed and rep.K == 0.0
        assert max(rep.residuals) == 0.0

    def test_eps_dependent_factor_passes(self):
        g = self._grids(lambda t, e: math.exp(t) / t)
        f = self._grids(lambda t, e: math.exp(t + 2.0 * e) / t)
        rep = dl.asym_compare(f, g, 0.05, self.t_grid, self.eps_grid)
        assert rep.passed
        assert abs(rep.K - 2.0) < 1e-9

    def test_genuinely_different_growth_fails(self):
        g = self._grids(lambda t, e: math.exp(t) / t)
        f = self._grids(lambda t, e: math.exp(1.1 * t) / t)
        rep = dl.asym_compare(f, g, 0.05, self.t_grid, self.eps_grid)
        assert not rep.passed

    def test_bad_inputs_rejected(self):
        g = self._grids(lambda t, e: math.exp(t))
        with pytest.raises(InvalidConfigurationError):
            dl.asym_compare(g[:2], g, 0.05, self.t_grid, self.eps_grid)
        bad = g.copy()
        bad[0, 0] = 0.0
        with pytest.raises(InvalidConfigurationError):
            dl.asym_compare(bad, g, 0.05, self.t_grid, self.eps_grid)
