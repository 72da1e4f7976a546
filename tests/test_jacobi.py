import itertools
import math

import numpy as np
import pytest

from geodlab import jacobi as ja
from geodlab.errors import IntegrationError, InvalidConfigurationError


class TestMetrics:
    def test_all_presets_nonpositive(self):
        for name in ja.PRESETS:
            kmax = ja.load_metric(name).check_nonpositive()
            assert kmax <= 1e-12

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ja.load_metric("round_sphere")

    def test_constant_m1_curvature_exact(self):
        m = ja.load_metric("constant_m1")
        rng = np.random.default_rng(1)
        r = 0.6 * np.sqrt(rng.uniform(0, 1, 200))
        ang = rng.uniform(0, 2 * math.pi, 200)
        k = m.curvature(r * np.cos(ang), r * np.sin(ang))
        assert np.abs(k + 1.0).max() < 1e-12

    def test_strictly_negative_formula(self):
        m = ja.load_metric("strictly_negative")
        x, y = 0.3, -0.7
        expected = -4.0 * math.exp(-2.0 * (x * x + y * y))
        assert abs(m.curvature(x, y) - expected) < 1e-12

    def test_flat_strip_flat_in_the_core(self):
        m = ja.load_metric("flat_strip")
        x = np.linspace(-1.0, 1.0, 21)
        assert np.abs(m.curvature(x, 0.0 * x)).max() == 0.0
        assert m.curvature(1.5, 0.0) < -1e-6


class TestIntegration:
    def test_flat_geodesics_are_straight(self):
        m = ja.load_metric("flat")
        s0 = ja.GeodesicState(0.2, -0.4, 0.8)
        tr = ja.integrate_geodesic(m, s0, 5.0)
        ex = s0.x + tr.s * math.cos(s0.theta)
        ey = s0.y + tr.s * math.sin(s0.theta)
        assert np.abs(tr.x - ex).max() < 1e-9
        assert np.abs(tr.y - ey).max() < 1e-9
        assert np.abs(tr.theta - s0.theta).max() < 1e-12

    def test_radial_symmetry(self):
        # rotating the initial state rotates the trajectory
        m = ja.load_metric("strictly_negative")
        rot = 0.9
        a = ja.integrate_geodesic(m, ja.GeodesicState(0.5, 0.0, 0.3), 4.0)
        b = ja.integrate_geodesic(
            m, ja.GeodesicState(0.5 * math.cos(rot), 0.5 * math.sin(rot),
                                0.3 + rot), 4.0)
        za = (a.x + 1j * a.y) * np.exp(1j * rot)
        zb = b.x + 1j * b.y
        assert np.abs(za - zb).max() < 1e-8

    def test_time_reversal(self):
        m = ja.load_metric("strictly_negative")
        s0 = ja.GeodesicState(0.4, -0.2, 1.1)
        fwd = ja.integrate_geodesic(m, s0, 3.0)
        end = ja.GeodesicState(float(fwd.x[-1]), float(fwd.y[-1]),
                               float(fwd.theta[-1]))
        back = ja.integrate_geodesic(m, end, -3.0)
        assert abs(back.x[-1] - s0.x) < 1e-6
        assert abs(back.y[-1] - s0.y) < 1e-6

    def test_unit_speed_monitor(self):
        m = ja.load_metric("strictly_negative")
        tr = ja.integrate_geodesic(m, ja.GeodesicState(0.1, 0.2, 0.5), 10.0)
        assert tr.speed_drift < ja.SPEED_DRIFT_LIMIT

    def test_coarse_dt_rejected(self):
        m = ja.load_metric("flat")
        with pytest.raises(InvalidConfigurationError):
            ja.integrate_geodesic(m, ja.GeodesicState(0, 0, 0), 1.0, dt=0.05)

    def test_nonpositive_dt_rejected(self):
        # dt = 0 divided by zero and dt < 0 took the whole horizon in one
        # RK4 step; both are configuration errors, as is a NaN step
        m = ja.load_metric("constant_m1")
        s0 = ja.GeodesicState(0.1, 0.05, 0.3)
        for dt in (0.0, -0.005, math.nan):
            with pytest.raises(InvalidConfigurationError):
                ja.integrate_geodesic(m, s0, 1.0, dt)
            with pytest.raises(InvalidConfigurationError):
                ja.riccati_subspaces(m, s0, 30.0, dt)
            with pytest.raises(InvalidConfigurationError):
                ja.rank_suite("strictly_negative", 3, seed=0, T=1.0, dt=dt)

    def test_constant_m1_stays_in_disk(self):
        m = ja.load_metric("constant_m1")
        tr = ja.integrate_geodesic(m, ja.GeodesicState(0.3, 0.1, 2.0), 20.0)
        assert (tr.x ** 2 + tr.y ** 2 < 1.0).all()


class TestRankClassifier:
    def test_flat_is_higher_rank(self):
        rep = ja.rank_classify(ja.load_metric("flat"),
                               ja.GeodesicState(0.5, -1.0, 0.7))
        assert rep.rank == "rank_ge_2"
        assert rep.sup_abs_K == 0.0

    def test_strictly_negative_is_rank_one(self):
        rep = ja.rank_classify(ja.load_metric("strictly_negative"),
                               ja.GeodesicState(0.5, -1.0, 0.7))
        assert rep.rank == "rank_one"
        assert rep.sup_abs_K > ja.RANK_TOL

    def test_strip_separates_vertical_from_crossing(self):
        m = ja.load_metric("flat_strip")
        vert = ja.rank_classify(m, ja.GeodesicState(0.0, 0.0, math.pi / 2))
        cross = ja.rank_classify(m, ja.GeodesicState(0.0, 0.0, 0.0))
        assert vert.rank == "rank_ge_2"
        assert cross.rank == "rank_one"


class TestRiccati:
    def test_constant_curvature_limits(self):
        rep = ja.riccati_subspaces(ja.load_metric("constant_m1"),
                                   ja.GeodesicState(0.1, 0.05, 0.4))
        assert abs(rep.u_unstable - 1.0) < 1e-6
        assert abs(rep.u_stable + 1.0) < 1e-6
        assert abs(rep.gap - 2.0) < 1e-5

    def test_flat_gap_vanishes(self):
        rep = ja.riccati_subspaces(ja.load_metric("flat"),
                                   ja.GeodesicState(0.3, 0.2, 1.0))
        assert abs(rep.u_unstable) < 1e-12
        assert abs(rep.u_stable) < 1e-12
        assert abs(rep.gap) <= ja.GAP_TOL

    def test_strip_gap_matches_rank(self):
        m = ja.load_metric("flat_strip")
        vert = ja.riccati_subspaces(m, ja.GeodesicState(0.0, 0.0, math.pi / 2))
        cross = ja.riccati_subspaces(m, ja.GeodesicState(0.0, 0.0, 0.0))
        assert abs(vert.gap) <= ja.GAP_TOL
        assert cross.gap > ja.GAP_TOL

    def test_unstable_jacobi_nondecreasing(self):
        for name in ("flat", "strictly_negative", "constant_m1"):
            s, j = ja.unstable_jacobi(ja.load_metric(name),
                                      ja.GeodesicState(0.2, 0.1, 0.9),
                                      T=10.0)
            assert j[0] == 1.0
            assert (np.diff(j) >= -1e-12).all()

    def test_constant_m1_jacobi_is_exponential(self):
        s, j = ja.unstable_jacobi(ja.load_metric("constant_m1"),
                                  ja.GeodesicState(0.05, 0.0, 0.3), T=8.0)
        assert abs(math.log(j[-1]) - s[-1]) < 1e-3

    def test_blowup_guard(self):
        # positive curvature makes the Riccati solution blow up in finite
        # time; the guard must catch it rather than overflow
        with pytest.raises(IntegrationError):
            ja._riccati_along(np.full(400001, -1e9), 0.005)


class TestHorizon:
    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_two_way_horizon_must_be_positive(self, T):
        m = ja.load_metric("constant_m1")
        s0 = ja.GeodesicState(0.1, 0.05, 0.3)
        for call in (lambda: ja.rank_classify(m, s0, T),
                     lambda: ja.riccati_subspaces(m, s0, T),
                     lambda: ja.unstable_jacobi(m, s0, T),
                     lambda: ja.rank_suite("strictly_negative", 3, seed=0,
                                           T=T)):
            with pytest.raises(InvalidConfigurationError):
                call()

    def test_one_way_integration_keeps_negative_horizon(self):
        tr = ja.integrate_geodesic(ja.load_metric("strictly_negative"),
                                   ja.GeodesicState(0.4, -0.2, 1.1, 2.0), -1.0)
        assert tr.s[0] == 2.0 and abs(tr.s[-1] - 1.0) < 1e-12
        assert (np.diff(tr.s) < 0).all()


class TestSuite:
    def test_agreement_all_presets(self):
        for name in ja.PRESETS:
            res = ja.rank_suite(name, n_geodesics=25, seed=2)
            assert res.disagreements == 0
            assert len(res.reports) == 25

    def test_expected_population_split(self):
        flat = ja.rank_suite("flat", n_geodesics=25, seed=3)
        neg = ja.rank_suite("strictly_negative", n_geodesics=25, seed=3)
        assert all(r[1].rank == "rank_ge_2" for r in flat.reports)
        assert all(r[1].rank == "rank_one" for r in neg.reports)

    def test_single_geodesic_matches_batch(self):
        # riccati_subspaces and rank_classify run a batch of one; they must
        # reproduce the suite's batched values bit for bit
        for name in ja.PRESETS:
            m = ja.load_metric(name)
            for s0, rk, rc, _ in ja.rank_suite(name, 4, seed=11).reports:
                one = ja.riccati_subspaces(m, s0)
                assert one.u_stable == rc.u_stable
                assert one.u_unstable == rc.u_unstable
                assert ja.rank_classify(m, s0).sup_abs_K == rk.sup_abs_K

    def test_sup_k_matches_two_one_way_trajectories(self):
        # the two-way batch must see exactly the curvature of the separate
        # forward and backward orbits; reversing theta swaps which side
        # holds the largest |K|
        for name, theta in itertools.product(ja.PRESETS, (2.1, 2.1 + math.pi)):
            m = ja.load_metric(name)
            s0 = ja.GeodesicState(0.3, -0.2, theta)
            want = max(float(np.abs(ja.integrate_geodesic(
                m, s0, sign * 12.0).curvature_along()).max())
                for sign in (1.0, -1.0))
            assert ja.rank_classify(m, s0, 12.0).sup_abs_K == want

    def test_suite_is_seeded(self):
        a = ja.rank_suite("flat_strip", n_geodesics=10, seed=5)
        b = ja.rank_suite("flat_strip", n_geodesics=10, seed=5)
        sa = [(r[0].x, r[0].y, r[0].theta, r[1].rank) for r in a.reports]
        sb = [(r[0].x, r[0].y, r[0].theta, r[1].rank) for r in b.reports]
        assert sa == sb


class TestDump:
    def test_trajectory_csv(self, tmp_path):
        import csv

        p = tmp_path / "traj.csv"
        ja.dump_trajectory_csv(ja.load_metric("strictly_negative"),
                               ja.GeodesicState(0.1, 0.2, 0.7), 2.0, 0.005, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "x", "y", "theta", "K",
                           "u_stable", "u_unstable"]
        assert len(rows) > 10
        ks = [float(r[4]) for r in rows[1:]]
        assert all(k < 0 for k in ks)
        # K = -1: u' = 1 - u^2 from u = 0 gives tanh of the horizon
        ja.dump_trajectory_csv(ja.load_metric("constant_m1"),
                               ja.GeodesicState(0.1, 0.05, 0.3), 2.0, 0.005, p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 401
        for r in rows:
            assert abs(float(r["u_unstable"]) - math.tanh(2.0)) < 1e-6
            assert abs(float(r["u_stable"]) + math.tanh(2.0)) < 1e-6

    @pytest.mark.parametrize("name,x", [("constant_m1", 0.3),
                                        ("flat_strip", 1.3),
                                        ("strictly_negative", 0.3)])
    def test_rows_match_single_riccati(self, tmp_path, name, x):
        # every row of the batched dump equals riccati_subspaces at that
        # row's state; s0.s != 0 makes the per-row step differ from dt, and
        # the flat_strip start lies where K != 0
        import csv

        m = ja.load_metric(name)
        p = tmp_path / "traj.csv"
        ja.dump_trajectory_csv(m, ja.GeodesicState(x, -0.4, 0.9, 1.25),
                               0.25, 0.005, p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        for r in rows:
            st = ja.GeodesicState(*(float(r[c]) for c in
                                    ("x", "y", "theta", "s")))
            rc = ja.riccati_subspaces(m, st, 0.25, 0.005)
            assert float(r["u_stable"]) == rc.u_stable
            assert float(r["u_unstable"]) == rc.u_unstable
