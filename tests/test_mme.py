import math
import warnings

import numpy as np
import pytest

from geodlab import density as de
from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab import mme
from geodlab.errors import DegenerateMeasureError, InvalidConfigurationError
from geodlab.quotient import MEMBERSHIP_TOL, FundamentalDomain

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def domain(bolza):
    return FundamentalDomain(bolza)


@pytest.fixture(scope="module")
def ball12(bolza):
    return fu.enumerate_ball(bolza, 12.0)


@pytest.fixture(scope="module")
def shell_density(bolza, ball12):
    # shell proxy for the pair integral: near atoms are angularly lumpy
    return de.ps_density(bolza, hg.ORIGIN, 1.05, 11.0, ball=ball12, R_min=8.0)


@pytest.fixture(scope="module")
def box(domain):
    rng = np.random.default_rng(5)
    return mme.random_box(domain, rng)


def ball_area(r):
    """Hyperbolic area of a metric disk of radius r."""
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


class TestPhaseBox:
    def test_bad_parameters_rejected(self):
        c = hg.PhasePoint(hg.ORIGIN, 0.0)
        with pytest.raises(InvalidConfigurationError):
            mme.PhaseBox(c, -0.1, 0.5)
        with pytest.raises(InvalidConfigurationError):
            mme.PhaseBox(c, 0.3, 0.0)
        with pytest.raises(InvalidConfigurationError):
            mme.PhaseBox(c, 0.3, 4.0)

    def test_chart_membership(self):
        b = mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0), 0.4, 0.5)
        z = np.array([0.0j, 0.1 + 0j, 0.5 + 0j])
        th = np.array([0.1, 2.0, 0.0])
        got = b.contains_chart(z, th)
        assert got.tolist() == [True, False, False]

    def test_full_circle_window(self):
        b = mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0), 0.4, math.pi)
        z = np.full(8, 0.05 + 0.02j)
        th = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        assert b.contains_chart(z, th).all()

    def test_contains_reduces_first(self, bolza, domain):
        b = mme.PhaseBox(hg.PhasePoint(hg.ORIGIN, 0.0), 0.4, 3.0)
        v = hg.PhasePoint(hg.DiskPoint(0.05 + 0.02j), 0.1)
        gv = hg.apply_phase(bolza.generator(1), v)
        z, th = domain.reduce_phase_z(np.array([v.base.z, gv.base.z]),
                                      np.array([v.dir, gv.dir]))
        assert not b.contains_chart(np.array([gv.base.z]),
                                    np.array([gv.dir]))[0]
        assert b.contains_chart(z, th).all()

    def test_random_box_ball_inside_domain(self, domain):
        rng = np.random.default_rng(42)
        for _ in range(5):
            b = mme.random_box(domain, rng)
            ang = np.linspace(0, 2 * math.pi, 32, endpoint=False)
            # points at the position radius from the center, via the carrier
            zc = b.center.base.z
            ca, cb = hg.translation_ab(zc)
            rim = hg.mobius_apply_z(ca, cb,
                                    math.tanh(b.position_radius / 2)
                                    * np.exp(1j * ang))
            assert domain.contains_z(rim).all()

    def test_random_box_too_large(self, domain):
        with pytest.raises(InvalidConfigurationError):
            mme.random_box(domain, np.random.default_rng(0),
                           position_radius=2.0)


class TestLiouvilleOracle:
    def test_domain_area_gauss_bonnet(self, domain):
        est = mme.domain_area(domain, n_samples=400_000, seed=1)
        assert abs(est.value - FOUR_PI) / FOUR_PI < 0.005
        assert abs(est.value - FOUR_PI) < 3.5 * est.std_error

    def test_ball_measure_analytic(self, domain, box):
        est = mme.liouville_measure(domain, box, n_samples=400_000, seed=2)
        expected = (ball_area(box.position_radius) / FOUR_PI
                    * box.angle_halfwidth / math.pi)
        assert abs(est.value - expected) < 3.5 * est.std_error
        assert est.std_error / est.value < 0.05

    def test_angle_window_scales_exactly(self, domain, box):
        half = mme.PhaseBox(box.center, box.position_radius,
                            box.angle_halfwidth / 2)
        a = mme.liouville_measure(domain, box, n_samples=100_000, seed=3)
        b = mme.liouville_measure(domain, half, n_samples=100_000, seed=3)
        assert abs(b.value - 0.5 * a.value) < 1e-15


class TestPairGeodesics:
    def test_endpoints_recovered(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 2 * math.pi, 50)
        b = rng.uniform(0, 2 * math.pi, 50)
        keep = np.abs(np.angle(np.exp(1j * (a - b)))) > 1e-3
        xi, eta = np.exp(1j * a[keep]), np.exp(1j * b[keep])
        ca, cb = hg.pair_carrier_ab(xi, eta)
        # +-1 map to xi and eta, and the base point is the foot of o
        assert np.abs(hg.mobius_boundary_z(ca, cb, 1.0 + 0j) - xi).max() < 1e-9
        assert np.abs(hg.mobius_boundary_z(ca, cb, -1.0 + 0j) - eta).max() < 1e-9
        s_foot, d = hg.geodesic_foot_z(ca, cb, np.zeros(len(xi), complex))
        assert np.abs(s_foot).max() < 1e-9
        assert np.abs(d - hg.dist_z(cb / np.conj(ca), 0j)).max() < 1e-12

    def test_diametral_pair_through_origin(self):
        xi = np.array([np.exp(0.7j)])
        ca, cb = hg.pair_carrier_ab(xi, -xi)
        assert abs(cb[0]) < 1e-12
        assert abs(hg.mobius_boundary_z(ca, cb, 1.0 + 0j)[0] - xi[0]) < 1e-12

    def test_weights_gromov_product(self):
        # at the origin basepoint the weight is exactly 1 / sin^2(gap / 2)
        rng = np.random.default_rng(21)
        a = rng.uniform(0, 2 * math.pi, 40)
        b = rng.uniform(0, 2 * math.pi, 40)
        keep = np.abs(np.angle(np.exp(1j * (a - b)))) > 1e-2
        xi, eta = np.exp(1j * a[keep]), np.exp(1j * b[keep])
        w = mme._pair_weights(hg.ORIGIN, *hg.pair_carrier_ab(xi, eta),
                              xi, eta, 1.0)
        gap = np.abs(np.angle(xi / eta))
        assert np.abs(w * np.sin(gap / 2) ** 2 - 1.0).max() < 1e-9

    def test_weight_independent_of_foot_choice(self):
        # the Busemann sum is constant along the connecting geodesic
        xi, eta = np.exp(0.4j), np.exp(2.9j)
        ca, cb = hg.pair_carrier_ab(np.array([xi]), np.array([eta]))
        p = np.array([0.2 + 0.1j])
        sums = []
        for s in (0.0, 0.7, -1.3):
            q = hg.mobius_apply_z(ca, cb,
                                  np.array([complex(math.tanh(s / 2))]))
            sums.append(float(hg.busemann_z(p, q, np.array([xi]))[0]
                              + hg.busemann_z(p, q, np.array([eta]))[0]))
        assert max(sums) - min(sums) < 1e-12

    def test_sample_pairs_respects_exclusion(self, shell_density):
        rng = np.random.default_rng(31)
        xi, eta, disc = mme._sample_pairs(shell_density, rng, 5000)
        assert np.abs(np.angle(xi / eta)).min() >= mme.PAIR_EXCLUSION
        assert disc >= 0

    def test_sample_pairs_matches_rng_choice(self, shell_density):
        # the cached cumulative weights must draw exactly what
        # rng.choice(p=...) draws from the same stream; a numpy whose
        # choice stops matching fails here
        d = shell_density
        probs = d.weights / d.total_mass
        for seed in range(5):
            for n in (1, 200, 5000):
                rng = np.random.default_rng(seed)
                xi, eta, disc = mme._sample_pairs(d, rng, n)
                ref = np.random.default_rng(seed)
                left, want_xi, want_eta, want_disc = n, [], [], 0
                while left:
                    i = ref.choice(len(probs), size=left, p=probs)
                    j = ref.choice(len(probs), size=left, p=probs)
                    u, v = d.atom_u[i], d.atom_u[j]
                    ok = np.abs(np.angle(u / v)) >= mme.PAIR_EXCLUSION
                    want_xi.append(u[ok])
                    want_eta.append(v[ok])
                    want_disc += left - int(ok.sum())
                    left = int((~ok).sum())
                assert np.array_equal(xi, np.concatenate(want_xi))
                assert np.array_equal(eta, np.concatenate(want_eta))
                assert disc == want_disc
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("atoms", [
        [1.0 + 0j, np.exp(1e-5j)],                       # closer than 1e-4
        [np.exp(3.14159j)],                               # one atom
        [np.exp(-3.1416j), np.exp(3.1416j), -1.0 + 0j],   # across angle pi
        [1.0 + 0j, np.exp(1e-5j), np.exp(0.5j)],          # far atom weightless
    ])
    def test_sample_pairs_rejects_unseparated_atoms(self, atoms):
        w = np.ones(len(atoms))
        w[2:] = 0.0     # a third atom carries no weight
        d = de.BoundaryMeasure(hg.ORIGIN, np.array(atoms, complex), w)
        with pytest.raises(DegenerateMeasureError):
            mme._sample_pairs(d, np.random.default_rng(0), 5)

    def test_sample_pairs_accepts_separated_atoms(self):
        # just past the exclusion, and atoms spread over the whole circle
        for atoms in ([1.0 + 0j, np.exp(2e-4j)],
                      np.exp(1j * np.linspace(0, 2 * math.pi, 5,
                                              endpoint=False))):
            d = de.BoundaryMeasure(hg.ORIGIN, np.array(atoms, complex),
                                   np.ones(len(atoms)))
            xi, eta, _ = mme._sample_pairs(d, np.random.default_rng(0), 50)
            assert np.abs(np.angle(xi / eta)).min() >= mme.PAIR_EXCLUSION


class TestExactLength:
    def test_lengths_match_a_march(self, domain, neighbours, shell_density):
        rng = np.random.default_rng(37)
        xi, eta, _ = mme._sample_pairs(shell_density, rng, 2000)
        ca, cb = hg.pair_carrier_ab(xi, eta)
        exact = mme._trace_weighted_length(domain, None, ca, cb,
                                           np.ones(len(xi)))
        # midpoint march over the circumscribed disk's chord, membership
        # against every Dirichlet neighbour
        step = 0.01
        n = int(2.0 * fu.CIRCUMRADIUS / step) + 2
        s = (np.arange(-n, n) + 0.5) * step
        z = hg.mobius_apply_z(ca[:, None], cb[:, None],
                              np.tanh(0.5 * s).astype(complex))
        inside = neighbours.contains_z(z.ravel(), MEMBERSHIP_TOL)
        marched = step * inside.reshape(z.shape).sum(axis=1)
        assert np.abs(exact - marched).max() < step
        assert (marched > 0).sum() > 500

    def test_geodesics_through_a_vertex(self, domain):
        # the diagonal through the vertex crosses F in 2 * circumradius;
        # other lines through it cross F briefly or touch it only there
        r = fu.CIRCUMRADIUS
        vertex = math.tanh(r / 2) * np.exp(1j * math.pi / 8)
        xi, eta = [], []
        for theta in math.pi / 8 + np.linspace(0, math.pi, 13):
            fw, bw = hg.endpoints(hg.PhasePoint(hg.DiskPoint(complex(vertex)),
                                                float(theta)))
            xi.append(fw.u)
            eta.append(bw.u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ell = mme._trace_weighted_length(
                domain, None, *hg.pair_carrier_ab(np.array(xi), np.array(eta)),
                np.ones(len(xi)))
        assert np.isfinite(ell).all() and (ell >= 0).all()
        assert abs(ell[0] - 2.0 * r) < 1e-9

    def test_misses_are_zero_without_warnings(self, domain):
        # pairs with a small gap span geodesics far from F
        gap = np.array([1e-3, 0.05, 0.3, 2.0])
        xi = np.exp(1j * (1.0 + gap))
        eta = np.full(len(gap), np.exp(1j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ell = mme._trace_weighted_length(
                domain, None, *hg.pair_carrier_ab(xi, eta), np.ones(len(gap)))
        assert (ell[:3] == 0.0).all() and ell[3] > 0


class TestKnieperMeasure:
    def test_full_space_normalizes_to_one(self, bolza, domain, shell_density):
        # same stream as the normalization: the ratio is exactly 1
        est = mme.knieper_measure(bolza, domain, None, shell_density,
                                  n_samples=60_000, seed=0,
                                  norm_samples=60_000, norm_seed=0)
        assert abs(est.value - 1.0) < 1e-12
        assert est.std_error > 0

    def test_box_agrees_with_liouville(self, bolza, domain, box,
                                       shell_density):
        kn = mme.knieper_measure(bolza, domain, box, shell_density,
                                 n_samples=200_000, seed=11,
                                 norm_samples=60_000, norm_seed=0)
        liv = mme.liouville_measure(domain, box, n_samples=400_000, seed=12)
        rel = abs(kn.value - liv.value) / liv.value
        assert rel < max(0.08, 3.0 * math.hypot(kn.std_error, liv.std_error)
                         / liv.value)

    def test_angle_windows_add_up(self, bolza, domain, box, shell_density):
        # complementary angle windows partition the full circle
        a = mme.PhaseBox(box.center, box.position_radius, math.pi / 2)
        bb = mme.PhaseBox(hg.PhasePoint(box.center.base,
                                        box.center.dir + math.pi),
                          box.position_radius, math.pi / 2)
        full = mme.PhaseBox(box.center, box.position_radius, math.pi)
        kw = dict(n_samples=60_000, seed=13, norm_samples=60_000, norm_seed=0)
        ka = mme.knieper_measure(bolza, domain, a, shell_density, **kw)
        kb = mme.knieper_measure(bolza, domain, bb, shell_density, **kw)
        kf = mme.knieper_measure(bolza, domain, full, shell_density, **kw)
        assert abs(ka.value + kb.value - kf.value) < 1e-9 * kf.value

    def test_halving_the_angle_window(self, bolza, domain, box,
                                      shell_density):
        half = mme.PhaseBox(box.center, box.position_radius,
                            box.angle_halfwidth / 2)
        kw = dict(n_samples=100_000, seed=14, norm_samples=60_000,
                  norm_seed=0)
        kf = mme.knieper_measure(bolza, domain, box, shell_density, **kw)
        kh = mme.knieper_measure(bolza, domain, half, shell_density, **kw)
        se = math.hypot(kh.std_error, 0.5 * kf.std_error)
        assert abs(kh.value - 0.5 * kf.value) < max(4.0 * se,
                                                    0.05 * kf.value)

    def test_flow_invariance(self, bolza, domain, box, shell_density):
        kw = dict(n_samples=60_000, seed=11, norm_samples=60_000,
                  norm_seed=0)
        k0 = mme.knieper_measure(bolza, domain, box, shell_density, **kw)
        k1 = mme.knieper_measure(bolza, domain, box, shell_density,
                                 flow_t=1.0, **kw)
        se = math.hypot(k0.std_error, k1.std_error)
        assert abs(k1.value - k0.value) < max(4.0 * se, 0.06 * k0.value)

    def test_flowed_tiles_match_per_midpoint_reduction(self, bolza, domain,
                                                       box, shell_density):
        # reference: a fine midpoint march along each F-segment, every
        # flowed-back midpoint reduced on its own with reduce_phase_z.  A
        # march cell misplaces at most half a step at each box endpoint it
        # holds, so each exact length must agree within
        # (in/out switches of the march + 2) * step / 2.
        step = 1e-3
        rng = np.random.default_rng(41)
        xi, eta, _ = mme._sample_pairs(shell_density, rng, 150)
        r = fu.CIRCUMRADIUS
        vertex = complex(math.tanh(r / 2) * np.exp(1j * math.pi / 8))
        for theta in math.pi / 8 + np.linspace(0, math.pi, 13):
            fw, bw = hg.endpoints(hg.PhasePoint(hg.DiskPoint(vertex),
                                                float(theta)))
            xi = np.append(xi, fw.u)
            eta = np.append(eta, bw.u)
        ca, cb = hg.pair_carrier_ab(xi, eta)
        w = mme._pair_weights(shell_density.basepoint, ca, cb, xi, eta,
                              bolza.entropy_h)
        # the corner box straddles F, so a midpoint counts only in F's chart
        boxes = (box, mme.PhaseBox(box.center, 0.8, 1.5),
                 mme.PhaseBox(hg.PhasePoint(hg.DiskPoint(vertex), 0.3),
                              0.5, 1.0))
        start, end = domain.clip(ca, cb)
        idx = np.nonzero(end > start)[0]
        length = end[idx] - start[idx]
        ns = np.ceil(length / step).astype(int)
        ds = np.repeat(length / ns, ns)
        pair_of = np.repeat(np.arange(len(idx)), ns)
        k = np.arange(ns.sum()) - np.repeat(np.cumsum(ns) - ns, ns)
        s = np.repeat(start[idx], ns) + (k + 0.5) * ds
        same = pair_of[1:] == pair_of[:-1]
        ra, rb = np.repeat(ca[idx], ns), np.repeat(cb[idx], ns)
        hits = np.zeros(len(xi), dtype=int)
        # +-2r carries the tangent lines' midpoints onto vertices
        for flow_t in (0.0, 0.3, 1.0, 2.5, -1.7, 2.0 * r, -2.0 * r):
            pb = np.tanh(0.5 * (s - flow_t)) + 0j
            zr, tr = domain.reduce_phase_z(hg.mobius_apply_z(ra, rb, pb),
                                           hg.mobius_dir_z(ra, rb, pb, 0.0))
            for bx in boxes:
                inside = bx.contains_chart(zr, tr)
                ref = np.bincount(pair_of, weights=np.where(inside, ds, 0.0),
                                  minlength=len(idx))
                switches = np.bincount(pair_of[1:],
                                       weights=same & (inside[1:]
                                                       != inside[:-1]),
                                       minlength=len(idx))
                got = mme._trace_weighted_length(domain, bx, ca, cb, w,
                                                 flow_t)
                assert (got[np.setdiff1d(np.arange(len(xi)), idx)] == 0).all()
                assert (np.abs(got[idx] / w[idx] - ref)
                        <= (switches + 2) * step / 2).all()
                hits += got > 0
        assert hits[:150].sum() > 100 and hits[150:].any()

    def test_norm_cached_across_boxes(self, bolza, domain, shell_density):
        z1 = mme.knieper_normalization(bolza, domain, shell_density,
                                       n_samples=60_000, seed=0)
        z2 = mme.knieper_normalization(bolza, domain, shell_density,
                                       n_samples=60_000, seed=0)
        assert z1 == z2

    def test_one_carrier_per_pair(self, bolza, domain, shell_density, box,
                                  monkeypatch):
        # the weights and the lengths share one carrier per sampled pair
        kw = dict(n_samples=20_000, seed=5, norm_samples=60_000, norm_seed=0)
        mme.knieper_measure(bolza, domain, box, shell_density, **kw)
        calls = []
        carrier_ab = hg.carrier_ab

        def counted(*args):
            calls.append(len(args[0]))
            return carrier_ab(*args)

        monkeypatch.setattr(hg, "carrier_ab", counted)
        mme.knieper_measure(bolza, domain, box, shell_density, **kw)
        assert calls == [kw["n_samples"]]


class TestConditionals:
    def test_density_at_reference_point_is_one(self):
        v = hg.PhasePoint(hg.DiskPoint(0.2 + 0.1j), 0.8)
        for kind in ("stable", "unstable"):
            assert mme.conditional_density(v, v, kind) == 1.0

    def test_bad_kind_rejected(self):
        v = hg.PhasePoint(hg.ORIGIN, 0.0)
        with pytest.raises(InvalidConfigurationError):
            mme.conditional_density(v, v, "central")

    def test_flow_multiplier_exact(self):
        v = hg.PhasePoint(hg.DiskPoint(0.1 - 0.2j), 2.2)
        w = hg.PhasePoint(hg.DiskPoint(0.3 + 0.1j), 0.5)
        t, h = 1.7, 1.0
        for kind, sign in (("unstable", 1.0), ("stable", -1.0)):
            base = mme.conditional_density(v, w, kind, h)
            moved = mme.conditional_density(v, hg.flow(w, t), kind, h)
            assert abs(math.log(moved / base) - sign * h * t) < 1e-11

    def test_verify_expansion_grid(self):
        v = hg.PhasePoint(hg.DiskPoint(0.15 + 0.05j), 1.1)
        w = hg.PhasePoint(hg.DiskPoint(-0.2 + 0.25j), 4.0)
        rep = mme.verify_expansion(v, w, [-3.0, -1.0, 2.0, 7.0])
        assert rep.passed
        assert rep.max_error < 1e-9
        kinds = {kind for _, kind, *_ in rep.rows}
        assert kinds == {"stable", "unstable"}


class TestHolonomy:
    def _weak_unstable_partner(self, v, forward_angle):
        # a phase point sharing the backward endpoint of v
        _, v_minf = hg.endpoints(v)
        xi2 = np.exp(1j * forward_angle)
        ca, cb = hg.pair_carrier_ab(np.array([xi2]), np.array([v_minf.u]))
        return hg.apply_phase(hg.Isometry(complex(ca[0]), complex(cb[0])),
                              hg.PhasePoint(hg.ORIGIN, 0.0))

    def test_asymptotic_partner_invariants(self):
        w = hg.PhasePoint(hg.DiskPoint(0.3 + 0.1j), 0.5)
        w_inf, _ = hg.endpoints(w)
        p = mme.asymptotic_partner(w, 0.5)
        p_inf, _ = hg.endpoints(p)
        assert abs(p_inf.u - w_inf.u) < 1e-9
        assert abs(hg.busemann(w.base, p.base, w_inf)) < 1e-9
        z0 = mme.asymptotic_partner(w, 0.0)
        assert abs(z0.base.z - w.base.z) < 1e-12

    def test_trivial_configuration_exact(self, bolza, ball12):
        v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.05j), 0.9)
        w = self._weak_unstable_partner(v, 2.0)
        rep = mme.verify_holonomy(bolza, v, v, w, w, density_R=12.0,
                                  ball=ball12)
        assert rep.deviation == 0.0
        assert abs(rep.busemann_lhs - rep.busemann_rhs) < 1e-15

    def test_shifted_configuration_within_band(self, bolza, ball12):
        v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.05j), 0.9)
        w = self._weak_unstable_partner(v, 2.0)
        v2 = mme.asymptotic_partner(v, 0.3)
        w2 = mme.asymptotic_partner(w, -0.25)
        rep = mme.verify_holonomy(bolza, v, v2, w, w2, density_R=12.0,
                                  ball=ball12)
        assert rep.passed
        assert rep.deviation < 0.05

    def test_invalid_configurations_rejected(self, bolza, ball12):
        v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.05j), 0.9)
        w = self._weak_unstable_partner(v, 2.0)
        v2 = mme.asymptotic_partner(v, 0.3)
        w2 = mme.asymptotic_partner(w, -0.25)
        stray = hg.PhasePoint(hg.DiskPoint(0.4 - 0.3j), 5.0)
        with pytest.raises(InvalidConfigurationError):
            mme.verify_holonomy(bolza, v, v2, w, stray, density_R=12.0,
                                ball=ball12)
        with pytest.raises(InvalidConfigurationError):
            mme.verify_holonomy(bolza, v, stray, w, w2, density_R=12.0,
                                ball=ball12)
        with pytest.raises(InvalidConfigurationError):
            # w off the weak-unstable set of v
            mme.verify_holonomy(bolza, v, v2, stray,
                                mme.asymptotic_partner(stray, 0.1),
                                density_R=12.0, ball=ball12)
        # busemann-desynchronized partner: flow breaks synchronicity
        with pytest.raises(InvalidConfigurationError):
            mme.verify_holonomy(bolza, v, v2, w, hg.flow(w2, 0.5),
                                density_R=12.0, ball=ball12)
