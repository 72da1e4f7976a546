import math

import numpy as np
import pytest

from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab import mme
from geodlab.quotient import DESCENT_EPS, MEMBER_BLOCK, FundamentalDomain


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def domain(bolza):
    return FundamentalDomain(bolza)


@pytest.fixture(scope="module")
def ref_domain(bolza):
    return ReferenceDomain(bolza)


class ReferenceDomain(FundamentalDomain):
    """Reduction whose certification is the plain sequential test-set loop.

    The loop is written out here, apart from the code under test, so it is
    an independent oracle for the screened pass; moved_points counts the
    points it moves.
    """

    moved_points = 0

    def _test_set_pass(self, cur, acc_a, acc_b) -> bool:
        d0 = hg.dist_z(cur, 0j)
        moved = False
        for a, b in zip(self.test_a, self.test_b):
            w = hg.mobius_apply_z(a, b, cur)
            better = hg.dist_z(w, 0j) < d0 * (1.0 - DESCENT_EPS) - 1e-15
            if better.any():
                na, nb = hg.compose_ab(a, b, acc_a[better], acc_b[better])
                acc_a[better], acc_b[better] = hg.normalize_ab(na, nb)
                cur[better] = w[better]
                d0 = hg.dist_z(cur, 0j)
                moved = True
                self.moved_points += int(better.sum())
        return moved


def vertex_points(bolza, offsets):
    """Points at each given distance beyond the 8 vertices of F, radially.

    F is the regular octagon with vertices at distance domain_radius in
    the directions pi/8 + k pi/4.
    """
    ang = math.pi / 8 + np.arange(8) * math.pi / 4
    d = bolza.domain_radius + np.asarray(offsets, float)[:, None]
    return (np.tanh(0.5 * d) * np.exp(1j * ang)).ravel()


def random_disk_points(rng, n, r_max=0.95):
    return (np.sqrt(rng.uniform(0, 1, n)) * r_max
            * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))


class TestMembership:
    def test_origin_inside(self, domain):
        assert domain.contains_z(hg.ORIGIN.z)[0]

    def test_translate_of_origin_outside(self, bolza, domain):
        g = bolza.generator(0)
        img = hg.apply(g, hg.ORIGIN)
        assert not domain.contains_z(img.z, tol=1e-12)[0]

    def test_inradius_ball_inside(self, bolza, domain):
        # the inscribed ball (radius = half the systole) lies inside F
        rin = 0.5 * bolza.generator(0).displacement() - 1e-6
        ang = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        z = math.tanh(rin / 2) * np.exp(1j * ang)
        assert domain.contains_z(z).all()

    def test_beyond_circumradius_outside(self, bolza, domain):
        rout = 0.5 * bolza.domain_diameter + 0.05
        ang = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        z = math.tanh(rout / 2) * np.exp(1j * ang)
        assert not domain.contains_z(z, tol=0.0).any()

    def test_face_set_matches_full_test_set(self, bolza, domain):
        rng = np.random.default_rng(3)
        z = random_disk_points(rng, 2000, r_max=0.92)
        # plus the annulus between inradius and circumradius, where only
        # the sides decide membership
        rin = 0.5 * bolza.generator(0).displacement()
        rout = 0.5 * bolza.domain_diameter
        d = rng.uniform(rin, rout, 4000)
        ring = np.tanh(d / 2) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4000))
        z = np.concatenate([z, ring])
        inside = domain.contains_z(z)
        assert (inside == domain.contains_z(z, full=True)).all()
        assert 0 < inside[2000:].sum() < 4000

    def test_screen_agrees_with_the_distance_test(self, domain):
        # points on and 1e-15 to 1e-3 off every test-set bisector, out to
        # 1 - |z|^2 ~ 1e-15 where the distance test's rounding dwarfs the
        # screen's margin: the screen must hand each point to the distance
        # test or decide it as that test does
        s = np.concatenate([np.linspace(-2, 2, 41), np.linspace(19, 36, 18),
                            -np.linspace(19, 36, 18)])
        pts = []
        for a, b in zip(domain.test_a, domain.test_b):
            w = -b / a                      # the neighbour centre g^-1 o
            u = w / abs(w)
            mid = math.tanh(0.25 * hg.dist_z(w, 0j)) * u
            ca, cb = hg.carrier_ab(np.array([mid]),
                                   np.array([np.angle(1j * u)]))
            line = hg.mobius_apply_z(ca, cb, np.tanh(0.5 * s) + 0j)
            for e in (0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3):
                pts += [line + e * u, line - e * u]
        z = np.concatenate(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            d0 = hg.dist_z(z, 0j)
            for full in (False, True):
                ta = domain.test_a if full else domain.side_a
                tb = domain.test_b if full else domain.side_b
                for tol in (0.0, 1e-9, 1e-6):
                    want = np.ones(len(z), dtype=bool)
                    for a, b in zip(ta, tb):
                        w = hg.mobius_apply_z(a, b, z)
                        want &= hg.dist_z(w, 0j) >= d0 - tol
                    got = domain.contains_z(z, tol, full=full)
                    assert (got == want).all()

    def test_sides_are_the_generator_letters(self, bolza, domain):
        assert len(domain.side_a) == bolza.n_letters == 8
        for a, b in zip(domain.side_a, domain.side_b):
            match = ((np.abs(bolza.gen_a - a) < 1e-9)
                     & (np.abs(bolza.gen_b - b) < 1e-9))
            assert match.sum() == 1
        disp = hg.displacement_ab(domain.side_a, domain.side_b)
        systole = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
        assert np.abs(disp - systole).max() < 1e-9


class TestClip:
    def test_crofton_mean_chord(self, bolza, domain):
        # Geodesics from the invariant measure cosh p dp dphi that meet the
        # circumscribed disk D_r: p = asinh(u sinh r) is the distance of the
        # closest point tanh(p/2) e^{i phi}, the direction phi + pi/2.
        # Crofton and Gauss-Bonnet: E[len(G & F)] = pi * 4 pi / (2 pi sinh r).
        rng = np.random.default_rng(29)
        n = 400_000
        r = bolza.domain_radius
        p = np.arcsinh(rng.uniform(0, 1, n) * math.sinh(r))
        phi = rng.uniform(0, 2 * math.pi, n)
        ca, cb = hg.carrier_ab(np.tanh(p / 2) * np.exp(1j * phi),
                               phi + 0.5 * math.pi)
        s_lo, s_hi = domain.clip(ca, cb)
        ell = s_hi - s_lo
        assert (ell >= 0).all()
        se = ell.std(ddof=1) / math.sqrt(n)
        assert abs(ell.mean() - 2.0 * math.pi / math.sinh(r)) < 6.0 * se

    def test_segment_ends_on_the_boundary(self, domain):
        # points just inside the segment are in F, points just outside not
        rng = np.random.default_rng(31)
        z = random_disk_points(rng, 500, r_max=0.8)
        ca, cb = hg.carrier_ab(z, rng.uniform(0, 2 * math.pi, 500))
        s_lo, s_hi = domain.clip(ca, cb)
        hit = s_hi > s_lo + 1e-3
        assert hit.sum() > 100
        for s, inside in ((s_lo + 1e-6, True), (s_hi - 1e-6, True),
                          (s_lo - 1e-6, False), (s_hi + 1e-6, False)):
            w = hg.mobius_apply_z(ca[hit], cb[hit],
                                  np.tanh(0.5 * s[hit]).astype(complex))
            assert (domain.contains_z(w, tol=0.0, full=True) == inside).all()


class TestReduce:
    def test_reduced_points_are_members(self, domain):
        rng = np.random.default_rng(7)
        z = random_disk_points(rng, 500)
        zr, a, b = domain.reduce_z(z)
        assert domain.contains_z(zr, tol=1e-9).all()

    def test_accumulated_isometry_maps_input_to_output(self, domain):
        rng = np.random.default_rng(11)
        z = random_disk_points(rng, 500)
        zr, a, b = domain.reduce_z(z)
        assert np.abs(hg.mobius_apply_z(a, b, z) - zr).max() < 1e-9

    def test_reduction_never_increases_distance_to_origin(self, domain):
        rng = np.random.default_rng(13)
        z = random_disk_points(rng, 500)
        zr, _, _ = domain.reduce_z(z)
        assert (hg.dist_z(zr, 0j) <= hg.dist_z(z, 0j) + 1e-9).all()

    def test_interior_points_are_fixed(self, domain):
        rng = np.random.default_rng(17)
        z = math.tanh(0.6) * random_disk_points(rng, 100, r_max=1.0)
        zr, a, b = domain.reduce_z(z)
        assert np.abs(zr - z).max() < 1e-12
        assert np.abs(a - 1.0).max() < 1e-12 and np.abs(b).max() < 1e-12

    def test_deck_equivariance(self, bolza, domain):
        # z and gamma z reduce to the same quotient point
        rng = np.random.default_rng(19)
        z = random_disk_points(rng, 200, r_max=0.9)
        g = bolza.generator(2)
        gz = hg.mobius_apply_z(g.a, g.b, z)
        zr, _, _ = domain.reduce_z(z)
        gzr, _, _ = domain.reduce_z(gz)
        assert domain.quotient_dist_z(zr, gzr).max() < 1e-9


class TestReducePhase:
    def test_scalar_matches_vector(self, domain):
        v = hg.PhasePoint(hg.DiskPoint(0.81 + 0.33j), 1.234)
        w, g = domain.reduce_phase(v)
        zr, tr = domain.reduce_phase_z(np.array([v.base.z]),
                                       np.array([v.dir]))
        assert abs(w.base.z - zr[0]) < 1e-12
        assert hg.angle_gap(w.dir, tr[0]) < 1e-12

    def test_isometry_witnesses_reduction(self, domain):
        v = hg.PhasePoint(hg.DiskPoint(-0.77 + 0.41j), 2.5)
        w, g = domain.reduce_phase(v)
        w2 = hg.apply_phase(g, v)
        assert abs(w.base.z - w2.base.z) < 1e-12
        assert hg.angle_gap(w.dir, w2.dir) < 1e-12
        assert domain.contains_z(w.base.z)[0]

    def test_direction_transforms_isometrically(self, domain):
        # flowing then reducing lands on the reduced flowed point
        v = hg.PhasePoint(hg.DiskPoint(0.3 + 0.2j), 0.7)
        vt = hg.flow(v, 2.0)
        wt, _ = domain.reduce_phase(vt)
        w, g = domain.reduce_phase(v)
        # flow commutes with deck transformations
        wt2, _ = domain.reduce_phase(hg.flow(w, 2.0))
        assert domain.quotient_dist_z(np.array([wt.base.z]),
                                      np.array([wt2.base.z]))[0] < 1e-9


class TestQuotientDist:
    def test_zero_on_identical_points(self, domain):
        z = np.array([0.1 + 0.2j, -0.3j])
        assert domain.quotient_dist_z(z, z).max() == 0.0

    def test_bounded_by_disk_distance(self, domain):
        rng = np.random.default_rng(23)
        z1 = math.tanh(0.7) * random_disk_points(rng, 100, r_max=1.0)
        z2 = math.tanh(0.7) * random_disk_points(rng, 100, r_max=1.0)
        qd = domain.quotient_dist_z(z1, z2)
        assert (qd <= hg.dist_z(z1, z2) + 1e-12).all()

    def test_identified_boundary_points(self, bolza, domain):
        # a point on a face and its side-pairing image are the same point
        g = bolza.generator(0)
        rin = 0.5 * bolza.generator(0).displacement()
        u = hg.apply(g, hg.ORIGIN).z
        z_face = (u / abs(u)) * math.tanh(rin / 2)   # midpoint of a side
        img = hg.mobius_apply_z(*hg.inverse_ab(g.a, g.b), np.array([z_face]))
        qd = domain.quotient_dist_z(np.array([z_face]), img)
        assert qd[0] < 1e-9


class TestScreenedCertification:
    """reduce_z with the screened test-set pass matches the plain loop."""

    # Just beyond a vertex, outward, the generators improve the distance to
    # o by less than the descent threshold while a vertex-cycle element
    # improves it by more, so the test-set pass must move them.
    PAST_VERTEX = np.linspace(0.5e-13, 6e-13, 23)

    def assert_same(self, domain, ref_domain, z):
        got = domain.reduce_z(z)
        want = ref_domain.reduce_z(z)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_random_disk_points(self, domain, ref_domain):
        rng = np.random.default_rng(43)
        self.assert_same(domain, ref_domain, random_disk_points(rng, 20_000))

    def test_points_just_outside_sides_and_vertices(self, bolza, domain,
                                                    ref_domain):
        # rays from o crossing every side, the vertex directions among them,
        # ended just inside, on and just beyond the boundary of F
        phi = np.linspace(0, 2 * math.pi, 8 * 40, endpoint=False)
        ca, cb = hg.carrier_ab(np.zeros(len(phi), complex), phi)
        _, s_hi = domain.clip(ca, cb)
        off = np.array([-1e-9, 0.0, 1e-13, 3e-13, 1e-12, 1e-9, 1e-6, 1e-3])
        rays = (np.tanh(0.5 * (s_hi[:, None] + off))
                * np.exp(1j * phi)[:, None]).ravel()
        rng = np.random.default_rng(47)
        eps = np.repeat([1e-3, 1e-6, 1e-9, 1e-12], 30)
        near = (vertex_points(bolza, [0.0])[:, None]
                + eps * np.exp(2j * math.pi * rng.uniform(0, 1, len(eps))))
        near = np.concatenate([near.ravel(), vertex_points(bolza,
                                                           self.PAST_VERTEX)])
        gen = np.array([((np.abs(bolza.gen_a - a) < 1e-9)
                         & (np.abs(bolza.gen_b - b) < 1e-9)).any()
                        for a, b in zip(domain.test_a, domain.test_b)])
        assert (~gen).sum() == len(gen) - 8
        images = hg.mobius_apply_z(domain.test_a[~gen, None],
                                   domain.test_b[~gen, None], near).ravel()
        ref_domain.moved_points = 0
        for z in (rays, near, images):
            self.assert_same(domain, ref_domain, z)
        assert ref_domain.moved_points > 0

    def test_input_longer_than_one_block(self, bolza, domain, ref_domain):
        # the only points the test-set pass moves sit past the first blocks
        rng = np.random.default_rng(53)
        inner = math.tanh(0.6) * random_disk_points(rng, 3 * MEMBER_BLOCK + 17,
                                                    r_max=1.0)
        z = np.concatenate([inner, vertex_points(bolza, self.PAST_VERTEX)])
        ref_domain.moved_points = 0
        self.assert_same(domain, ref_domain, z)
        assert ref_domain.moved_points > 0

    def test_tile_walks_and_flowed_lengths_unchanged(self, bolza, domain,
                                                     ref_domain):
        rng = np.random.default_rng(59)
        n = 300
        xi = np.exp(2j * math.pi * rng.uniform(0, 1, n))
        eta = xi * np.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05, n))
        w = rng.uniform(0.5, 1.5, n)
        vertex = vertex_points(bolza, [0.0])[0]
        boxes = [mme.random_box(domain, rng) for _ in range(3)]
        boxes += [mme.random_box(domain, rng, position_radius=0.8,
                                 angle_halfwidth=1.5) for _ in range(2)]
        boxes.append(mme.PhaseBox(hg.PhasePoint(hg.DiskPoint(vertex), 0.3),
                                  0.5, 1.0))
        ca, cb = hg.pair_carrier_ab(xi, eta)
        s_lo, s_hi = domain.clip(ca, cb)
        for flow_t in (0.3, 1.0, 2.5, -1.7):
            got = domain.tile_segments(ca, cb, s_lo - flow_t, s_hi - flow_t)
            want = ref_domain.tile_segments(ca, cb, s_lo - flow_t,
                                            s_hi - flow_t)
            for g, r in zip(got, want):
                assert np.array_equal(g, r)
            for bx in boxes:
                assert np.array_equal(
                    mme._trace_weighted_length(domain, bx, ca, cb, w,
                                               flow_t),
                    mme._trace_weighted_length(ref_domain, bx, ca, cb, w,
                                               flow_t))
