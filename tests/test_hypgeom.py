import cmath
import math

import numpy as np
import pytest

from geodlab import hypgeom as hg
from geodlab.fuchsian import trace_length
from geodlab.hypgeom import (
    BoundaryPoint, DiskPoint, Isometry, PhasePoint, ORIGIN,
    apply, apply_phase, busemann, dist, endpoints, flow, translation_ab,
)


def rng():
    return np.random.default_rng(12345)


def random_point(r, rmax=0.92):
    rad = math.sqrt(r.uniform(0, 1)) * rmax
    ang = r.uniform(0, 2 * math.pi)
    return DiskPoint(rad * cmath.exp(1j * ang))


def random_boundary(r):
    return BoundaryPoint.from_angle(r.uniform(0, 2 * math.pi))


def random_isometry(r, tmax=3.0):
    # translation along a random direction composed with a rotation
    t = r.uniform(0, tmax)
    p = DiskPoint(math.tanh(t / 2) * cmath.exp(1j * r.uniform(0, 2 * math.pi)))
    return Isometry(*translation_ab(p.z)) @ Isometry.rotation(r.uniform(0, 2 * math.pi))


class TestApply:
    def test_identity(self):
        r = rng()
        for _ in range(20):
            p = random_point(r)
            assert apply(Isometry.identity(), p).z == p.z

    def test_inverse_roundtrip(self):
        r = rng()
        for _ in range(50):
            g = random_isometry(r)
            p = random_point(r)
            q = apply(g.inverse(), apply(g, p))
            assert abs(q.z - p.z) < 1e-10

    def test_isometry_of_dist(self):
        r = rng()
        for _ in range(200):
            g = random_isometry(r)
            p, q = random_point(r), random_point(r)
            assert abs(dist(apply(g, p), apply(g, q)) - dist(p, q)) < 1e-9

    def test_group_axioms(self):
        r = rng()
        for _ in range(100):
            g1, g2, g3 = (random_isometry(r) for _ in range(3))
            lhs = (g1 @ g2) @ g3
            rhs = g1 @ (g2 @ g3)
            assert abs(lhs.a - rhs.a) < 1e-10 and abs(lhs.b - rhs.b) < 1e-10
            e = g1 @ g1.inverse()
            assert abs(e.a - 1) < 1e-10 and abs(e.b) < 1e-10


class TestDist:
    def test_zero_on_diagonal(self):
        r = rng()
        for _ in range(20):
            p = random_point(r)
            assert dist(p, p) == 0.0

    def test_radial_closed_form(self):
        # dist(0, r) = 2 artanh(r); r = 1/2 gives ln 3
        assert abs(dist(ORIGIN, DiskPoint(0.5 + 0j)) - math.log(3)) < 1e-12
        r = rng()
        for _ in range(50):
            x = r.uniform(0, 0.95)
            assert abs(dist(ORIGIN, DiskPoint(x + 0j)) - 2 * math.atanh(x)) < 1e-10

    def test_symmetry(self):
        r = rng()
        for _ in range(1000):
            p, q = random_point(r), random_point(r)
            assert abs(dist(p, q) - dist(q, p)) < 1e-12


def busemann_limit_oracle(p, q, xi, horizon=20.0):
    """Truncated limit definition: d(q, x_n) - d(p, x_n), x_n far toward xi."""
    x = DiskPoint(math.tanh(horizon / 2) * xi.u)
    return dist(q, x) - dist(p, x)


class TestBusemann:
    def test_zero_on_equal_points(self):
        r = rng()
        for _ in range(20):
            p, xi = random_point(r), random_boundary(r)
            assert busemann(p, p, xi) == 0.0

    def test_sign_convention_example(self):
        # p = 0, q = 1/2 on the axis toward xi = 1: b = -ln 3
        val = busemann(ORIGIN, DiskPoint(0.5 + 0j), BoundaryPoint(1 + 0j))
        assert abs(val + math.log(3)) < 1e-12
        oracle = busemann_limit_oracle(ORIGIN, DiskPoint(0.5 + 0j), BoundaryPoint(1 + 0j))
        assert abs(val - oracle) < 1e-6

    def test_against_limit_definition(self):
        r = rng()
        for _ in range(500):
            p, q, xi = random_point(r), random_point(r), random_boundary(r)
            assert abs(busemann(p, q, xi) - busemann_limit_oracle(p, q, xi)) < 1e-6

    def test_antisymmetry_and_cocycle(self):
        r = rng()
        for _ in range(300):
            p, q, s, xi = (random_point(r) for _ in range(3)), None, None, None
            p, q, s = p
            xi = random_boundary(r)
            assert abs(busemann(p, q, xi) + busemann(q, p, xi)) < 1e-12
            total = busemann(p, q, xi) + busemann(q, s, xi) - busemann(p, s, xi)
            assert abs(total) < 1e-9

    def test_unit_rate_along_geodesic(self):
        # moving the second argument arclength s toward xi gives exactly -s
        r = rng()
        for _ in range(100):
            v = PhasePoint(random_point(r), r.uniform(0, 2 * math.pi))
            xi, _ = endpoints(v)
            s = r.uniform(0, 5)
            q = flow(v, s).base
            assert abs(busemann(v.base, q, xi) + s) < 1e-9


class TestFlow:
    def test_time_zero(self):
        r = rng()
        for _ in range(20):
            v = PhasePoint(random_point(r), r.uniform(0, 2 * math.pi))
            w = flow(v, 0.0)
            assert abs(w.base.z - v.base.z) < 1e-12
            assert hg.angle_gap(w.dir, v.dir) < 1e-12

    def test_radial_closed_form(self):
        v = PhasePoint(ORIGIN, 0.0)
        w = flow(v, 1.0)
        assert abs(w.base.z - math.tanh(0.5)) < 1e-12
        assert hg.angle_gap(w.dir, 0.0) < 1e-12

    def test_additivity(self):
        r = rng()
        for _ in range(100):
            v = PhasePoint(random_point(r), r.uniform(0, 2 * math.pi))
            s, t = r.uniform(-4, 4), r.uniform(-4, 4)
            w1 = flow(flow(v, s), t)
            w2 = flow(v, s + t)
            assert abs(w1.base.z - w2.base.z) < 1e-9
            assert hg.angle_gap(w1.dir, w2.dir) < 1e-9

    def test_endpoints_diameter(self):
        xi, eta = endpoints(PhasePoint(ORIGIN, 0.0))
        assert abs(xi.u - 1) < 1e-12 and abs(eta.u + 1) < 1e-12

    def test_endpoints_flow_invariant(self):
        r = rng()
        for _ in range(100):
            v = PhasePoint(random_point(r), r.uniform(0, 2 * math.pi))
            xi, eta = endpoints(v)
            for t in (-3.0, 1.0, 6.0):
                xi2, eta2 = endpoints(flow(v, t))
                assert abs(xi2.u - xi.u) < 1e-9
                assert abs(eta2.u - eta.u) < 1e-9


class TestTraceClass:
    def test_bolza_generator_length(self):
        a = 1 + math.sqrt(2)
        b = math.sqrt(2 + 2 * math.sqrt(2))
        g = Isometry(a + 0j, b + 0j)
        assert abs(g.trace - 2 * (1 + math.sqrt(2))) < 1e-12
        ell = 2 * math.acosh(1 + math.sqrt(2))
        assert abs(trace_length(g.trace) - ell) < 1e-12
        # cross-check: displacement of the axis midpoint (origin is on the axis)
        assert abs(dist(ORIGIN, apply(g, ORIGIN)) - ell) < 1e-9

    def test_power_lengths(self):
        # tr(g^k) = 2 cosh(k l / 2) forces l(g^k) = k l(g)
        r = rng()
        a = 1 + math.sqrt(2)
        b = math.sqrt(2 + 2 * math.sqrt(2))
        h = random_isometry(r)
        g = h @ Isometry(a + 0j, b + 0j) @ h.inverse()
        base = trace_length(g.trace)
        gk = g
        for k in range(2, 6):
            gk = gk @ g
            assert abs(trace_length(gk.trace) - k * base) < 1e-9

    def test_axis_endpoints_fixed(self):
        r = rng()
        for _ in range(50):
            h = random_isometry(r, tmax=2.0)
            a = 1 + math.sqrt(2)
            b = math.sqrt(2 + 2 * math.sqrt(2))
            g = h @ Isometry(a + 0j, b + 0j) @ h.inverse()
            att, rep = hg.axis_endpoints_ab(g.a, g.b)
            for u in (att, rep):
                im = hg.mobius_boundary_z(g.a, g.b, u)
                assert abs(im - u) < 1e-9
            # attracting endpoint pulls far iterates toward itself
            p = apply(g @ g @ g, ORIGIN)
            assert abs(p.z / abs(p.z) - att) < 0.05


class TestPhasePoint:
    def test_dir_reduced(self):
        v = PhasePoint(ORIGIN, 7.0)
        assert 0 <= v.dir < 2 * math.pi
        assert abs(v.dir - (7.0 - 2 * math.pi)) < 1e-12

    def test_interior_margin_enforced(self):
        with pytest.raises(ValueError):
            DiskPoint(1.0 + 0j)
        with pytest.raises(ValueError):
            BoundaryPoint(0.5 + 0j)
