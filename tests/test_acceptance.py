"""Full acceptance battery: one test per criterion, oracle-checked.

This file is the full-size counterpart of the `geodlab verify-all` smoke
battery.  It builds a spectrum to R = 12.5 and a deep orbit ball; its 15
tests ran in 55 s on a 2-CPU x86-64 VM.  Every criterion states its
tolerance and oracle inline.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from geodlab import cli
from geodlab import density as de
from geodlab import dynlab as dl
from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab import jacobi as ja
from geodlab import mme
from geodlab.quotient import FundamentalDomain

SYS_LEN = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def domain(bolza):
    return FundamentalDomain(bolza)


@pytest.fixture(scope="module")
def ball13(bolza):
    return fu.enumerate_ball(bolza, 13.0)


@pytest.fixture(scope="module")
def table125(bolza):
    return fu.build_spectrum(bolza, 12.5)


@pytest.fixture(scope="module")
def shell_density(bolza):
    # pair-integral proxy: orbit shell 11 < d <= 14 (see ps_density docs)
    ball = fu.enumerate_ball(bolza, 14.0)
    return de.ps_density(bolza, hg.ORIGIN, 1.05, 14.0, ball=ball, R_min=11.0)


def test_01_group_sanity(bolza):
    t0 = time.time()
    a, b = bolza.eval_word(bolza.relator)
    assert abs(a - 1.0) < 1e-8 and abs(b) < 1e-8
    for i in range(8):
        g = bolza.generator(i)
        assert abs(g.trace) > 2.0          # hyperbolic
        assert abs(g.displacement() - SYS_LEN) < 1e-9
    assert time.time() - t0 < 1.0


def test_02_enumeration_vs_brute_force(bolza):
    t0 = time.time()
    ball = fu.enumerate_ball(bolza, 6.0)
    brute = fu.brute_force_ball(bolza, 8)
    in_brute = brute.disp <= 6.0
    assert ball.size == int(in_brute.sum())
    # identical element sets: every enumerated element appears in the
    # deduplicated exhaustive search (equal counts then force equality)
    for i in np.nonzero(ball.inside)[0]:
        a, b = hg.normalize_ab(ball.a[i], ball.b[i])
        assert brute.contains_matrix(complex(a), complex(b))
    assert time.time() - t0 < 60.0


def test_03_conjugacy_cross_validation(bolza):
    # build_spectrum raises SpectrumInconsistencyError if the walk-based
    # partition disagrees with the cyclic-word canonicalization below 8
    t0 = time.time()
    table = fu.build_spectrum(bolza, 8.0, cross_validate_to=8.0)
    assert len(table.classes) == 416
    assert time.time() - t0 < 120.0


def test_04_critical_exponent(ball13):
    rs = np.arange(9.0, 13.0 + 1e-9, 0.5)
    counts = [ball13.count(r) for r in rs]
    slope = float(np.polyfit(rs, np.log(counts), 1)[0])
    assert 0.9 < slope < 1.1


def test_05_busemann_limit():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n = 10_000
    p = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n))
    q = (rng.uniform(-0.4, 0.4, n) + 1j * rng.uniform(-0.4, 0.4, n))
    xi = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    x = math.tanh(10.0) * xi          # hyperbolic distance 20 along the ray
    approx = hg.dist_z(q, x) - hg.dist_z(p, x)
    err = np.abs(hg.busemann_z(p, q, xi) - approx)
    assert float(err.max()) < 1e-6
    assert time.time() - t0 < 10.0


def test_06_transformation_law(bolza, ball13):
    rep = de.check_transformation(bolza, hg.ORIGIN, hg.DiskPoint(0.3 + 0.1j),
                                  1.05, 13.0, 48, ball=ball13,
                                  mass_floor=0.01)
    assert rep.max_rel_dev < 0.05
    assert rep.passed


def test_07_knieper_vs_liouville(bolza, domain, shell_density):
    t0 = time.time()
    area = mme.domain_area(domain, 400_000, seed=1)
    assert abs(area.value - FOUR_PI) < 0.005 * FOUR_PI
    rng = np.random.default_rng(5)
    for k in range(10):
        box = mme.random_box(domain, rng)
        liv = mme.liouville_measure(domain, box, 400_000, seed=100 + k)
        kn = mme.knieper_measure(bolza, domain, box, shell_density,
                                 n_samples=1_000_000, seed=200 + k,
                                 norm_samples=200_000, norm_seed=0)
        assert abs(kn.value / liv.value - 1.0) < 0.05
    assert time.time() - t0 < 900.0


def test_08_conditional_laws(bolza, ball13):
    t0 = time.time()
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = hg.PhasePoint(hg.DiskPoint(complex(*rng.uniform(-0.3, 0.3, 2))),
                          rng.uniform(0, 2 * math.pi))
        w = hg.PhasePoint(hg.DiskPoint(complex(*rng.uniform(-0.3, 0.3, 2))),
                          rng.uniform(0, 2 * math.pi))
        rep = mme.verify_expansion(v, w, [-5.0, -2.0, 1.0, 4.0, 9.0])
        assert rep.max_error < 1e-9
    # holonomy configuration: w on the weak-unstable set of v, both moved
    # along their stable horocycles (same endpoints, Busemann offset zero)
    v = hg.PhasePoint(hg.DiskPoint(0.1 + 0.05j), 0.9)
    _, v_minf = hg.endpoints(v)
    ca, cb = hg.pair_carrier_ab(np.array([np.exp(2.0j)]),
                                np.array([v_minf.u]))
    w = hg.apply_phase(hg.Isometry(complex(ca[0]), complex(cb[0])),
                       hg.PhasePoint(hg.ORIGIN, 0.0))
    rep = mme.verify_holonomy(bolza, v, mme.asymptotic_partner(v, 0.3),
                              w, mme.asymptotic_partner(w, -0.25),
                              density_R=13.0, ball=ball13)
    assert rep.deviation < 0.05
    assert time.time() - t0 < 60.0


def test_09_mixing(domain):
    rng = np.random.default_rng(23)
    b1 = mme.random_box(domain, rng, position_radius=0.6,
                        angle_halfwidth=0.677)
    b2 = mme.random_box(domain, rng, position_radius=0.6,
                        angle_halfwidth=0.677)
    m1 = dl.mixing_correlation(domain, b1, None, 0.0, 1_000_000, seed=1)
    m2 = dl.mixing_correlation(domain, b2, None, 0.0, 1_000_000, seed=2)
    assert 0.015 < m1.value < 0.025 and 0.015 < m2.value < 0.025
    target = m1.value * m2.value
    e4 = dl.mixing_correlation(domain, b1, b2, 4.0, 1_000_000, seed=3)
    e12 = dl.mixing_correlation(domain, b1, b2, 12.0, 1_000_000, seed=3)
    assert abs(e12.value - target) < 3.0 * e12.std_error
    assert abs(e12.value - target) < abs(e4.value - target)


def test_10_equidistribution(domain, table125):
    rng = np.random.default_rng(17)
    boxes = [mme.random_box(domain, rng) for _ in range(5)]
    livs = [mme.liouville_measure(domain, b, 400_000, seed=100 + i).value
            for i, b in enumerate(boxes)]
    err8 = np.abs(np.array(
        dl.equidistribution_profile(table125, domain, boxes, 8.0))
        / livs - 1.0)
    err12 = np.abs(np.array(
        dl.equidistribution_profile(table125, domain, boxes, 12.0))
        / livs - 1.0)
    assert (err12 < 0.20).all()
    assert (err12 < err8).all()


def test_11_window_counting_law(table125):
    def ratio(t):
        return table125.count_window(t, 0.5) * t / (1.0 * math.exp(t))

    r8, r10, r12 = ratio(8.0), ratio(10.0), ratio(12.0)
    assert 0.8 < r12 < 1.3
    # the deviation attains its minimum at the largest t of the grid
    assert abs(r12 - 1.0) < abs(r8 - 1.0)
    assert abs(r12 - 1.0) < abs(r10 - 1.0)


def test_12_headline_law(table125):
    def ratio(t):
        return table125.count_P(t) * t / math.exp(t)

    r10, r12 = ratio(10.0), ratio(12.0)
    assert 0.85 < r12 < 1.25
    assert abs(r12 - 1.0) < abs(r10 - 1.0)


def test_13_crossings(domain, table125):
    rng = np.random.default_rng(29)
    box = mme.random_box(domain, rng, position_radius=0.6,
                         angle_halfwidth=1.2)
    liv = mme.liouville_measure(domain, box, 400_000, seed=200)
    rep = dl.counting_suite(table125, [12.0], 0.5, domain=domain, box=box,
                            box_measure=liv.value)
    assert abs(rep.crossings[0].ratio - 1.0) < 0.25


def test_14_rank_dichotomy():
    t0 = time.time()
    for preset in sorted(ja.PRESETS):
        res = ja.rank_suite(preset, n_geodesics=100, seed=0)
        assert res.disagreements == 0
    rc = ja.riccati_subspaces(ja.load_metric("constant_m1"),
                              ja.GeodesicState(0.1, 0.05, 0.3), 30.0)
    assert abs(rc.u_unstable - 1.0) < 1e-6
    assert abs(rc.u_stable + 1.0) < 1e-6
    assert time.time() - t0 < 120.0


def test_15_verify_all_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        rc = cli.main(["verify-all", "--seed", "7", "--out", str(out),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        blob = (out / "verify_all_report.json").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]
