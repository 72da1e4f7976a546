import math

import numpy as np
import pytest

from geodlab import density as de
from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab.errors import DegenerateMeasureError


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def ball12(bolza):
    return fu.enumerate_ball(bolza, 12.0)


class TestPoincareSeries:
    def test_identity_only_ball(self, bolza):
        p = hg.DiskPoint(0.4 + 0.1j)
        got = de.poincare_series(bolza, 1.2, p, 0.0)
        assert abs(got - math.exp(-1.2 * hg.dist(p, hg.ORIGIN))) < 1e-12

    def test_s_zero_counts_elements(self, bolza, ball12):
        got = de.poincare_series(bolza, 0.0, hg.ORIGIN, 12.0, ball=ball12)
        assert got == ball12.size

    def test_monotone_in_R_and_s(self, bolza, ball12):
        vals_R = [de.poincare_series(bolza, 1.1, hg.ORIGIN, R, ball=ball12)
                  for R in (6, 8, 10, 12)]
        assert all(b > a for a, b in zip(vals_R, vals_R[1:]))
        vals_s = [de.poincare_series(bolza, s, hg.ORIGIN, 12.0, ball=ball12)
                  for s in (0.9, 1.0, 1.1, 1.3)]
        assert all(b < a for a, b in zip(vals_s, vals_s[1:]))

    def test_exponent_bracketing(self, bolza, ball12):
        # increments decay above the critical exponent and grow below it
        def increments(s):
            vals = [de.poincare_series(bolza, s, hg.ORIGIN, R, ball=ball12)
                    for R in (9, 10, 11, 12)]
            return np.diff(vals)

        inc_hi = increments(1.3)
        inc_lo = increments(0.9)
        assert inc_hi[1] < inc_hi[0] and inc_hi[2] < inc_hi[1]
        assert inc_lo[1] > inc_lo[0] and inc_lo[2] > inc_lo[1]


class TestPsDensity:
    def test_total_mass_matches_series(self, bolza, ball12):
        p = hg.DiskPoint(0.2 - 0.1j)
        mu = de.ps_density(bolza, p, 1.05, 12.0, ball=ball12)
        series = de.poincare_series(bolza, 1.05, p, 12.0, ball=ball12)
        assert abs(mu.total_mass - (series - math.exp(-1.05 * hg.dist(p, hg.ORIGIN)))) < 1e-9

    def test_octagon_symmetry(self, bolza, ball12):
        mu = de.ps_density(bolza, hg.ORIGIN, 1.05, 12.0, ball=ball12)
        octants = mu.binned(64).reshape(8, 8).sum(axis=1)
        assert octants.std() / octants.mean() < 1e-10

    def test_mirror_symmetric_weights(self, bolza, ball12):
        # conjugate atoms pair up with equal weights for a real basepoint
        mu = de.ps_density(bolza, hg.DiskPoint(0.25 + 0j), 1.05, 8.0)
        upper = de.bin_masses(mu.atom_u, mu.weights, 16)
        assert abs(upper[3] - upper[13]) < 1e-12  # bins mirrored about axis

    def test_empty_ball_degenerate(self, bolza):
        with pytest.raises(DegenerateMeasureError):
            de.ps_density(bolza, hg.ORIGIN, 1.05, 0.0)


class TestTransformation:
    def test_p_equals_q(self, bolza, ball12):
        p = hg.DiskPoint(0.2 + 0.1j)
        rep = de.check_transformation(bolza, p, p, 1.05, 10.0, 32, ball=ball12)
        assert rep.max_rel_dev == 0.0

    def test_bolza_law_within_band(self, bolza, ball12):
        rep = de.check_transformation(bolza, hg.ORIGIN, hg.DiskPoint(0.3 + 0j),
                                      1.05, 12.0, 48, ball=ball12)
        assert rep.max_rel_dev < 0.05
        assert rep.passed

    def test_swap_inverts_ratios(self, bolza, ball12):
        p, q = hg.ORIGIN, hg.DiskPoint(0.3 + 0j)
        ra = de.check_transformation(bolza, p, q, 1.05, 11.0, 48, ball=ball12)
        rb = de.check_transformation(bolza, q, p, 1.05, 11.0, 48, ball=ball12)
        both = (ra.ratios > 0) & (rb.ratios > 0)    # nan compares False
        assert both.any()
        assert (np.abs(ra.ratios[both] * rb.ratios[both] - 1.0) < 1e-12).all()


class TestEquivariance:
    def test_identity_gamma(self, bolza):
        rep = de.check_equivariance(bolza, hg.Isometry.identity(), hg.ORIGIN,
                                    1.05, 8.0, 32)
        assert rep.max_rel_dev < 1e-10

    def test_generator_shift(self, bolza):
        g = bolza.generator(0)
        rep = de.check_equivariance(bolza, g, hg.ORIGIN, 1.05, 10.0, 48)
        assert rep.max_rel_dev < 0.05  # compensated comparison is near-exact
        assert rep.max_rel_dev < 1e-9
        raw_shifted_mass, reference_mass, bound = rep.truncation
        assert abs(raw_shifted_mass - reference_mass) <= bound


@pytest.mark.parametrize("check", [
    lambda s: de.check_transformation(s, hg.ORIGIN, hg.DiskPoint(0.3 + 0.1j),
                                      1.05, 8.0, 48),
    lambda s: de.check_equivariance(s, s.generator(0), hg.ORIGIN, 1.05, 8.0,
                                    48),
], ids=["transformation", "equivariance"])
def test_no_bin_above_the_floor_raises(bolza, check, monkeypatch):
    # with every bin below the mass floor nothing is compared, which must
    # not read as a pass with deviation 0
    monkeypatch.setattr(de, "MASS_FLOOR", 1.0)
    with pytest.raises(DegenerateMeasureError):
        check(bolza)
