"""Patterson–Sullivan (Busemann) densities as atomic boundary measures.

The density at basepoint p is approximated by one atom per enumerated group
element, placed at the boundary direction of the orbit point and weighted by
exp(-s * dist(p, orbit point)) at a fixed supercritical exponent s.  All
comparisons (transformation law, equivariance) are made on uniform angular
bins with a mass-based noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fuchsian as fu
from . import hypgeom as hg
from .errors import DegenerateMeasureError

TWO_PI = 2.0 * math.pi
DEFAULT_S_FACTOR = 1.05    # exponent s = 1.05 * h (fixed supercritical proxy)
MASS_FLOOR = 0.01          # bins below this fraction of total mass are noise
LAW_TOL = 0.05             # largest relative bin deviation a law check passes


@dataclass
class BoundaryMeasure:
    """Atomic boundary measure: unit-circle atom positions and weights."""

    basepoint: hg.DiskPoint
    atom_u: np.ndarray       # (n,) unit complex atom positions
    weights: np.ndarray      # (n,) nonnegative

    def __post_init__(self):
        if len(self.atom_u) == 0 or self.weights.sum() <= 0:
            raise DegenerateMeasureError("measure has no mass")
        if (self.weights < 0).any():
            raise DegenerateMeasureError("negative atom weight")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def binned(self, n_bins: int) -> np.ndarray:
        """Total mass per uniform angular bin."""
        return bin_masses(self.atom_u, self.weights, n_bins)


def bin_index(u, n_bins: int) -> np.ndarray:
    """Bin index of unit complex positions.

    Bin k is centered at angle k * 2 pi / n; the half-bin offset keeps the
    high-symmetry directions of the configured surfaces (multiples of pi/4)
    away from bin edges, where heavyweight atoms would fall by float luck.
    """
    w = TWO_PI / n_bins
    idx = np.floor((np.angle(u) % TWO_PI) / w + 0.5).astype(int)
    return idx % n_bins


def bin_masses(u, weights, n_bins: int) -> np.ndarray:
    return np.bincount(bin_index(u, n_bins), weights=weights, minlength=n_bins)


def bin_centers(n_bins: int) -> np.ndarray:
    return np.arange(n_bins) * TWO_PI / n_bins


def _orbit_weights(a, b, sel, z, s):
    """(orbit, weights): the orbit points gamma o = b / conj(a) of the
    selected elements (a, b) and their weights e^{-s d(z, gamma o)}."""
    orbit = b[sel] / np.conj(a[sel])
    return orbit, np.exp(-s * hg.dist_z(z, orbit))


def poincare_series(surface: fu.SurfaceModel, s: float, p: hg.DiskPoint,
                    R: float, *, ball: fu.Ball | None = None) -> float:
    """Truncated Poincare series: sum over the R-ball of e^{-s d(p, gamma o)}."""
    if ball is None:
        ball = fu.enumerate_ball(surface, R)
    sel = ball.inside & (ball.disp <= R)
    return float(_orbit_weights(ball.a, ball.b, sel, p.z, s)[1].sum())


def ps_density(surface: fu.SurfaceModel, p: hg.DiskPoint, s: float, R: float,
               *, ball: fu.Ball | None = None,
               R_min: float = 0.0) -> BoundaryMeasure:
    """Atomic Patterson–Sullivan proxy measure at basepoint p.

    R_min > 0 restricts the atoms to the orbit shell R_min < disp <= R.  The
    near elements contribute only finitely many directions with exponentially
    heavy weights, so dropping them removes most of the angular lumpiness of
    the truncation while keeping a valid proxy of the same boundary limit;
    the pair-integral consumers (mme) rely on this.
    """
    if ball is None:
        ball = fu.enumerate_ball(surface, R)
    sel = ball.inside & (ball.disp <= R) & (ball.disp > max(R_min, 1e-12))
    if not sel.any():
        raise DegenerateMeasureError(f"no nontrivial orbit points within R = {R}")
    orbit, w = _orbit_weights(ball.a, ball.b, sel, p.z, s)
    u = hg.boundary_toward_z(np.full(orbit.shape, p.z), orbit)
    return BoundaryMeasure(p, u, w)


# ---------------------------------------------------------------------------
# law checks

@dataclass
class DensityReport:
    max_rel_dev: float
    excluded_bins: int
    ratios: np.ndarray       # mass_a / mass_b per bin, nan where mass_b = 0
    # equivariance only: (raw shifted mass, reference mass, bound on their
    # difference from the truncation of the Poincare series)
    truncation: tuple[float, float, float] | None = None

    @property
    def passed(self) -> bool:
        return self.max_rel_dev < LAW_TOL


def _bin_report(mass_a, mass_b, predicted, included, truncation=None):
    """Per-bin comparison of mass_a / mass_b with predicted over the bins
    flagged included (their masses clear the floor) and with mass_b > 0.

    Raises DegenerateMeasureError when no bin is compared, so a report
    never passes on an empty comparison.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mass_b > 0, mass_a / mass_b, np.nan)
    compared = included & (mass_b > 0)
    if not compared.any():
        raise DegenerateMeasureError("no bins above the mass floor")
    devs = np.abs(ratios[compared] / np.asarray(predicted)[compared] - 1.0)
    return DensityReport(float(devs.max()), int((~compared).sum()), ratios,
                         truncation)


def check_transformation(surface: fu.SurfaceModel, p: hg.DiskPoint,
                         q: hg.DiskPoint, s: float, R: float, n_bins: int,
                         *, ball: fu.Ball | None = None) -> DensityReport:
    """Radon–Nikodym law: mass_p / mass_q vs e^{-h b(q, p, xi)} per bin.

    h is the configured entropy; both measures are built from one ball.
    """
    if ball is None:
        ball = fu.enumerate_ball(surface, R)
    bp = ps_density(surface, p, s, R, ball=ball).binned(n_bins)
    bq = ps_density(surface, q, s, R, ball=ball).binned(n_bins)
    h = surface.entropy_h
    predicted = [math.exp(-h * hg.busemann(q, p, hg.BoundaryPoint.from_angle(c)))
                 for c in bin_centers(n_bins)]
    included = (bp >= MASS_FLOOR * bp.sum()) & (bq >= MASS_FLOOR * bq.sum())
    return _bin_report(bp, bq, predicted, included)


def check_equivariance(surface: fu.SurfaceModel, gamma: hg.Isometry,
                       p: hg.DiskPoint, s: float, R: float,
                       n_bins: int) -> DensityReport:
    """Deck equivariance: mu_{gamma p}(gamma A) = mu_p(A), bin by bin.

    The shifted measure is built from a ball enlarged by dist(o, gamma o) and
    its atom set is truncation-compensated: atoms are restricted to elements
    gamma' with gamma^{-1} gamma' inside the R-ball, which makes the identity
    exact up to float noise.  The raw (uncompensated) full-circle masses and
    their analytic truncation bound are the report's ``truncation``.
    """
    d_shift = hg.dist(hg.ORIGIN, hg.apply(gamma, hg.ORIGIN))
    ball = fu.enumerate_ball(surface, R + d_shift)
    mu_p = ps_density(surface, p, s, R, ball=ball)

    gp = hg.apply(gamma, p)
    # keep the identity as a candidate: it pulls back to gamma^{-1}, which is
    # a genuine atom of the reference measure
    sel = ball.inside & (ball.disp <= R + d_shift)
    a, b = hg.normalize_ab(ball.a[sel], ball.b[sel])
    # pull back by gamma: displacement of gamma^{-1} gamma' from o
    ia, ib = hg.inverse_ab(gamma.a, gamma.b)
    pa, pb = hg.compose_ab(ia, ib, a, b)
    pulled_disp = hg.displacement_ab(pa, pb)
    keep = (pulled_disp <= R) & (pulled_disp > 1e-12)
    orbit, w = _orbit_weights(a, b, keep, gp.z, s)
    u = hg.boundary_toward_z(np.full(orbit.shape, gp.z), orbit)
    mu_shift = BoundaryMeasure(gp, u, w)

    # bin the shifted measure on gamma-images of the bins by pulling atoms
    # back through gamma^{-1} and binning normally
    ginv = gamma.inverse()
    pulled_u = hg.mobius_boundary_z(ginv.a, ginv.b, mu_shift.atom_u)
    b_shift = bin_masses(pulled_u, mu_shift.weights, n_bins)
    b_p = mu_p.binned(n_bins)

    # raw truncation diagnostics: shifted measure truncated at the same R
    # around o, compared against the reference mass and the series bound
    raw_mass = float(_orbit_weights(a, b, hg.displacement_ab(a, b) <= R,
                                    gp.z, s)[1].sum())
    series_hi = poincare_series(surface, s, p, R + d_shift, ball=ball)
    series_lo = poincare_series(surface, s, p, max(R - d_shift, 0.0), ball=ball)
    return _bin_report(b_shift, b_p, [1.0] * n_bins,
                       b_p >= MASS_FLOOR * b_p.sum(),
                       (raw_mass, mu_p.total_mass,
                        abs(series_hi - series_lo)))
