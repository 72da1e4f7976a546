"""Quotient-space dynamics and the counting experiments.

Closed geodesics are realized as periodic orbits in the fundamental domain,
then fed into mixing-correlation, equidistribution, and the asymptotic
counting laws.  asym_compare is the finite-grid surrogate of the asymptotic
comparison relations (see its docstring for the exact quantifier template).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fuchsian as fu
from . import hypgeom as hg
from .errors import InvalidConfigurationError
from .mme import MeasureEstimate, PhaseBox, _pair_geodesics
from .quotient import FundamentalDomain

TWO_PI = 2.0 * math.pi
DEFAULT_SAMPLE_STEP = 0.05     # arclength resolution of realized geodesics


def reduce_to_F(domain: FundamentalDomain, v: hg.PhasePoint):
    """Reduce a phase point to the fundamental domain; (reduced, Isometry)."""
    return domain.reduce_phase(v)


@dataclass
class RealizedGeodesic:
    """One period of a closed geodesic sampled in the quotient."""

    cls: fu.GeodesicClass
    step: float                # actual spacing (length / n, closes the period)
    z: np.ndarray              # (n,) reduced base points
    theta: np.ndarray          # (n,) reduced directions

    @property
    def n(self) -> int:
        return len(self.z)

    def box_count(self, box: PhaseBox) -> int:
        return int(box.contains_chart(self.z, self.theta).sum())


def realize_geodesic(domain: FundamentalDomain, cls: fu.GeodesicClass,
                     step: float = DEFAULT_SAMPLE_STEP) -> RealizedGeodesic:
    """Walk the axis one full period at the given resolution, reduced to F.

    The walk starts at the axis point closest to the origin.  The nominal
    step is adjusted to length / n so the sample set is exactly periodic
    under the flow by one period.
    """
    if cls.axis is None:
        raise InvalidConfigurationError(
            f"class {cls.word_str} has no axis (table loaded without its "
            "surface meta)")
    z_c, theta_c, _ = _pair_geodesics(cls.axis[0].u, cls.axis[1].u)
    ca, cb = hg.carrier_ab(complex(z_c), float(theta_c))
    n = max(int(round(cls.length / step)), 1)
    actual = cls.length / n
    s = (np.arange(n) + 0.5) * actual
    p0 = np.tanh(0.5 * s).astype(complex)
    z = hg.mobius_apply_z(ca, cb, p0)
    theta = np.asarray(hg.mobius_dir_z(ca, cb, p0, 0.0), float)
    zr, tr = domain.reduce_phase_z(z, theta)
    return RealizedGeodesic(cls, actual, zr, tr)


@dataclass
class CrossingRecord:
    """Per-box counts of epsilon-segments of one closed geodesic."""

    cls: fu.GeodesicClass
    t: float                   # class length
    counts: list[int]          # one entry per queried box

    def __post_init__(self):
        for c in self.counts:
            if c < 0:
                raise InvalidConfigurationError("negative crossing count")


def crossing_records(domain: FundamentalDomain, classes, boxes,
                     eps: float) -> list[CrossingRecord]:
    """Count eps-segments of each closed geodesic inside each box."""
    out = []
    for cls in classes:
        geo = realize_geodesic(domain, cls, eps)
        out.append(CrossingRecord(cls, cls.length,
                                  [geo.box_count(b) for b in boxes]))
    return out


# ---------------------------------------------------------------------------
# mixing

def _liouville_phase_samples(domain: FundamentalDomain, rng, n: int):
    """Liouville-uniform phase points in T^1 F (area rejection x uniform angle)."""
    from .mme import _euclid_enclosing_radius, _euclid_uniform

    r0 = _euclid_enclosing_radius(domain)
    zs = []
    have = 0
    while have < n:
        cand = _euclid_uniform(rng, 2 * n, r0)
        # hyperbolic-area importance: accept with prob proportional to the
        # area element, bounded by its max over the enclosing disk
        w = 1.0 / (1.0 - np.abs(cand) ** 2) ** 2
        w_max = 1.0 / (1.0 - r0 * r0) ** 2
        keep = (rng.uniform(0, 1, len(cand)) < w / w_max) & domain.contains_z(cand)
        zs.append(cand[keep])
        have += int(keep.sum())
    z = np.concatenate(zs)[:n]
    theta = rng.uniform(0, TWO_PI, n)
    return z, theta


def _flow_z(z, theta, t: float):
    """Closed-form geodesic flow of arrays of chart phase points."""
    ca, cb = hg.carrier_ab(z, theta)
    p0 = complex(math.tanh(0.5 * t))
    zt = hg.mobius_apply_z(ca, cb, np.full(len(z), p0))
    tt = hg.mobius_dir_z(ca, cb, np.full(len(z), p0), 0.0)
    return zt, np.asarray(tt, float)


def mixing_correlation(domain: FundamentalDomain, b1: PhaseBox,
                       b2: PhaseBox | None, t: float, n_samples=200_000,
                       seed=0) -> MeasureEstimate:
    """Estimate m(B1 intersect g^{-t} B2) under normalized Liouville.

    b2 = None means the full space (the correlation is then m(B1) exactly).
    """
    rng = np.random.default_rng(seed)
    z, theta = _liouville_phase_samples(domain, rng, n_samples)
    in1 = b1.contains_chart(z, theta)
    hits = np.zeros(n_samples, dtype=bool)
    idx = np.nonzero(in1)[0]
    if len(idx):
        if b2 is None:
            hits[idx] = True
        else:
            zt, tt = _flow_z(z[idx], theta[idx], t)
            zr, tr = domain.reduce_phase_z(zt, tt)
            hits[idx] = b2.contains_chart(zr, tr)
    p = hits.mean()
    se = math.sqrt(max(p * (1 - p), 0.0) / n_samples)
    return MeasureEstimate(float(p), se, n_samples,
                           meta={"t": t, "seed": seed})


# ---------------------------------------------------------------------------
# equidistribution

def equidistribution_profile(table: fu.SpectrumTable,
                             domain: FundamentalDomain, boxes, t: float,
                             eps_sample: float = DEFAULT_SAMPLE_STEP):
    """mu_t of each box: class-averaged normalized arclength in the box."""
    if t > table.cutoff + 1e-12:
        raise InvalidConfigurationError(
            f"t = {t} beyond table cutoff {table.cutoff}")
    classes = [c for c in table.classes if c.length <= t + 1e-12]
    if not classes:
        raise InvalidConfigurationError(f"no classes below t = {t}")
    acc = np.zeros(len(boxes))
    for cls in classes:
        geo = realize_geodesic(domain, cls, eps_sample)
        for j, b in enumerate(boxes):
            acc[j] += geo.box_count(b) * geo.step / cls.length
    return acc / len(classes)


def equidistribution_stat(table: fu.SpectrumTable, domain: FundamentalDomain,
                          box: PhaseBox, t: float,
                          eps_sample: float = DEFAULT_SAMPLE_STEP) -> float:
    return float(equidistribution_profile(table, domain, [box], t,
                                          eps_sample)[0])


# ---------------------------------------------------------------------------
# counting suite

@dataclass
class CountingRow:
    t: float
    observed: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.observed / self.predicted if self.predicted else math.inf


@dataclass
class CountingReport:
    eps: float
    h: float
    window: list[CountingRow]        # P_{t,eps} vs 2 eps e^{ht}/t
    cumulative: list[CountingRow]    # P_t vs e^{ht}/(ht)
    triangle: list[CountingRow]      # N(B,t) vs 2 e^{ht} m(B)
    crossings: list[CountingRow]     # mean box crossings vs m(B) t / eps
    empirical_slope: float           # d ln(t P_t)/dt diagnostic
    box_measure: float | None = None
    meta: dict = field(default_factory=dict)


def counting_suite(table: fu.SpectrumTable, t_grid, eps: float, *,
                   h: float = 1.0,
                   domain: FundamentalDomain | None = None,
                   box: PhaseBox | None = None,
                   box_measure: float | None = None,
                   max_crossing_classes: int = 300,
                   seed: int = 0) -> CountingReport:
    """The paper's counting laws on the finite spectrum.

    h is the surface entropy used in the predicted laws.  The triangle and
    crossing rows need a box with a known measure; they are skipped when box
    or box_measure is missing.  Crossing counts average over at most
    max_crossing_classes classes per window (seeded subsample).
    """
    t_grid = [float(t) for t in t_grid]
    window, cumulative, triangle, crossings = [], [], [], []
    for t in t_grid:
        p_win = table.count_window(t, eps)
        window.append(CountingRow(t, p_win, 2.0 * eps * math.exp(h * t) / t))
        p_cum = table.count_P(t)
        cumulative.append(CountingRow(t, p_cum, math.exp(h * t) / (h * t)))
        if box is not None and box_measure is not None:
            n_obs = p_win * t * box_measure / eps
            triangle.append(CountingRow(t, n_obs,
                                        2.0 * math.exp(h * t) * box_measure))
    if box is not None and box_measure is not None and domain is not None:
        rng = np.random.default_rng(seed)
        for t in t_grid:
            cands = [c for c in table.classes
                     if t - eps < c.length <= t + eps]
            if len(cands) > max_crossing_classes:
                pick = rng.choice(len(cands), max_crossing_classes,
                                  replace=False)
                cands = [cands[i] for i in sorted(pick)]
            recs = crossing_records(domain, cands, [box], eps)
            mean_cross = (np.mean([r.counts[0] for r in recs])
                          if recs else 0.0)
            crossings.append(CountingRow(t, float(mean_cross),
                                         box_measure * t / eps))
    # diagnostic slope of ln(t P_t) over the grid (expected h)
    ts = np.array(t_grid)
    lp = np.log([r.observed * r.t for r in cumulative])
    slope = float(np.polyfit(ts, lp, 1)[0]) if len(ts) > 1 else math.nan
    return CountingReport(eps, h, window, cumulative, triangle, crossings,
                          slope, box_measure,
                          {"seed": seed,
                           "max_crossing_classes": max_crossing_classes})


# ---------------------------------------------------------------------------
# asymptotic comparison

@dataclass
class AsymptoticReport:
    """Finite-grid surrogate of the asymptotic comparison relations.

    Quantifier template (recorded verbatim in `template`): for each eps in
    the grid, take the largest available t and require
    |ln(f/g)(t_max, eps)| < K * eps + alpha, with K the least-squares slope
    of the residuals against eps, clamped to be nonnegative.  A pass is a
    finite-sample consistency statement, not a verification of the limit.
    """

    t_grid: list
    eps_grid: list
    alpha: float
    K: float
    residuals: list       # |ln(f/g)| at t_max, one per eps
    margins: list         # K*eps + alpha - residual, one per eps
    passed: bool
    template: str = ("forall eps in grid: |ln(f/g)|(t_max, eps) "
                     "< K*eps + alpha; K = max(0, lsq slope of residual vs eps)")


def asym_compare(f_samples, g_samples, alpha: float, t_grid,
                 eps_grid) -> AsymptoticReport:
    """Compare two sampled asymptotic families f(t, eps), g(t, eps).

    f_samples and g_samples are arrays of shape (len(t_grid), len(eps_grid))
    with strictly positive entries.
    """
    f = np.asarray(f_samples, float)
    g = np.asarray(g_samples, float)
    if f.shape != (len(t_grid), len(eps_grid)) or g.shape != f.shape:
        raise InvalidConfigurationError("sample grids have mismatched shapes")
    if (f <= 0).any() or (g <= 0).any():
        raise InvalidConfigurationError("sample values must be positive")
    i_max = int(np.argmax(t_grid))
    resid = np.abs(np.log(f[i_max] / g[i_max]))
    eps = np.asarray(eps_grid, float)
    if len(eps) > 1:
        slope = float(np.polyfit(eps, resid, 1)[0])
    else:
        slope = float(resid[0] / eps[0])
    K = max(slope, 0.0)
    margins = K * eps + alpha - resid
    return AsymptoticReport([float(t) for t in t_grid],
                            [float(e) for e in eps],
                            alpha, K, resid.tolist(), margins.tolist(),
                            bool((margins > 0).all()))
