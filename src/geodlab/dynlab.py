"""Quotient-space dynamics and the counting experiments.

One period of each closed geodesic's axis is split into exact pieces, each
carried into the fundamental domain, so the time it spends in a phase box is
exact.  Those box times feed equidistribution and the box rows of the
counting laws; mixing correlations flow Liouville samples in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fuchsian as fu
from . import hypgeom as hg
from .errors import InvalidConfigurationError
from .mme import (MeasureEstimate, PhaseBox, _euclid_enclosing_radius,
                  _euclid_uniform)
from .quotient import FundamentalDomain

TWO_PI = 2.0 * math.pi


def axis_pieces(domain: FundamentalDomain, table: fu.SpectrumTable, rows: slice):
    """Tile pieces of one period of each class axis of ``table.classes[rows]``:
    (owner, a, b, length), owner counted from the start of the slice.

    The period [0, length] starts at the axis point nearest the origin and
    is split by `FundamentalDomain.tile_segments`, all classes in one batch.
    """
    xi, eta = (end[rows] for end in table.axes)
    ca, cb = hg.pair_carrier_ab(xi, eta)
    ell = table.length[rows]
    return domain.tile_segments(ca, cb, np.zeros(len(ell)), ell)


def box_times(domain: FundamentalDomain, table: fu.SpectrumTable, rows: slice, boxes):
    """Exact arclength each closed geodesic of ``table.classes[rows]`` spends
    in each box, shape (classes, boxes): the chart lengths of the class's
    axis pieces inside the box, summed over one period.
    """
    owner, a, b, length = axis_pieces(domain, table, rows)
    n = len(table.length[rows])
    return np.stack([np.bincount(owner, weights=bx.chart_length(a, b, length),
                                 minlength=n) for bx in boxes], axis=1)


# ---------------------------------------------------------------------------
# mixing

def _liouville_phase_samples(domain: FundamentalDomain, rng, n: int):
    """Liouville-uniform phase points in T^1 F (area rejection x uniform angle)."""
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
                             domain: FundamentalDomain, boxes, t: float):
    """mu_t of each box: class-averaged normalized arclength in the box."""
    if t > table.cutoff + 1e-12:
        raise InvalidConfigurationError(
            f"t = {t} beyond table cutoff {table.cutoff}")
    rows = slice(0, np.searchsorted(table.length, t + 1e-12, side="right"))
    ell = table.length[rows]
    if not len(ell):
        raise InvalidConfigurationError(f"no classes below t = {t}")
    return (box_times(domain, table, rows, boxes) / ell[:, None]).mean(axis=0)


def equidistribution_stat(table: fu.SpectrumTable, domain: FundamentalDomain,
                          box: PhaseBox, t: float) -> float:
    return float(equidistribution_profile(table, domain, [box], t)[0])


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
    crossings: list[CountingRow]     # mean box time / eps vs m(B) t / eps
    empirical_slope: float | None    # d ln(t P_t)/dt diagnostic
    box_measure: float | None = None


def counting_suite(table: fu.SpectrumTable, t_grid, eps: float, *,
                   domain: FundamentalDomain | None = None,
                   box: PhaseBox | None = None,
                   box_measure: float | None = None) -> CountingReport:
    """The paper's counting laws on the finite spectrum.

    The predicted laws use the entropy h of the table's surface.  The
    empirical slope is fitted over the grid points with P_t > 0 and is None
    when fewer than two remain.  With a box, the triangle and crossing rows
    measure the exact box time tau_B(c) of every class c in the window
    t - eps < l(c) <= t + eps: the triangle row's N(B, t) is
    (t / eps) sum tau_B(c) / l(c), the crossing row's mean tau_B / eps.
    A box needs domain and box_measure.
    """
    if box is not None and (domain is None or box_measure is None):
        raise InvalidConfigurationError(
            "a counting box needs domain and box_measure")
    h = table.surface.entropy_h
    t_grid = [float(t) for t in t_grid]
    window, cumulative, triangle, crossings = [], [], [], []
    for t in t_grid:
        p_win = table.count_window(t, eps)
        window.append(CountingRow(t, p_win, 2.0 * eps * math.exp(h * t) / t))
        p_cum = table.count_P(t)
        cumulative.append(CountingRow(t, p_cum, math.exp(h * t) / (h * t)))
    if box is not None:
        rows = slice(*np.searchsorted(
            table.length, [min(t_grid) - eps, max(t_grid) + eps], side="right"))
        ell = table.length[rows]
        tau = box_times(domain, table, rows, [box])[:, 0]
        for t in t_grid:
            win = (t - eps < ell) & (ell <= t + eps)
            triangle.append(CountingRow(
                t, t / eps * float((tau[win] / ell[win]).sum()),
                2.0 * math.exp(h * t) * box_measure))
            crossings.append(CountingRow(
                t, float(tau[win].mean()) / eps if win.any() else 0.0,
                box_measure * t / eps))
    # diagnostic slope of ln(t P_t) over the grid (expected h)
    ts = np.array([r.t for r in cumulative if r.observed > 0])
    lp = np.log([r.observed * r.t for r in cumulative if r.observed > 0])
    slope = float(np.polyfit(ts, lp, 1)[0]) if len(ts) > 1 else None
    return CountingReport(eps, h, window, cumulative, triangle, crossings,
                          slope, box_measure)
