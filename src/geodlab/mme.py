"""Knieper's measure of maximal entropy and its conditional densities.

The measure of a phase box is computed from the boundary-pair integral: pairs
of boundary atoms are drawn from the Patterson–Sullivan proxy density, the
connecting geodesic is clipped to the fundamental domain in closed form, and
the arclength inside the box is accumulated with the e^{-h(b+b)} weight.  Every
length is exact: the full-space normalization uses the clipped length, a box
takes the closed-form arclength of its chart window on the F-segment, and a
flowed box sums that arclength over the flowed-back segment's pieces in the
translates of F.  In constant curvature the result must agree with normalized Liouville measure,
which doubles as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import density as de
from . import fuchsian as fu
from . import hypgeom as hg
from .errors import DegenerateMeasureError, InvalidConfigurationError
from .quotient import FundamentalDomain

TWO_PI = 2.0 * math.pi
PAIR_EXCLUSION = 1e-4      # minimal angular separation of boundary pairs
ASYMPTOTIC_TOL = 1e-6      # busemann tolerance for holonomy configurations
BOX_MARGIN = 0.05          # gap between a random box's ball and the inradius
HOLONOMY_BINS = 48         # angular bins of the holonomy comparison


@dataclass(frozen=True)
class PhaseBox:
    """Product box in the fundamental-domain chart: metric ball x angle window."""

    center: hg.PhasePoint
    position_radius: float
    angle_halfwidth: float

    def __post_init__(self):
        if not self.position_radius > 0:
            raise InvalidConfigurationError("position_radius must be positive")
        if not 0 < self.angle_halfwidth <= math.pi:
            raise InvalidConfigurationError("angle_halfwidth must be in (0, pi]")

    def contains_chart(self, z, theta):
        """Membership of chart coordinates (no reduction applied)."""
        near = hg.dist_z(z, self.center.base.z) < self.position_radius
        if self.angle_halfwidth >= math.pi:   # full circle
            return near
        ang = hg.angle_gap(theta, self.center.dir) < self.angle_halfwidth
        return near & ang

    def chart_length(self, a, b, length):
        """Exact arclength of [0, length] on each carrier inside the box chart.

        The isometry (a, b) carries the real diameter, s -> tanh(s/2), to the
        geodesic.  The position ball is crossed on the closed-form window
        s_foot +- arccosh(cosh r / cosh d).  At x = tanh(s/2) the direction
        minus the box direction is -2 arg M, M = (conj(b) x + conj(a))
        e^{i theta_c / 2}, so the angle window ends where Im M = +-tan(w/2)
        Re M: two roots linear in x.  They cut the position window into at
        most three pieces on which membership is constant, and a piece counts
        when its midpoint is in the box.
        """
        a = np.asarray(a, complex)
        b = np.asarray(b, complex)
        r = self.position_radius
        out = np.zeros(len(a))
        s_foot, d = hg.geodesic_foot_z(a, b,
                                       np.full(len(a), self.center.base.z))
        near = np.nonzero(d < r)[0]
        half = np.arccosh(np.cosh(r) / np.cosh(d[near]))
        lo = np.maximum(s_foot[near] - half, 0.0)
        hi = np.minimum(s_foot[near] + half, length[near])
        keep = hi > lo
        idx, lo, hi = near[keep], lo[keep], hi[keep]
        a, b = a[idx], b[idx]
        cuts = [lo, hi]
        if self.angle_halfwidth < math.pi:
            rot = np.exp(0.5j * self.center.dir)
            m0, m1 = np.conj(a) * rot, np.conj(b) * rot
            tw = math.tan(0.5 * self.angle_halfwidth)
            for sign in (1.0, -1.0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    x = -((m0.imag - sign * tw * m0.real)
                          / (m1.imag - sign * tw * m1.real))
                inner = np.abs(x) < 1.0
                s = 2.0 * np.arctanh(np.where(inner, x, 0.0))
                cuts.append(np.clip(np.where(inner, s, lo), lo, hi))
        q = np.sort(np.stack(cuts, axis=1), axis=1)
        mid = np.tanh(0.25 * (q[:, 1:] + q[:, :-1])) + 0j
        a, b = a[:, None], b[:, None]
        inside = self.contains_chart(hg.mobius_apply_z(a, b, mid),
                                     hg.mobius_dir_z(a, b, mid, 0.0))
        out[idx] = (np.diff(q, axis=1) * inside).sum(axis=1)
        return out


@dataclass
class MeasureEstimate:
    value: float
    std_error: float
    samples: int
    discarded: int = 0
    meta: dict = field(default_factory=dict)


def random_box(domain: FundamentalDomain, rng, *, position_radius=0.35,
               angle_halfwidth=0.5) -> PhaseBox:
    """Random box whose position ball lies inside the fundamental domain."""
    inradius = 0.5 * domain.surface.generator(0).displacement()
    max_center = inradius - position_radius - BOX_MARGIN
    if max_center <= 0:
        raise InvalidConfigurationError("box too large for the domain")
    while True:
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * math.tanh(max_center / 2)
        if hg.dist_z(z, 0j) <= max_center:    # inside the inscribed disk
            break
    return PhaseBox(hg.PhasePoint(hg.DiskPoint(complex(z)), rng.uniform(0, TWO_PI)),
                    position_radius, angle_halfwidth)


# ---------------------------------------------------------------------------
# Liouville oracle

ENCLOSING_EUCLID_RADIUS_PAD = 0.005


def _euclid_enclosing_radius(domain: FundamentalDomain) -> float:
    return (math.tanh(0.5 * domain.surface.domain_radius)
            + ENCLOSING_EUCLID_RADIUS_PAD)


def _euclid_uniform(rng, n, r0):
    return (np.sqrt(rng.uniform(0, 1, n)) * r0
            * np.exp(1j * rng.uniform(0, TWO_PI, n)))


def _area_sample(domain: FundamentalDomain, n_samples, seed):
    """(z, w, in_F): points uniform on the Euclidean disk enclosing F, the
    hyperbolic area density at each, and their membership in F."""
    z = _euclid_uniform(np.random.default_rng(seed), n_samples,
                        _euclid_enclosing_radius(domain))
    return z, 4.0 / (1.0 - np.abs(z) ** 2) ** 2, domain.contains_z(z)


def domain_area(domain: FundamentalDomain, n_samples=400_000, seed=0) -> MeasureEstimate:
    """Hyperbolic area of F by rejection sampling (Gauss-Bonnet oracle 4 pi)."""
    _, w, in_f = _area_sample(domain, n_samples, seed)
    x = np.where(in_f, w, 0.0)
    r0 = _euclid_enclosing_radius(domain)
    euclid_area = math.pi * r0 * r0
    mean, se = x.mean(), x.std(ddof=1) / math.sqrt(n_samples)
    return MeasureEstimate(mean * euclid_area, se * euclid_area, n_samples)


def liouville_measure(domain: FundamentalDomain, box: PhaseBox,
                      n_samples=400_000, seed=0) -> MeasureEstimate:
    """Normalized Liouville measure of a box: area ratio times angle fraction."""
    z, w, in_f = _area_sample(domain, n_samples, seed)
    in_ball = in_f & (hg.dist_z(z, box.center.base.z) < box.position_radius)
    x = np.where(in_ball, w, 0.0)
    y = np.where(in_f, w, 0.0)
    ratio = x.mean() / y.mean()
    # delta-method standard error for the ratio of correlated means
    n = n_samples
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    cxy = np.cov(x, y, ddof=1)[0, 1]
    var_r = (vx - 2 * ratio * cxy + ratio * ratio * vy) / (n * y.mean() ** 2)
    angle_frac = box.angle_halfwidth / math.pi
    return MeasureEstimate(ratio * angle_frac,
                           math.sqrt(max(var_r, 0.0)) * angle_frac, n)


# ---------------------------------------------------------------------------
# boundary-pair geodesics

def _trace_weighted_length(domain, box, ca, cb, weights,
                           flow_t: float = 0.0):
    """Per-pair weight * len(box-lift intersect geodesic), as an array.

    (ca, cb) are the pairs' carriers from `hg.pair_carrier_ab`.  Each
    geodesic meets the convex domain F in one segment [s_lo, s_hi],
    which `FundamentalDomain.clip` gives in closed form.  The full-space
    calibration (box None) is then exact: weight * (s_hi - s_lo).  A box's
    lift lives inside F, so its length is `PhaseBox.chart_length` of the
    F-segment on the pair's own carrier, with no reduction.

    flow_t != 0 measures the g^{flow_t}-image of the box instead: a phase
    point w(s) on the F-segment counts when the flowed-back point
    w(s - flow_t) reduces into the box chart.
    `FundamentalDomain.tile_segments` splits the flowed-back range
    [s_lo - flow_t, s_hi - flow_t] into pieces, each carried into F, and the
    pair's length is the sum of its pieces' chart lengths.
    """
    s_lo, s_hi = domain.clip(ca, cb)
    if box is None:
        return weights * (s_hi - s_lo)
    if flow_t == 0.0:
        a, b = hg.advance_ab(ca, cb, s_lo)
        return weights * box.chart_length(a, b, s_hi - s_lo)
    owner, a, b, length = domain.tile_segments(ca, cb, s_lo - flow_t,
                                               s_hi - flow_t)
    per_pair = np.bincount(owner, weights=box.chart_length(a, b, length),
                           minlength=len(ca))
    return weights * per_pair


def _pair_weights(p, ca, cb, xi, eta, h):
    """Definition-4.1 weights e^{-h (b(p,q,xi) + b(p,q,eta))}.

    q is the point of the (eta, xi)-geodesic, carried by (ca, cb), nearest
    to p; the integrand is independent of the choice of q along the
    geodesic.
    """
    s_foot, _ = hg.geodesic_foot_z(ca, cb, np.full(xi.shape, p.z))
    q = hg.mobius_apply_z(ca, cb, np.tanh(0.5 * s_foot).astype(complex))
    pz = np.full(xi.shape, p.z)
    return np.exp(-h * (hg.busemann_z(pz, q, xi) + hg.busemann_z(pz, q, eta)))


def _pair_cdf(density):
    """Cumulative atom probabilities, cached on the density.

    The same cumulative sum `rng.choice(n, size, p=probs)` builds on every
    call, so searchsorted on it draws the same indices from the same stream.
    Raises DegenerateMeasureError when no two positive-weight atoms are
    PAIR_EXCLUSION apart, so that no pair could ever be kept: for a
    separation this small that holds exactly when the atoms fit in an arc
    shorter than it, whose end atoms are the farthest pair.
    """
    cdf = getattr(density, "_pair_cdf", None)
    if cdf is None:
        u = density.atom_u[density.weights > 0]
        order = np.argsort(np.angle(u))
        ang = np.angle(u[order])
        gap = np.diff(ang, append=ang[0] + TWO_PI)
        k = int(np.argmax(gap))
        # the atoms bordering the largest gap end the arc holding them all
        ends = u[order[k]], u[order[(k + 1) % len(u)]]
        if (gap[k] > math.pi
                and abs(np.angle(ends[0] / ends[1])) < PAIR_EXCLUSION):
            raise DegenerateMeasureError(
                "no two atoms are PAIR_EXCLUSION apart")
        cdf = (density.weights / density.total_mass).cumsum()
        cdf /= cdf[-1]
        density._pair_cdf = cdf
    return cdf


def _sample_pairs(density, rng, n):
    """Draw atom index pairs proportional to weights, excluding near-diagonal
    pairs by resampling; returns (xi, eta, n_discarded).  A density with no
    pair to keep raises DegenerateMeasureError (see `_pair_cdf`)."""
    cdf = _pair_cdf(density)
    xi = np.empty(n, dtype=complex)
    eta = np.empty(n, dtype=complex)
    filled = 0
    discarded = 0
    while filled < n:
        todo = n - filled
        i = fu.ordered_searchsorted(cdf, rng.random(todo), side="right")
        j = fu.ordered_searchsorted(cdf, rng.random(todo), side="right")
        u, v = density.atom_u[i], density.atom_u[j]
        ok = np.abs(np.angle(u / v)) >= PAIR_EXCLUSION
        k = int(ok.sum())
        xi[filled:filled + k] = u[ok]
        eta[filled:filled + k] = v[ok]
        filled += k
        discarded += todo - k
    return xi, eta, discarded


def _pair_batch(surface, domain, box, density, rng, n, flow_t=0.0):
    """(values, discarded) of n boundary pairs drawn from the density: each
    pair's weighted length in the box (None: in F x S^1), as
    `_trace_weighted_length` gives it on the pair's carrier."""
    xi, eta, discarded = _sample_pairs(density, rng, n)
    ca, cb = hg.pair_carrier_ab(xi, eta)
    w = _pair_weights(density.basepoint, ca, cb, xi, eta, surface.entropy_h)
    return _trace_weighted_length(domain, box, ca, cb, w, flow_t), discarded


def knieper_normalization(surface: fu.SurfaceModel, domain: FundamentalDomain,
                          density: de.BoundaryMeasure, n_samples=200_000,
                          seed=0) -> tuple[float, float]:
    """Full-space scale: (mean weighted length in F x S^1, its standard error).

    The result is cached on the density for the last (n_samples, seed).
    """
    cache = getattr(density, "_knieper_norm", None)
    if cache is not None and cache[0] == (n_samples, seed):
        return cache[1]
    vals, _ = _pair_batch(surface, domain, None, density,
                          np.random.default_rng(seed), n_samples)
    z = float(vals.mean())
    if z <= 0:
        raise DegenerateMeasureError("normalization estimate vanished")
    z_se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    density._knieper_norm = ((n_samples, seed), (z, z_se))
    return z, z_se


def knieper_measure(surface: fu.SurfaceModel, domain: FundamentalDomain,
                    box: PhaseBox, density: de.BoundaryMeasure,
                    n_samples=1_000_000, seed=0, *,
                    norm_samples=200_000, norm_seed=0,
                    flow_t: float = 0.0) -> MeasureEstimate:
    """Monte Carlo estimate of the maximal-entropy measure of a box.

    flow_t measures the g^{flow_t}-image of the box (flow invariance says
    the value matches flow_t = 0 within errors).  The normalization depends
    only on the density, so it uses its own seed and is cached across boxes.
    """
    z_norm, z_se = knieper_normalization(surface, domain, density,
                                         n_samples=norm_samples,
                                         seed=norm_seed)
    rng = np.random.default_rng(seed)
    chunk = 100_000
    discarded = 0
    done = 0
    total = 0.0
    total_sq = 0.0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        vals, disc = _pair_batch(surface, domain, box, density, rng, m,
                                 flow_t)
        discarded += disc
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    mean_se = math.sqrt(var / n_samples)
    value = mean / z_norm
    # the normalization stream is independent: combine errors in quadrature
    se = value * math.hypot(mean_se / mean if mean > 0 else 0.0,
                            z_se / z_norm)
    return MeasureEstimate(value, se, n_samples, discarded,
                           {"normalization": z_norm,
                            "normalization_se": z_se, "seed": seed})


# ---------------------------------------------------------------------------
# conditional densities

@dataclass(frozen=True)
class ConditionalDensityQuery:
    v: hg.PhasePoint
    w: hg.PhasePoint
    kind: str  # "stable" | "unstable"

    def __post_init__(self):
        if self.kind not in ("stable", "unstable"):
            raise InvalidConfigurationError(f"unknown kind {self.kind!r}")


def conditional_density(query: ConditionalDensityQuery, h: float = 1.0) -> float:
    """Busemann factor of the conditional measure density.

    e^{-h b(pi v, pi w, w_inf)} for unstable, with w_-inf for stable; the
    mu-atom factor is reported separately by callers.
    """
    w_inf, w_minf = hg.endpoints(query.w)
    xi = w_inf if query.kind == "unstable" else w_minf
    return math.exp(-h * hg.busemann(query.v.base, query.w.base, xi))


@dataclass
class ExpansionReport:
    h: float
    rows: list  # (t, kind, ln_ratio, expected, error)
    max_error: float

    @property
    def passed(self):
        return self.max_error < 1e-9


def verify_expansion(v: hg.PhasePoint, w: hg.PhasePoint, t_grid,
                     h: float = 1.0) -> ExpansionReport:
    """Uniform expansion/contraction: conditionals scale by e^{+-h t}."""
    rows = []
    max_err = 0.0
    for kind, sign in (("unstable", +1.0), ("stable", -1.0)):
        base = conditional_density(ConditionalDensityQuery(v, w, kind), h)
        for t in t_grid:
            wt = hg.flow(w, float(t))
            val = conditional_density(ConditionalDensityQuery(v, wt, kind), h)
            ln_ratio = math.log(val / base)
            err = abs(ln_ratio - sign * h * t)
            rows.append((float(t), kind, ln_ratio, sign * h * t, err))
            max_err = max(max_err, err)
    return ExpansionReport(h, rows, max_err)


def asymptotic_partner(w: hg.PhasePoint, shift: float) -> hg.PhasePoint:
    """Phase point with the same forward endpoint and zero Busemann offset.

    Walks along the stable horocycle of w (centered at w_inf through pi w)
    by the given parameter and points the result at w_inf.
    """
    ca, cb = hg.carrier_ab(w.base.z, w.dir)
    # in carrier coordinates the forward endpoint is +1 and the base is 0;
    # the horocycle through 0 centered at 1 is |z - 1/2| = 1/2
    zloc = 0.5 + 0.5 * np.exp(1j * (math.pi + shift))
    z = complex(hg.mobius_apply_z(ca, cb, zloc))
    xi = complex(hg.mobius_boundary_z(ca, cb, 1.0 + 0j))
    theta = float(hg.direction_toward_z(z, xi))
    return hg.PhasePoint(hg.DiskPoint(z), theta)


@dataclass
class HolonomyReport:
    busemann_lhs: float
    busemann_rhs: float
    mu_lhs: float
    mu_rhs: float
    deviation: float
    meta: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.deviation < 0.05


def verify_holonomy(surface: fu.SurfaceModel, v, v2, w, w2,
                    density_R: float = 10.0, *,
                    ball: fu.Ball | None = None) -> HolonomyReport:
    """Holonomy invariance dm_v^u(w) = dm_{v'}^u(w').

    Configuration: w' asymptotic to w (same forward endpoint, Busemann 0),
    v' asymptotic to v likewise, w on the weak-unstable set of v (shared
    backward endpoint).  The Busemann factors cancel analytically; the mu
    factors are compared through HOLONOMY_BINS-binned proxy densities at the
    two base points, so the residual is the binned transformation-law error.
    """
    h = surface.entropy_h
    s = de.DEFAULT_S_FACTOR * h
    w_inf, w_minf = hg.endpoints(w)
    w2_inf, _ = hg.endpoints(w2)
    v_inf, v_minf = hg.endpoints(v)
    v2_inf, _ = hg.endpoints(v2)
    if abs(w_inf.u - w2_inf.u) > ASYMPTOTIC_TOL:
        raise InvalidConfigurationError("w' does not share the forward endpoint of w")
    if abs(hg.busemann(w.base, w2.base, w_inf)) > ASYMPTOTIC_TOL:
        raise InvalidConfigurationError("w' is not Busemann-synchronous with w")
    if abs(v_inf.u - v2_inf.u) > ASYMPTOTIC_TOL:
        raise InvalidConfigurationError("v' does not share the forward endpoint of v")
    if abs(hg.busemann(v.base, v2.base, v_inf)) > ASYMPTOTIC_TOL:
        raise InvalidConfigurationError("v' is not Busemann-synchronous with v")
    if abs(w_minf.u - v_minf.u) > ASYMPTOTIC_TOL:
        raise InvalidConfigurationError("w is not on the weak-unstable set of v")

    b_lhs = math.exp(-h * hg.busemann(v.base, w.base, w_inf))
    b_rhs = math.exp(-h * hg.busemann(v2.base, w2.base, w2_inf))

    if ball is None:
        ball = fu.enumerate_ball(surface, density_R)
    j = int(de.bin_index(np.array([w_inf.u]), HOLONOMY_BINS)[0])
    mu_lhs, mu_rhs = (
        float(de.ps_density(surface, x.base, s, density_R, ball=ball)
              .binned(HOLONOMY_BINS)[j]) for x in (v, v2))
    if mu_lhs <= 0 or mu_rhs <= 0:
        raise DegenerateMeasureError("empty density bin at the holonomy endpoint")
    dev = abs((b_rhs * mu_rhs) / (b_lhs * mu_lhs) - 1.0)
    return HolonomyReport(
        b_lhs, b_rhs, mu_lhs, mu_rhs, dev,
        {"bin": j, "n_bins": HOLONOMY_BINS, "R": density_R, "s": s})
