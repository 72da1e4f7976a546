"""Geodesics and scalar Jacobi/Riccati dynamics on conformal plane metrics.

Metrics are ds^2 = e^{2 phi(x,y)} (dx^2 + dy^2) with curvature
K = -e^{-2 phi} (phi_xx + phi_yy) <= 0.  The rank dichotomy on surfaces
reduces to the curvature along the orbit: a perpendicular parallel Jacobi
field exists iff K vanishes identically there, and the transversality
criterion reduces to the gap between the forward and backward Riccati limits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, InvalidConfigurationError

DEFAULT_DT = 0.005
DEFAULT_T = 30.0
RANK_TOL = 1e-8            # sup|K| threshold for rank >= 2
GAP_TOL = 1e-6             # Riccati gap threshold for transversality
SPEED_DRIFT_LIMIT = 1e-4   # unit-speed monitor hard limit
RICCATI_BLOWUP = 1e6


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor phi with analytic derivatives, K = -e^{-2phi} lap phi."""

    name: str
    phi: callable              # phi(x, y) -> real
    grad: callable             # (x, y) -> (phi_x, phi_y)
    laplacian: callable        # (x, y) -> phi_xx + phi_yy

    def curvature(self, x, y):
        return -np.exp(-2.0 * self.phi(x, y)) * self.laplacian(x, y)

    def check_nonpositive(self, tol=1e-12):
        """Grid check of the K <= 0 contract over the preset's chart domain."""
        ext = CHART_EXTENT.get(self.name, 3.0)
        g = np.linspace(-ext, ext, 41)
        xx, yy = np.meshgrid(g, g)
        kmax = float(self.curvature(xx, yy).max())
        if kmax > tol:
            raise InvalidConfigurationError(
                f"metric {self.name} has positive curvature {kmax}")
        return kmax


def _flat_strip_phi(x, y):
    t = np.maximum(np.abs(x) - 1.0, 0.0)
    return t ** 4


def _flat_strip_grad(x, y):
    t = np.maximum(np.abs(x) - 1.0, 0.0)
    return 4.0 * t ** 3 * np.sign(x), np.zeros_like(np.asarray(y, float))


def _flat_strip_lap(x, y):
    t = np.maximum(np.abs(x) - 1.0, 0.0)
    return 12.0 * t ** 2 + np.zeros_like(np.asarray(y, float))


def _constant_m1_phi(x, y):
    # Poincare-disk pullback: phi = ln(2 / (1 - r^2)); lap phi = e^{2 phi},
    # hence K = -1 exactly on the open unit disk
    return np.log(2.0) - np.log1p(-(x * x + y * y))


def _constant_m1_grad(x, y):
    u = 1.0 - (x * x + y * y)
    return 2.0 * x / u, 2.0 * y / u


def _constant_m1_lap(x, y):
    u = 1.0 - (x * x + y * y)
    return 4.0 / (u * u)


PRESETS = {
    "flat": ConformalMetric(
        "flat",
        lambda x, y: np.zeros_like(np.asarray(x, float)),
        lambda x, y: (np.zeros_like(np.asarray(x, float)),
                      np.zeros_like(np.asarray(y, float))),
        lambda x, y: np.zeros_like(np.asarray(x, float))),
    "strictly_negative": ConformalMetric(
        "strictly_negative",
        lambda x, y: x ** 2 + y ** 2,
        lambda x, y: (2.0 * x, 2.0 * y),
        lambda x, y: 4.0 + np.zeros_like(np.asarray(x, float))),
    "flat_strip": ConformalMetric(
        "flat_strip", _flat_strip_phi, _flat_strip_grad, _flat_strip_lap),
    "constant_m1": ConformalMetric(
        "constant_m1", _constant_m1_phi, _constant_m1_grad, _constant_m1_lap),
}


# half-side of the square (or radius of the disk) over which states are
# sampled and curvature is grid-checked; constant_m1 lives on the unit disk,
# and the curved presets are kept where |K| stays well above the rank
# tolerance so the dichotomy is sharp at the sampled starts
CHART_EXTENT = {"flat": 3.0, "strictly_negative": 2.0, "flat_strip": 2.0,
                "constant_m1": 0.65}


def sample_state(metric: ConformalMetric, rng) -> "GeodesicState":
    """Random initial state inside the preset's chart domain."""
    ext = CHART_EXTENT.get(metric.name, 3.0)
    if metric.name == "constant_m1":
        r = ext * math.sqrt(rng.uniform(0, 1))
        ang = rng.uniform(0, 2 * math.pi)
        x, y = r * math.cos(ang), r * math.sin(ang)
    else:
        x, y = rng.uniform(-ext, ext), rng.uniform(-ext, ext)
    return GeodesicState(x, y, rng.uniform(0, 2 * math.pi))


def load_metric(name: str) -> ConformalMetric:
    if name not in PRESETS:
        raise InvalidConfigurationError(
            f"unknown metric preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]


@dataclass(frozen=True)
class GeodesicState:
    x: float
    y: float
    theta: float               # direction angle in the chart
    s: float = 0.0             # arclength parameter


@dataclass
class Trajectory:
    metric: ConformalMetric
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    speed_drift: float         # max |  ||v||_g - 1  | observed

    @property
    def n(self):
        return len(self.s)

    def curvature_along(self):
        return self.metric.curvature(self.x, self.y)


def _rhs(metric, state):
    """Unit-speed conformal geodesic equations in (x, y, theta).

    x' = cos(theta) e^{-phi}, y' = sin(theta) e^{-phi},
    theta' = e^{-phi} (phi_x sin(theta) - phi_y cos(theta)),
    with ' = d/ds (metric arclength).  state has shape (3, n).
    """
    x, y, th = state
    px, py = metric.grad(x, y)
    em = np.exp(-metric.phi(x, y))
    c, s = np.cos(th), np.sin(th)
    return np.stack([em * c, em * s, em * (px * s - py * c)])


def _integrate_batch(metric, x0, y0, th0, T, dt: float):
    """RK4 over a batch to the signed horizon T, shared or one per column;
    returns (s, out): unsigned arclengths, states shaped (steps + 1, 3, n)."""
    if not 0.0 < dt <= 1e-2 + 1e-15:
        raise InvalidConfigurationError("dt must lie in (0, 1e-2]")
    n = max(int(round(float(np.max(np.abs(T))) / dt)), 1)
    h = np.asarray(T, float) / n
    state = np.stack([np.asarray(x0, float), np.asarray(y0, float),
                      np.asarray(th0, float)])
    out = np.empty((n + 1,) + state.shape)
    out[0] = state
    for i in range(n):
        k1 = _rhs(metric, state)
        k2 = _rhs(metric, state + 0.5 * h * k1)
        k3 = _rhs(metric, state + 0.5 * h * k2)
        k4 = _rhs(metric, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = state
    return np.max(np.abs(h)) * np.arange(n + 1), out


def _batch_drift(metric, s, out):
    """Max unit-speed violation per batch member, via midpoint derivatives."""
    x, y = out[:, 0], out[:, 1]
    dx = np.gradient(x, s, axis=0)
    dy = np.gradient(y, s, axis=0)
    sp = np.exp(metric.phi(x, y)) * np.hypot(dx, dy)
    if len(s) < 3:
        return np.zeros(x.shape[1])
    return np.abs(sp[1:-1] - 1.0).max(axis=0)


def integrate_geodesic(metric: ConformalMetric, s0: GeodesicState, T: float,
                       dt: float = DEFAULT_DT) -> Trajectory:
    """Classical RK4 on the conformal geodesic equations, unit metric speed.

    Negative T integrates backward.  Unit speed holds by construction; the
    monitor checks it via finite differences of the chart positions.
    """
    s, out = _integrate_batch(metric, [s0.x], [s0.y], [s0.theta], T, dt)
    drift = float(_batch_drift(metric, s, out)[0])
    if drift > SPEED_DRIFT_LIMIT:
        raise IntegrationError(
            f"unit-speed drift {drift:.2e} exceeds {SPEED_DRIFT_LIMIT}")
    return Trajectory(metric, s0.s + math.copysign(1.0, T) * s, out[:, 0, 0],
                      out[:, 1, 0], out[:, 2, 0], drift)


def _two_way_curvature(metric, x0, y0, th0, T: float, dt: float, s_start=0.0):
    """Integrate n states forward and backward over T as one batch of 2n
    columns, each checked for unit speed.  Returns (h, k): k the curvature
    at the samples, shaped (steps + 1, 2, n), forward in k[:, 0], backward
    in k[:, 1]; h the step from the arclengths offset by s_start (scalar or
    per state), as for a Trajectory starting there."""
    if not (math.isfinite(T) and T > 0):
        raise InvalidConfigurationError(
            f"horizon T must be finite and positive, got {T}")
    n = len(x0)
    s, out = _integrate_batch(metric, *(np.tile(v, 2) for v in (x0, y0, th0)),
                              np.repeat([T, -T], n), dt)
    # per direction, so temporaries stay n columns wide; K fills theta's slot
    halves = (out[:, :, :n], out[:, :, n:])
    drift = np.maximum(*(_batch_drift(metric, s, o) for o in halves))
    if (drift > SPEED_DRIFT_LIMIT).any():
        raise IntegrationError(
            f"unit-speed drift {drift.max():.2e} exceeds {SPEED_DRIFT_LIMIT}")
    for o in halves:
        o[:, 2] = metric.curvature(o[:, 0], o[:, 1])
    h = abs((s_start + s[1]) - (s_start + s[0]))
    return h, out[:, 2].reshape(len(s), 2, n)


# ---------------------------------------------------------------------------
# rank classification

@dataclass
class RankReport:
    rank: str                  # "rank_one" | "rank_ge_2"
    sup_abs_K: float
    T: float
    tol: float


def rank_classify(metric: ConformalMetric, s0: GeodesicState,
                  T: float = DEFAULT_T, tol: float = RANK_TOL) -> RankReport:
    """Finite-horizon rank dichotomy via curvature along the orbit.

    rank >= 2 iff sup |K| <= tol over the sampled trajectory on [-T, T]; the
    horizon is reported as part of the contract.
    """
    _, k = _two_way_curvature(metric, [s0.x], [s0.y], [s0.theta], T,
                              DEFAULT_DT)
    sup = float(np.abs(k).max())
    return RankReport("rank_ge_2" if sup <= tol else "rank_one", sup, T, tol)


# ---------------------------------------------------------------------------
# Riccati subspaces

@dataclass
class RiccatiReport:
    u_stable: float
    u_unstable: float
    T: float

    @property
    def gap(self):
        return self.u_unstable - self.u_stable


def _riccati_along(K_vals, h, u0=0.0):
    """Integrate u' = -K - u^2 along sampled curvature with RK4 from u0.

    K_vals has shape (steps + 1, ...) and h broadcasts against one sample;
    returns u at every sample, shaped like K_vals.
    """
    K_vals = np.asarray(K_vals, float)
    u = np.empty_like(K_vals)
    u[0] = u0

    def f(k, u):
        return -k - u * u

    for i in range(len(K_vals) - 1):
        k0, k1, ui = K_vals[i], K_vals[i + 1], u[i]
        km = 0.5 * (k0 + k1)
        a1 = f(k0, ui)
        a2 = f(km, ui + 0.5 * h * a1)
        a3 = f(km, ui + 0.5 * h * a2)
        a4 = f(k1, ui + h * a3)
        u[i + 1] = ui + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        if (np.abs(u[i + 1]) > RICCATI_BLOWUP).any():
            raise IntegrationError(
                "Riccati blow-up under nonpositive curvature")
    return u


def _riccati_limits(h, k):
    """(u_stable, u_unstable) at the batch starts, from one Riccati pass over
    both directions of k reversed: u_unstable integrates u' = -K - u^2 from
    s = -T (u = 0) forward to 0; u_stable is mirrored from s = +T backward,
    where reversing the orientation flips the sign of u."""
    u = _riccati_along(k[::-1], h)[-1]
    return -u[0], u[1]


def riccati_subspaces(metric: ConformalMetric, s0: GeodesicState,
                      T: float = DEFAULT_T,
                      dt: float = DEFAULT_DT) -> RiccatiReport:
    """Forward/backward Riccati limits at s0.

    With K <= 0 both stay finite and the initial condition washes out over
    the horizon.
    """
    u_stable, u_unstable = _riccati_limits(*_two_way_curvature(
        metric, [s0.x], [s0.y], [s0.theta], T, dt, s0.s))
    return RiccatiReport(float(u_stable[0]), float(u_unstable[0]), T)


def unstable_jacobi(metric: ConformalMetric, s0: GeodesicState,
                    T: float = DEFAULT_T, dt: float = DEFAULT_DT):
    """Unstable Jacobi scalar J(s) with J(0) = 1, J'(0) = u_unstable.

    J(s) = exp(integral of u) along the forward orbit, with u integrated
    from the Riccati equation; nondecreasing for every preset (K <= 0).
    """
    h, k = _two_way_curvature(metric, [s0.x], [s0.y], [s0.theta], T, dt, s0.s)
    _, u_unstable = _riccati_limits(h, k)
    u = _riccati_along(k[:, 0, 0], h, u_unstable[0])
    growth = [math.exp(v) for v in 0.5 * h * (u[:-1] + u[1:])]
    s = s0.s + (T / (len(u) - 1)) * np.arange(len(u))
    return s, np.cumprod([1.0] + growth)


# ---------------------------------------------------------------------------
# suites

@dataclass
class RankSuiteResult:
    preset: str
    n_geodesics: int
    disagreements: int
    reports: list = field(default_factory=list)


def rank_suite(preset: str, n_geodesics: int = 100, seed: int = 0,
               T: float = DEFAULT_T, dt: float = DEFAULT_DT,
               tol: float = RANK_TOL) -> RankSuiteResult:
    """Classifier agreement: Riccati gap vs curvature along the orbit.

    All geodesics of a preset are integrated as one batch; both classifiers
    run on the same trajectories.
    """
    metric = load_metric(preset)
    metric.check_nonpositive()
    rng = np.random.default_rng(seed)
    states = [sample_state(metric, rng) for _ in range(n_geodesics)]
    h, k = _two_way_curvature(
        metric, [s.x for s in states], [s.y for s in states],
        [s.theta for s in states], T, dt)
    sup_k = np.abs(k).max(axis=(0, 1))
    u_stable, u_unstable = _riccati_limits(h, k)
    reports = []
    for i, s0 in enumerate(states):
        rk = RankReport("rank_ge_2" if sup_k[i] <= tol else "rank_one",
                        float(sup_k[i]), T, tol)
        rc = RiccatiReport(float(u_stable[i]), float(u_unstable[i]), T)
        agree = (rc.gap > GAP_TOL) == (rk.rank == "rank_one")
        reports.append((s0, rk, rc, agree))
    disagreements = sum(not r[3] for r in reports)
    return RankSuiteResult(preset, n_geodesics, disagreements, reports)


def dump_trajectory_csv(metric: ConformalMetric, s0: GeodesicState, T: float,
                        dt: float, path) -> None:
    """CSV dump (s, x, y, theta, K, u_stable, u_unstable) along the orbit.

    The rows' Riccati limits come from one batch of every row state, forward
    and backward over min(10, T): O(rows x min(10, T) / dt) memory.
    """
    traj = integrate_geodesic(metric, s0, T, dt)
    rows = slice(None, None, max(len(traj.s) // 1000, 1))
    s, x, y, th = (v[rows] for v in (traj.s, traj.x, traj.y, traj.theta))
    u_stable, u_unstable = _riccati_limits(*_two_way_curvature(
        metric, x, y, th, min(10.0, T), dt, s))
    cols = (s, x, y, th, traj.curvature_along()[rows], u_stable, u_unstable)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "theta", "K", "u_stable", "u_unstable"])
        w.writerows([repr(float(v)) for v in row] for row in zip(*cols))
