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
CURVATURE_TOL = 1e-12      # largest K a preset's grid check lets pass
DUMP_BLOCK_ROWS = 1000     # row states per Riccati batch of a CSV dump


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor phi with analytic derivatives, K = -e^{-2phi} lap phi."""

    name: str
    phi: callable              # phi(x, y) -> real
    grad: callable             # (x, y) -> (phi_x, phi_y)
    laplacian: callable        # (x, y) -> phi_xx + phi_yy

    def curvature(self, x, y):
        return -np.exp(-2.0 * self.phi(x, y)) * self.laplacian(x, y)

    def check_nonpositive(self):
        """Grid check of K <= CURVATURE_TOL over the preset's chart domain."""
        ext = CHART_EXTENT.get(self.name, 3.0)
        g = np.linspace(-ext, ext, 41)
        xx, yy = np.meshgrid(g, g)
        kmax = float(self.curvature(xx, yy).max())
        if kmax > CURVATURE_TOL:
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
    out = np.empty_like(state)
    np.multiply(em, c, out=out[0])
    np.multiply(em, s, out=out[1])
    np.multiply(em, px * s - py * c, out=out[2])
    return out


def _rk4(f, y0, h, n, guard=None):
    """Classical RK4 for y' = f(i, c, y), sampled at the fraction c (0, 1/2
    or 1) of step i: n steps of size h (broadcasting against y) from y0.
    Returns every state, shaped (n + 1,) + y0.shape; guard, if given, sees
    each new state once."""
    out = np.empty((n + 1,) + y0.shape)
    out[0] = y = y0
    half, sixth = 0.5 * h, h / 6.0
    for i in range(n):
        k1 = f(i, 0.0, y)
        k2 = f(i, 0.5, y + half * k1)
        k3 = f(i, 0.5, y + half * k2)
        k4 = f(i, 1.0, y + h * k3)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        if guard is not None:
            guard(y)
        out[i + 1] = y
    return out


def _integrate_batch(metric, x0, y0, th0, T, dt: float):
    """RK4 over a batch to the signed horizon T, shared or one per column;
    returns (s, out): unsigned arclengths, states shaped (steps + 1, 3, n)."""
    if not 0.0 < dt <= 1e-2 + 1e-15:
        raise InvalidConfigurationError("dt must lie in (0, 1e-2]")
    n = max(int(round(float(np.max(np.abs(T))) / dt)), 1)
    h = np.asarray(T, float) / n
    state = np.stack([np.asarray(x0, float), np.asarray(y0, float),
                      np.asarray(th0, float)])
    out = _rk4(lambda i, c, y: _rhs(metric, y), state, h, n)
    return np.max(np.abs(h)) * np.arange(n + 1), out


def _batch_drift(metric, s, out):
    """Max unit-speed violation per batch member, via midpoint derivatives.

    A 2-sample trajectory has only the one-sided difference; the mean of
    its speeds at both samples is second order, like a central difference.
    """
    x, y = out[:, 0], out[:, 1]
    dx = np.gradient(x, s, axis=0)
    dy = np.gradient(y, s, axis=0)
    sp = np.exp(metric.phi(x, y)) * np.hypot(dx, dy)
    sp = sp[1:-1] if len(s) > 2 else sp.mean(axis=0, keepdims=True)
    return np.abs(sp - 1.0).max(axis=0)


def integrate_geodesic(metric: ConformalMetric, s0: GeodesicState, T: float,
                       dt: float = DEFAULT_DT) -> Trajectory:
    """Classical RK4 on the conformal geodesic equations, unit metric speed.

    Negative T integrates backward.  Unit speed holds by construction; the
    monitor checks it via finite differences of the chart positions.
    """
    if not (math.isfinite(T) and T != 0):
        raise InvalidConfigurationError(
            f"horizon T must be finite and nonzero, got {T}")
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
    sup_abs_K: float
    T: float

    @property
    def rank(self) -> str:     # "rank_one" | "rank_ge_2"
        return "rank_ge_2" if self.sup_abs_K <= RANK_TOL else "rank_one"


def rank_classify(metric: ConformalMetric, s0: GeodesicState,
                  T: float = DEFAULT_T) -> RankReport:
    """Finite-horizon rank dichotomy via curvature along the orbit.

    rank >= 2 iff sup |K| <= RANK_TOL over the sampled trajectory on [-T, T];
    the horizon is reported as part of the contract.
    """
    _, k = _two_way_curvature(metric, [s0.x], [s0.y], [s0.theta], T,
                              DEFAULT_DT)
    return RankReport(float(np.abs(k).max()), T)


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


def _riccati_along(K_vals, h):
    """Integrate u' = -K - u^2 along sampled curvature with RK4 from u = 0,
    K at the midpoint of a step being the mean of its ends.

    K_vals has shape (steps + 1, ...) and h broadcasts against one sample;
    returns u at every sample, shaped like K_vals.
    """
    K_vals = np.asarray(K_vals, float)
    mid = K_vals[:-1] + K_vals[1:]
    mid *= 0.5

    def rhs(i, c, u):
        return -(mid[i] if c == 0.5 else K_vals[i + int(c)]) - u * u

    def guard(u):
        if (np.abs(u) > RICCATI_BLOWUP).any():
            raise IntegrationError(
                "Riccati blow-up under nonpositive curvature")

    return _rk4(rhs, np.zeros(K_vals.shape[1:]), h, len(K_vals) - 1, guard)


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


# ---------------------------------------------------------------------------
# suites

@dataclass
class RankSuiteResult:
    preset: str
    n_geodesics: int
    disagreements: int
    reports: list = field(default_factory=list)


def rank_suite(preset: str, n_geodesics: int = 100, seed: int = 0,
               T: float = DEFAULT_T,
               dt: float = DEFAULT_DT) -> RankSuiteResult:
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
        rk = RankReport(float(sup_k[i]), T)
        rc = RiccatiReport(float(u_stable[i]), float(u_unstable[i]), T)
        agree = (rc.gap > GAP_TOL) == (rk.rank == "rank_one")
        reports.append((s0, rk, rc, agree))
    disagreements = sum(not r[3] for r in reports)
    return RankSuiteResult(preset, n_geodesics, disagreements, reports)


def dump_trajectory_csv(metric: ConformalMetric, s0: GeodesicState, T: float,
                        dt: float, path) -> None:
    """CSV dump (s, x, y, theta, K, u_stable, u_unstable) along the orbit.

    The rows' Riccati limits come from batches of up to DUMP_BLOCK_ROWS row
    states, each integrated forward and backward over min(10, T):
    O(min(rows, DUMP_BLOCK_ROWS) x min(10, T) / dt) memory.
    """
    traj = integrate_geodesic(metric, s0, T, dt)
    rows = slice(None, None, max(len(traj.s) // 1000, 1))
    s, x, y, th = (v[rows] for v in (traj.s, traj.x, traj.y, traj.theta))
    u_stable, u_unstable = np.empty(len(s)), np.empty(len(s))
    for i in range(0, len(s), DUMP_BLOCK_ROWS):
        b = slice(i, i + DUMP_BLOCK_ROWS)
        u_stable[b], u_unstable[b] = _riccati_limits(*_two_way_curvature(
            metric, x[b], y[b], th[b], min(10.0, T), dt, s[b]))
    cols = (s, x, y, th, traj.curvature_along()[rows], u_stable, u_unstable)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "theta", "K", "u_stable", "u_unstable"])
        w.writerows([repr(float(v)) for v in row] for row in zip(*cols))
