"""Exact geometry of the Poincaré disk.

Points live strictly inside the unit disk, the boundary circle is the set of
endpoints at infinity, and orientation-preserving isometries are the matrices
[[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1 acting as Möbius maps.
Everything here is a pure function of its inputs; the array-valued helpers
(suffix ``_z``) accept numpy arrays of complex numbers and broadcast.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDegeneracyError

TWO_PI = 2.0 * math.pi

INTERIOR_MARGIN = 1e-12
BOUNDARY_TOL = 1e-12
DET_TOL = 1e-9


def reduce_angle(theta):
    """Reduce an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def angle_gap(t1, t2):
    """Shortest angular distance between two angles, in [0, pi]."""
    d = np.abs(reduce_angle(t1) - reduce_angle(t2))
    return np.minimum(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# array-level core (raw complex coordinates)

def dist_z(z1, z2):
    """Hyperbolic distance between interior points of the disk."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    num = 2.0 * np.abs(z1 - z2) ** 2
    den = (1.0 - np.abs(z1) ** 2) * (1.0 - np.abs(z2) ** 2)
    return np.arccosh(1.0 + num / den)


def poisson_kernel_z(z, u):
    """Poisson kernel P(z, u) = (1-|z|^2)/|z-u|^2 for u on the circle."""
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    return (1.0 - np.abs(z) ** 2) / np.abs(z - u) ** 2


def busemann_z(p, q, xi):
    """Busemann cocycle b(p, q, xi) = ln P(p, xi) - ln P(q, xi).

    Negative when p, q, xi occur in that order along a geodesic: moving the
    second argument distance s toward xi subtracts s.
    """
    return np.log(poisson_kernel_z(p, xi)) - np.log(poisson_kernel_z(q, xi))


def mobius_apply_z(a, b, z):
    """Apply [[a,b],[conj b, conj a]] to interior points z."""
    den = np.conj(b) * z + np.conj(a)
    return (a * z + b) / den


def mobius_boundary_z(a, b, u):
    """Apply the isometry to boundary points; result is renormalized to |.|=1."""
    w = (a * u + b) / (np.conj(b) * u + np.conj(a))
    return w / np.abs(w)


def mobius_dir_z(a, b, z, theta):
    """Direction angle after applying the isometry at base point z.

    The Möbius derivative is 1/(conj(b) z + conj(a))^2, so the direction
    shifts by its argument.
    """
    den = np.conj(b) * z + np.conj(a)
    return reduce_angle(theta - 2.0 * np.angle(den))


def compose_ab(a1, b1, a2, b2):
    """Matrix product of two isometries in (a, b) coordinates."""
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def inverse_ab(a, b):
    return np.conj(a), -b


def normalize_ab(a, b):
    """Rescale to unit determinant (drift control after compositions)."""
    det = np.sqrt(np.abs(a) ** 2 - np.abs(b) ** 2)
    return a / det, b / det


def translation_ab(p):
    """Isometry taking the origin to p with no rotation at the origin."""
    p = np.asarray(p, dtype=complex)
    c = (1.0 / np.sqrt(1.0 - np.abs(p) ** 2)).astype(complex)
    if p.ndim == 0:
        return complex(c), complex(c * p)
    return c, c * p


def rotation_ab(theta):
    """Rotation about the origin by theta."""
    theta = np.asarray(theta, dtype=float)
    a = np.exp(0.5j * theta)
    if theta.ndim == 0:
        return complex(a), 0j
    return a, np.zeros_like(a)


def displacement_ab(a, b):
    """dist(o, g o) from the matrix alone: cosh(d/2) = |a|."""
    return 2.0 * np.arccosh(np.maximum(np.abs(a), 1.0))


def carrier_ab(z, theta):
    """Isometry taking the origin-based eastbound vector to (z, theta)."""
    ta, tb = translation_ab(z)
    ra, rb = rotation_ab(theta)
    return compose_ab(ta, tb, ra, rb)


def pair_carrier_ab(xi, eta):
    """Carrier of the geodesic from boundary point eta to xi.

    The result (a, b) takes -1 to eta and +1 to xi, and the origin to the
    geodesic's point nearest o, which sits at Euclidean radius
    tan(pi/4 - |phi|/2) on the bisector of the pair, phi being the signed
    half-gap from that bisector to xi.
    """
    m = xi + eta
    deg = np.abs(m) < 1e-12
    delta = np.where(deg, np.angle(xi) - 0.5 * math.pi, np.angle(m))
    phi = np.angle(xi * np.exp(-1j * delta))          # signed half-gap
    r_c = np.tan(0.25 * math.pi - 0.5 * np.abs(phi))
    return carrier_ab(r_c * np.exp(1j * delta),
                      delta + np.sign(phi) * 0.5 * math.pi)


def advance_ab(a, b, s):
    """The carrier (a, b) moved along its geodesic by arclength s.

    (a, b) carries the real diameter, u -> tanh(u/2), to a geodesic; the
    result carries u to the point the old carrier gives at u + s.
    """
    h = 0.5 * np.asarray(s, float)
    return normalize_ab(*compose_ab(a, b, np.cosh(h) + 0j, np.sinh(h) + 0j))


def boundary_toward_z(p, q):
    """Boundary point hit by the geodesic ray from p through q."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    w = (q - p) / (1.0 - np.conj(p) * q)  # q seen from p moved to the origin
    u0 = w / np.abs(w)
    out = (u0 + p) / (1.0 + np.conj(p) * u0)
    return out / np.abs(out)


def direction_toward_z(z, u):
    """Initial direction angle at z of the geodesic ray toward boundary u.

    Moves z to the origin by the standard translation and reads the image
    direction of u; vectorized.
    """
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    return reduce_angle(np.angle((u - z) / (1.0 - np.conj(z) * u)))


def geodesic_foot_z(a, b, c):
    """Foot parameters of a point c relative to the geodesic carried by (a, b).

    The isometry (a, b) maps the real diameter (-1, 1), parameterized by
    arclength s -> tanh(s/2), onto the geodesic. Returns (s_foot, d) where
    s_foot is the arclength parameter of the nearest point and d >= 0 the
    distance from c to the geodesic.
    """
    ai, bi = inverse_ab(np.asarray(a, complex), np.asarray(b, complex))
    w = mobius_apply_z(ai, bi, np.asarray(c, complex))
    # distance to the real diameter: sinh(d) = 2 Im w / (1 - |w|^2)
    sh = 2.0 * w.imag / (1.0 - np.abs(w) ** 2)
    d = np.arcsinh(np.abs(sh))
    # foot: the real-axis projection in the hyperbolic sense.  On the
    # diameter, parametrized by x = tanh(s/2), the nearest point to w is
    # x = (1+|w|^2 - sqrt((1+|w|^2)^2-4 Re(w)^2))/(2 Re w)
    re = w.real
    t = 1.0 + np.abs(w) ** 2
    disc = np.sqrt(np.maximum(t * t - 4.0 * re * re, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(np.abs(re) < 1e-300, 0.0, (t - disc) / (2.0 * np.where(re == 0, 1.0, re)))
    s = 2.0 * np.arctanh(np.clip(x, -1.0 + 1e-300, 1.0 - 1e-300))
    return s, d


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class DiskPoint:
    """Interior point of the Poincaré disk."""

    z: complex

    def __post_init__(self):
        if abs(self.z) >= 1.0 - INTERIOR_MARGIN:
            raise ValueError(f"point not strictly inside the disk: |z| = {abs(self.z)!r}")


ORIGIN = DiskPoint(0j)


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the boundary circle, stored as a unit complex number."""

    u: complex

    def __post_init__(self):
        if abs(abs(self.u) - 1.0) >= BOUNDARY_TOL:
            raise ValueError(f"not on the unit circle: |u| = {abs(self.u)!r}")

    @classmethod
    def from_angle(cls, theta):
        return cls(cmath.exp(1j * theta))

    @property
    def angle(self):
        return reduce_angle(cmath.phase(self.u))


@dataclass(frozen=True)
class Isometry:
    """Orientation-preserving disk isometry [[a, b], [conj b, conj a]]."""

    a: complex
    b: complex

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if abs(det - 1.0) > 1e-6:
            raise ValueError(f"determinant {det!r} too far from 1")
        if abs(det - 1.0) > DET_TOL:
            a, b = normalize_ab(self.a, self.b)
            object.__setattr__(self, "a", complex(a))
            object.__setattr__(self, "b", complex(b))

    @classmethod
    def identity(cls):
        return cls(1 + 0j, 0j)

    @classmethod
    def rotation(cls, theta):
        return cls(*rotation_ab(theta))

    def compose(self, other: "Isometry") -> "Isometry":
        a, b = compose_ab(self.a, self.b, other.a, other.b)
        a, b = normalize_ab(a, b)
        return Isometry(complex(a), complex(b))

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Isometry":
        return Isometry(*inverse_ab(self.a, self.b))

    @property
    def trace(self) -> float:
        return 2.0 * self.a.real

    def displacement(self) -> float:
        return float(displacement_ab(self.a, self.b))


@dataclass(frozen=True)
class PhasePoint:
    """Unit tangent vector: base point plus direction angle in [0, 2*pi)."""

    base: DiskPoint
    dir: float

    def __post_init__(self):
        object.__setattr__(self, "dir", float(reduce_angle(self.dir)))


# ---------------------------------------------------------------------------
# operations

def apply(g: Isometry, p: DiskPoint) -> DiskPoint:
    """Möbius action of g on an interior point."""
    den = np.conj(g.b) * p.z + np.conj(g.a)
    if abs(den) < 1e-15:
        raise NumericDegeneracyError("Möbius denominator vanished")
    return DiskPoint((g.a * p.z + g.b) / den)


def apply_phase(g: Isometry, v: PhasePoint) -> PhasePoint:
    """Action on unit tangent vectors (direction via the Möbius derivative)."""
    base = apply(g, v.base)
    d = mobius_dir_z(g.a, g.b, v.base.z, v.dir)
    return PhasePoint(base, float(d))


def dist(p: DiskPoint, q: DiskPoint) -> float:
    return float(dist_z(p.z, q.z))


def busemann(p: DiskPoint, q: DiskPoint, xi: BoundaryPoint) -> float:
    """Busemann cocycle; see :func:`busemann_z` for the sign convention."""
    return float(busemann_z(p.z, q.z, xi.u))


def carrier(v: PhasePoint) -> Isometry:
    """Isometry mapping the eastbound vector at the origin to v."""
    a, b = carrier_ab(v.base.z, v.dir)
    return Isometry(complex(a), complex(b))


def flow(v: PhasePoint, t: float) -> PhasePoint:
    """Geodesic flow for time t, in closed form via conjugation to the origin."""
    g = carrier(v)
    z0 = math.tanh(0.5 * t)
    return apply_phase(g, PhasePoint(DiskPoint(complex(z0)), 0.0))


def endpoints(v: PhasePoint):
    """Forward and backward endpoints (v_inf, v_minus_inf) on the circle."""
    g = carrier(v)
    xi = mobius_boundary_z(g.a, g.b, 1.0 + 0j)
    eta = mobius_boundary_z(g.a, g.b, -1.0 + 0j)
    return BoundaryPoint(complex(xi)), BoundaryPoint(complex(eta))


def axis_endpoints_ab(a, b):
    """Boundary fixed points of a hyperbolic isometry, attracting first.

    Vectorized: a, b may be arrays. Returns (attracting, repelling) as unit
    complex arrays.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    im = a.imag
    s = np.sqrt(np.abs(b) ** 2 - im ** 2)
    z1 = (1j * im + s) / np.conj(b)
    z2 = (1j * im - s) / np.conj(b)
    z1 = z1 / np.abs(z1)
    z2 = z2 / np.abs(z2)
    # attracting fixed point: |f'| = 1/|conj(b) z + conj(a)|^2 < 1
    d1 = np.abs(np.conj(b) * z1 + np.conj(a))
    att = np.where(d1 > 1.0, z1, z2)
    rep = np.where(d1 > 1.0, z2, z1)
    return att, rep
