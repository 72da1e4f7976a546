"""Dirichlet fundamental domain and reduction to the quotient surface.

The fundamental domain F is the Dirichlet domain centered at the disk
origin: points at least as close to the origin as to any orbit translate.
It is a convex polygon cut out by its sides, so a geodesic meets it in one
segment, which `FundamentalDomain.clip` gives in closed form.  Geodesics
come as carriers (a, b), the isometries taking the real diameter onto them;
a boundary pair (xi, eta) gets its carrier from `hypgeom.pair_carrier_ab`.
Membership is one division-free bisector test: the excess e of each
Dirichlet neighbour over the origin, in blocks of points.  Reduction is
greedy descent over the side-pairing generators, which ends in F because F
is cut out by its sides (the proof is at `FundamentalDomain.reduce_z`).
Along a geodesic, `FundamentalDomain.tile_segments` reduces one point per
translate of F and splits the geodesic into exact pieces, each carried
into F.
"""

from __future__ import annotations

import numpy as np

from . import fuchsian as fu
from . import hypgeom as hg
from .errors import ReductionFailureError

DESCENT_BUDGET = 10_000
DESCENT_EPS = 1e-13     # relative decrease required to count as progress
MEMBERSHIP_TOL = 1e-9
TILE_PROBE = 1e-6       # arclength past a piece start that picks its tile
SIDE_EDGE_TOL = 1e-9    # Klein-model edge length below which a bisector
                        # only touches F at a vertex
MEMBER_MARGIN = 1e-6    # distance margin of the membership screen
MEMBER_BLOCK = 4096     # points per block of the bisector test
TEST_SET_PAD = 0.2      # test-set radius beyond the domain diameter


class FundamentalDomain:
    """Dirichlet domain of a surface group, centered at the origin.

    F is the convex polygon cut out by its sides: for each side element g
    the half-plane of points at least as close to o as to g^{-1} o.  The
    sides are the test-set elements whose bisector carries an edge of F of
    positive length (Beardon, The Geometry of Discrete Groups, 9.4); for
    the Bolza surface they are the 8 generator letters.
    """

    def __init__(self, surface: fu.SurfaceModel):
        self.surface = surface
        # the bisector of gamma meets F only if displacement(gamma) is at
        # most the domain diameter, so this test set is already complete
        ball = fu.enumerate_ball(surface,
                                 surface.domain_diameter + TEST_SET_PAD)
        sel = np.nonzero(ball.inside & (ball.disp > 1e-9))[0]
        a, b = hg.normalize_ab(ball.a[sel], ball.b[sel])
        self.test_a = a
        self.test_b = b
        # hyperboloid point (c + 1, q) of each neighbour centre g^{-1} o, with
        # the space part q as a complex number; F lies in the half-space
        # x0 c - Re(x conj q) >= 0 of every test element
        c = np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0
        q = -2.0 * b * np.conj(a)
        side = _edge_lengths(c, q) > SIDE_EDGE_TOL
        self.side_a = a[side]
        self.side_b = b[side]
        self._side_c = c[side]
        self._side_q = q[side]
        # membership screen rows (2 Re q, 2 Im q | c), sides and test set
        rows = np.stack([2.0 * q.real, 2.0 * q.imag, c], axis=1)
        self._member_rows = {False: rows[side], True: rows}

    # -- membership -------------------------------------------------------

    def contains_z(self, z, tol=MEMBERSHIP_TOL, *, full=False):
        """Vectorized Dirichlet membership: no translate is closer to o.

        dist(gamma z, o) >= dist(z, o) - tol for every side element, whose
        half-planes cut out F (or for the whole test set when full=True,
        the reference the sides are checked against).  A screen on the
        largest bisector excess e of `_bisector_excess` decides almost every
        point: as sinh <= cosh, e < -2 m u for every element puts z inside,
        e > (tol + m) u for one outside, each by a distance margin
        m = MEMBER_MARGIN.  The distance test decides the rest and points
        with 1 - |z|^2 < m, so the result is always the distance test's.
        """
        z = np.atleast_1d(np.asarray(z, complex))
        ok, unsure = np.empty((2, len(z)), dtype=bool)
        for blk, worst, u in self._bisector_excess(z, full):
            ok[blk] = worst < -2.0 * MEMBER_MARGIN * u
            unsure[blk] = ~((ok[blk] | (worst > (tol + MEMBER_MARGIN) * u))
                            & (u < 2.0 - MEMBER_MARGIN))
        zu = z[unsure]
        d0 = hg.dist_z(zu, 0j)
        exact = np.ones(len(zu), dtype=bool)
        ta = self.test_a if full else self.side_a
        tb = self.test_b if full else self.side_b
        for a, b in zip(ta, tb):
            w = hg.mobius_apply_z(a, b, zu)
            exact &= hg.dist_z(w, 0j) >= d0 - tol
        ok[unsure] = exact
        return ok

    def _bisector_excess(self, z, full):
        """Per block of MEMBER_BLOCK points of z: (slice, max e, u).

        u = 1 + |z|^2, and e = 2 Re(z conj q) - c u is the excess of one
        element gamma, (1 - |z|^2) (cosh d(z, o) - cosh d(gamma z, o)),
        maximized over the sides (or the whole test set when full=True).
        """
        rows = self._member_rows[full]
        zv = np.ascontiguousarray(z).view(float).reshape(-1, 2)
        for k in range(0, len(z), MEMBER_BLOCK):
            zk = zv[k:k + MEMBER_BLOCK]
            u = 1.0 + np.einsum("ij,ij->i", zk, zk)
            yield (slice(k, k + MEMBER_BLOCK),
                   (rows[:, :2] @ zk.T - rows[:, 2:] * u).max(axis=0), u)

    def clip(self, ca, cb):
        """Exact F-segment of each carried geodesic: (s_lo, s_hi) arrays.

        The isometry (ca, cb) carries the real diameter, s -> tanh(s/2), to
        the geodesic; on the hyperboloid that is x(s) = cosh s P + sinh s V.
        Each side's half-space reads alpha cosh s + beta sinh s >= 0, a
        bound on tanh s, and F being convex the segment is the intersection
        of the bounds.  A side whose line carries the geodesic (alpha and
        beta both within MEMBERSHIP_TOL of 0) bounds nothing.  A geodesic that
        misses F gets s_lo = s_hi = 0.
        """
        ca = np.asarray(ca, complex)[:, None]
        cb = np.asarray(cb, complex)[:, None]
        # P = (p0, p) and V = (v0, v), space parts as complex numbers
        p0 = np.abs(ca) ** 2 + np.abs(cb) ** 2
        p = 2.0 * ca * cb
        v0 = 2.0 * (ca * np.conj(cb)).real
        v = ca * ca + cb * cb
        alpha = p0 * self._side_c - (p * np.conj(self._side_q)).real
        beta = v0 * self._side_c - (v * np.conj(self._side_q)).real
        along = ((np.abs(alpha) < MEMBERSHIP_TOL)
                 & (np.abs(beta) < MEMBERSHIP_TOL))
        alpha = np.where(along, 1.0, alpha)
        beta = np.where(along, 0.0, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = -alpha / beta
        t_lo = np.max(np.where(beta > 0, root, -1.0), axis=1)
        t_hi = np.min(np.where(beta < 0, root, 1.0), axis=1)
        empty = (t_lo >= t_hi) | ((beta == 0) & (alpha < 0)).any(axis=1)
        # only a miss can leave a bound at +-1: zero it before arctanh
        s_lo = np.arctanh(np.where(empty, 0.0, t_lo))
        s_hi = np.arctanh(np.where(empty, 0.0, t_hi))
        return s_lo, s_hi

    def tile_segments(self, ca, cb, s0, s1):
        """Split each carried geodesic's range into its pieces in tiles of F.

        Geodesic i, carried by (ca[i], cb[i]), is walked over [s0[i], s1[i]].
        Returns pieces (owner, a, b, length): piece k is the arc [0, length[k]]
        of the carrier (a[k], b[k]), which takes it into F, and is the next
        stretch of geodesic owner[k]; a geodesic's pieces come in order and
        their lengths add up to s1 - s0.

        Each round, vectorized over the geodesics still walking, reduces one
        probe just past the current start with `reduce_z`, composes that
        isometry onto the carrier and clips the result: the piece runs to the
        clip's upper end.  Carriers are re-based at every piece start, so the
        local parameters stay small.  Progress rule: if the clip is empty or
        misses the probe (a geodesic touching F only at a vertex), the piece
        covers the probe's step alone.
        """
        ca, cb = hg.advance_ab(np.asarray(ca, complex),
                               np.asarray(cb, complex), s0)
        left = np.asarray(s1, float) - s0
        owner = np.nonzero(left > 0)[0]
        ca, cb, left = ca[owner], cb[owner], left[owner]
        pieces = [(owner[:0], ca[:0], cb[:0], left[:0])]
        while len(owner):
            step = np.minimum(TILE_PROBE, left)
            probe = hg.mobius_apply_z(ca, cb, np.tanh(0.25 * step) + 0j)
            _, ga, gb = self.reduce_z(probe)
            na, nb = hg.normalize_ab(*hg.compose_ab(ga, gb, ca, cb))
            s_lo, s_hi = self.clip(na, nb)
            hit = (s_lo <= 0.5 * step) & (0.5 * step <= s_hi)
            length = np.where(hit, np.minimum(s_hi, left), step)
            pieces.append((owner, na, nb, length))
            ca, cb = hg.advance_ab(na, nb, length)
            left = left - length
            go = left > 0
            owner, ca, cb, left = owner[go], ca[go], cb[go], left[go]
        return tuple(np.concatenate(col) for col in zip(*pieces))

    def quotient_dist_z(self, z1, z2):
        """Elementwise quotient distance between points of F.

        Minimum of dist(z1, g z2) over the identity and the test set; exact
        for pairs of points in (the closure of) F, where the minimizing
        translate is always a Dirichlet neighbor.
        """
        z1 = np.atleast_1d(np.asarray(z1, complex))
        z2 = np.atleast_1d(np.asarray(z2, complex))
        best = hg.dist_z(z1, z2)
        for a, b in zip(self.test_a, self.test_b):
            best = np.minimum(best, hg.dist_z(z1, hg.mobius_apply_z(a, b, z2)))
        return best

    # -- reduction --------------------------------------------------------

    def reduce_z(self, z):
        """Reduce an array of points to F; returns (z_red, a_acc, b_acc).

        The accumulated isometry satisfies mobius(a_acc, b_acc, z) = z_red.
        Greedy descent: each round moves every point by the generator letter
        that brings it closest to o, if that gains more than the threshold
        tau = DESCENT_EPS d0 + 1e-15 in distance, d0 = d(z, o).

        Descent over the letters alone ends in F.  F is cut out by the
        half-planes of its sides, which are the 8 letters.  A point outside
        F violates some side g, d(g z, o) < d(z, o), so that letter brings
        it strictly closer to o.  The orbit of z is discrete, so descent
        stops, at a point that violates no side by more than tau.  Relaxed
        by tau, a side's half-plane reaches tau / (2 sin phi) beyond it, phi
        the angle at which the ray from o crosses the side: phi falls from
        pi/2 at the side's midpoint to pi/8 at a vertex, where that ray
        bisects the interior angle pi/4, and two relaxed sides meet
        1 / sin(pi/8) times as far beyond their vertex.  So the result is
        less than tau / (2 sin^2(pi/8)) ~ 3.4 tau (< 1e-12) from F, the
        worst case just past a vertex, and no element of the group brings
        it closer to o by more than twice that.
        """
        z = np.atleast_1d(np.asarray(z, complex))
        acc_a = np.ones(len(z), dtype=complex)
        acc_b = np.zeros(len(z), dtype=complex)
        cur = z.copy()
        ga, gb = self.surface.gen_a, self.surface.gen_b

        for _round in range(DESCENT_BUDGET):
            d0 = hg.dist_z(cur, 0j)
            imgs = hg.mobius_apply_z(ga[None, :], gb[None, :], cur[:, None])
            dists = hg.dist_z(imgs, 0j)
            best = np.argmin(dists, axis=1)
            bestd = dists[np.arange(len(cur)), best]
            move = bestd < d0 * (1.0 - DESCENT_EPS) - 1e-15
            if not move.any():
                return cur, acc_a, acc_b
            bl = best[move]
            na, nb = hg.compose_ab(ga[bl], gb[bl], acc_a[move], acc_b[move])
            acc_a[move], acc_b[move] = hg.normalize_ab(na, nb)
            cur[move] = imgs[np.nonzero(move)[0], bl]
        raise ReductionFailureError("descent budget exhausted")

    def reduce_phase(self, v: hg.PhasePoint):
        """Reduce a phase point; returns (reduced PhasePoint, Isometry g)
        with apply_phase(g, v) equal to the reduced point."""
        zr, a, b = self.reduce_z(np.array([v.base.z]))
        g = hg.Isometry(complex(a[0]), complex(b[0]))
        return hg.apply_phase(g, v), g

    def reduce_phase_z(self, z, theta):
        """Vectorized phase reduction: arrays z, theta -> (z_red, theta_red)."""
        zr, a, b = self.reduce_z(z)
        tr = hg.mobius_dir_z(a, b, np.asarray(z, complex), np.asarray(theta, float))
        return zr, tr


def _edge_lengths(c, q):
    """Klein-model length of the edge each half-plane contributes to F.

    In the Klein model F is the Euclidean convex polygon of k with
    Re(k conj q_j) <= c_j.  Line j is clipped to the unit disk and to
    every other half-plane; a bisector that only touches a vertex of F gets
    a length of zero up to rounding, possibly negative.
    """
    qn = np.abs(q)
    foot = c / qn * (q / qn)                   # nearest point of line j to o
    u = 1j * q / qn                            # unit direction of line j
    half = np.sqrt(1.0 - np.abs(foot) ** 2)
    # k = foot_j + t u_j meets half-plane i where t * du_ji <= room_ji
    du = (u[:, None] * np.conj(q[None, :])).real
    room = c[None, :] - (foot[:, None] * np.conj(q[None, :])).real
    np.fill_diagonal(du, 0.0)
    np.fill_diagonal(room, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = room / du
    t_hi = np.minimum(np.min(np.where(du > 0, t, np.inf), axis=1), half)
    t_lo = np.maximum(np.max(np.where(du < 0, t, -np.inf), axis=1), -half)
    parallel_out = ((du == 0) & (room < 0)).any(axis=1)
    return np.where(parallel_out, -np.inf, t_hi - t_lo)
