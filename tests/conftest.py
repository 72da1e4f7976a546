import numpy as np
import pytest

from geodlab import fuchsian as fu
from geodlab import hypgeom as hg


class DirichletNeighbours:
    """Every g != 1 whose bisector can meet F, found from the orbit ball.

    A point p of F and of a translate g F has d(o, p) and d(g o, p) at most
    the circumradius r_c, so d(o, g o) <= 2 r_c; the ball reaches 0.2
    beyond that.  Built here from the ball alone, so membership, clip and
    reduction checks do not rest on the domain's own sides.
    """

    def __init__(self, surface):
        ball = fu.enumerate_ball(surface, 2.0 * fu.CIRCUMRADIUS + 0.2)
        sel = np.nonzero(ball.inside & (ball.disp > 1e-9))[0]
        self.a, self.b = hg.normalize_ab(ball.a[sel], ball.b[sel])

    def contains_z(self, z, tol):
        """Dirichlet membership: d(g z, o) >= d(z, o) - tol for every g,
        read as |g z| >= tanh((d(z, o) - tol) / 2)."""
        z = np.atleast_1d(np.asarray(z, complex))
        r_min = np.tanh(0.5 * (hg.dist_z(z, 0j) - tol))
        ok = np.ones(len(z), dtype=bool)
        for a, b in zip(self.a, self.b):
            ok &= np.abs(hg.mobius_apply_z(a, b, z)) >= r_min
        return ok

    def quotient_dist_z(self, z1, z2):
        """Elementwise min of d(z1, g z2) over the identity and every g: the
        quotient distance for points of (the closure of) F."""
        z1 = np.atleast_1d(np.asarray(z1, complex))
        z2 = np.atleast_1d(np.asarray(z2, complex))
        best = hg.dist_z(z1, z2)
        for a, b in zip(self.a, self.b):
            best = np.minimum(best, hg.dist_z(z1, hg.mobius_apply_z(a, b, z2)))
        return best


@pytest.fixture(scope="session")
def neighbours():
    return DirichletNeighbours(fu.bolza())
