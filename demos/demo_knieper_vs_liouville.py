"""Knieper's boundary-pair construction against the Liouville oracle.

In constant curvature the measure of maximal entropy coincides with
normalized Liouville measure, so the boundary-pair Monte Carlo (atoms from
the Patterson-Sullivan proxy, geodesics clipped to the fundamental
domain) can be checked box by box against a closed-form oracle.

Run: python3 demos/demo_knieper_vs_liouville.py   (a few seconds)
"""

import math

import numpy as np

from geodlab import density as de
from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab import mme
from geodlab.quotient import FundamentalDomain


def main():
    bolza = fu.bolza()
    domain = FundamentalDomain(bolza)

    area = mme.domain_area(domain, 400_000, seed=0)
    print(f"fundamental domain area: {area.value:.4f} +- "
          f"{area.std_error:.4f}  (Gauss-Bonnet: 4 pi = "
          f"{4 * math.pi:.4f})\n")

    print("building the orbit-shell Patterson-Sullivan proxy (R = 12, "
          "shell 9 < d <= 12) ...")
    ball = fu.enumerate_ball(bolza, 12.0)
    density = de.ps_density(bolza, hg.ORIGIN, 1.05, 12.0, ball=ball,
                            R_min=9.0)
    print(f"  {len(density.atom_u)} boundary atoms\n")

    rng = np.random.default_rng(7)
    print("box-by-box comparison (3 random boxes, 2x10^5 pairs each):")
    for k in range(3):
        box = mme.random_box(domain, rng)
        liv = mme.liouville_measure(domain, box, 400_000, seed=50 + k)
        kn = mme.knieper_measure(bolza, domain, box, density,
                                 n_samples=200_000, seed=60 + k,
                                 norm_samples=100_000)
        rel = kn.value / liv.value - 1.0
        print(f"  box {k}: knieper {kn.value:.5f} +- {kn.std_error:.5f}   "
              f"liouville {liv.value:.5f}   rel dev {100 * rel:+.1f}%")

    print("\nflow invariance (same box, measured through g^1):")
    box = mme.random_box(domain, rng)
    k0 = mme.knieper_measure(bolza, domain, box, density,
                             n_samples=60_000, seed=70, norm_samples=100_000)
    k1 = mme.knieper_measure(bolza, domain, box, density,
                             n_samples=60_000, seed=70, norm_samples=100_000,
                             flow_t=1.0)
    print(f"  m(B) = {k0.value:.5f} +- {k0.std_error:.5f}   "
          f"m(g^1 B) = {k1.value:.5f} +- {k1.std_error:.5f}")


if __name__ == "__main__":
    main()
