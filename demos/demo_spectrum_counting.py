"""Length spectrum of the Bolza surface and the orbit-counting laws.

Builds the spectrum of closed geodesics up to length 9, prints the systole
and its multiplicity, and compares the cumulative and window counts against
the e^{ht}/(ht) and 2 eps e^{ht}/t laws.

Run: python3 demos/demo_spectrum_counting.py
"""

import math

from geodlab import dynlab as dl
from geodlab import fuchsian as fu


def main():
    bolza = fu.bolza()
    print("Bolza surface: genus 2, curvature -1, entropy h = "
          f"{bolza.entropy_h}")
    expected = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
    print(f"systole (closed form 2 acosh(1 + sqrt 2)) = {expected:.6f}\n")

    print("building the length spectrum to R = 9 ...")
    table = fu.build_spectrum(bolza, 9.0)
    mult = table.count_P(table.systole() + 1e-9)
    print(f"  {len(table.classes)} oriented classes; systole "
          f"{table.systole():.6f} with multiplicity {mult}\n")

    rep = dl.counting_suite(table, [6.0, 7.0, 8.0, 8.5], 0.5)
    print("cumulative law   P_t  vs  e^{ht}/(ht)")
    for row in rep.cumulative:
        print(f"  t = {row.t:4.1f}:  {row.observed:8.0f}  vs "
              f"{row.predicted:10.1f}   ratio {row.ratio:.3f}")
    print("\nwindow law   P_{t,eps}  vs  2 eps e^{ht}/t   (eps = 0.5)")
    for row in rep.window:
        print(f"  t = {row.t:4.1f}:  {row.observed:8.0f}  vs "
              f"{row.predicted:10.1f}   ratio {row.ratio:.3f}")
    print(f"\nempirical growth rate of ln(t P_t): {rep.empirical_slope:.3f} "
          f"(entropy says {bolza.entropy_h})")


if __name__ == "__main__":
    main()
