"""Directional growth of lattice-path counts: empirical vs analytic.

Builds the two-branch unit-square data X = {(1,0),(0,1)}, sweeps nine
directions through its cone and compares the growth rate of the dual
formula (``growth.gamma``) with the slope fitted from exact path counts.  Writes growth_sweep.csv
next to this script.
"""
import math
import os

from froblip import build_multiplicity, estimate_gamma, gamma, make_defining_data
from froblip.serialize import sweep_csv_lines

VECTORS = ((1, 0), (0, 1))


def main():
    data = make_defining_data(VECTORS)
    table = build_multiplicity(data, 95)
    rows = []
    for i in range(9):
        a = math.pi / 36 + (math.pi / 2 - math.pi / 18) * i / 8
        theta = (math.cos(a), math.sin(a))
        ga = gamma(data, theta)
        est = estimate_gamma(data, theta, k_max=120.0, table=table)
        rows.append({"theta": theta, "gamma_analytic": ga,
                     "gamma_empirical": est.gamma_hat,
                     "stderr": est.stderr})
        print(f"theta = ({theta[0]:.4f}, {theta[1]:.4f})  "
              f"analytic = {ga:.4f}  empirical = {est.gamma_hat:.4f}")
    peak = max(rows, key=lambda r: r["gamma_analytic"])
    print(f"\npeak analytic value {peak['gamma_analytic']:.4f} "
          f"(expected sqrt(2) log 2 = {math.sqrt(2) * math.log(2):.4f})")
    out = os.path.join(os.path.dirname(__file__), "growth_sweep.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(sweep_csv_lines(rows, 2)) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
