"""
Hyperbolic cross index sets and their cardinality bounds
========================================================

The approximation lives on a finite frequency set: all h with
prod_{h_j != 0} |h_j| * gamma_j^(-1/(2 alpha)) <= L.  This script grows L,
prints the exact cardinalities next to the three analytic upper bounds,
and round-trips a set through its CSV form.
"""

import pathlib

import numpy as np

from medlattice import (
    ProductWeights,
    SmoothnessParams,
    bound_basic,
    bound_min_q,
    bound_refined,
    enumerate_hyperbolic_cross,
)
from medlattice.index_set import read_indices_csv, write_indices_csv

params = SmoothnessParams(alpha=1.5, dim=2)
weights = ProductWeights([1.0, 0.7])

# A tiny set first.  At L = 1 a unit step in coordinate j costs
# gamma_j^(-1/(2 alpha)); with gamma_2 = 0.7 that is already above 1, so
# only the origin and the first-axis unit vectors survive.
small = enumerate_hyperbolic_cross(1.0, params, weights)
print(f"L = 1: {len(small)} indices")
for h in small.H.tolist():
    print("   ", tuple(h))

# Cardinality always comes out odd: the set is symmetric under h -> -h and
# contains the origin.
print("\n     L     |A|   basic(tau=1)   min_q        refined")
for L in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
    cross = enumerate_hyperbolic_cross(L, params, weights)
    basic = bound_basic(L, 1.0, params, weights)
    minq = bound_min_q(L, params, weights, q_grid=[1.1, 1.5, 2.0, 3.0])
    refined = bound_refined(L, params, weights) if L >= 2.0 else float("nan")
    print(f"{L:6.1f}  {len(cross):5d}   {basic:12.1f}   {minq:9.1f}   {refined:9.1f}")

# The min-over-q bound is usually the tightest of the three at moderate L;
# the refined variant replaces the zeta function by a partial sum and wins
# once L is large enough for the tail to matter.

# An index set is one (|A|, d) int64 array, cross.H, one frequency per row
# in lexicographic order.  It serializes to a plain CSV (columns h_1..h_d)
# and reads back as the same array.
out = pathlib.Path("out")
out.mkdir(exist_ok=True)
path = out / "cross_L8.csv"
cross = enumerate_hyperbolic_cross(8.0, params, weights)
write_indices_csv(cross, path)
again = read_indices_csv(path)
print(f"\nwrote {path} ({len(again)} indices), round-trip equal: {np.array_equal(cross.H, again)}")
