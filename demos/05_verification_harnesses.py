"""
Monte-Carlo verification of the probabilistic error analysis
============================================================

The error analysis makes two falsifiable claims about a single run: a
single randomized estimate of any coefficient exceeds its error functional
epsilon(h)^2 with probability at most (1+tau)/(1+tau log N_star), and the
R-fold median exceeds 2 epsilon(h)^2 with probability at most
(4 (1+tau)/(1+tau log N_star))^ceil(R/2).  Both harnesses here measure
those frequencies directly.
"""

import dataclasses
import math

from medlattice import (
    BudgetSpec,
    ProductWeights,
    SmoothnessParams,
    select_params,
    test_function_f2,
    verify_concentration,
    verify_median_amplification,
)

problem = SmoothnessParams(alpha=2.5, dim=1)
weights = ProductWeights([1.0])
f = test_function_f2(1)

# The bound is only informative when N_star is comfortably above e; in one
# dimension a 2^12 budget already suffices.
sel = select_params(BudgetSpec(2**12, 0.01), problem, weights)
params = sel.algorithm_params(master_seed=42)
print(f"N = {sel.N_max}, tau = {sel.tau_star:.4f}, N_star = {sel.N_star:.2f}")

# 2000 independent single estimates per probe frequency.  The default probe
# set is the zero mode plus the smallest nonzero frequencies.
report = verify_concentration(f, params, problem, weights, trials=2000)
print("\nsingle-estimate exceedance of epsilon(h)^2:")
for p in report:
    sigma = math.sqrt(p.bound * (1 - p.bound) / p.trials)
    print(f"  h = {tuple(p.h)!s:>6}  epsilon = {p.epsilon:.3e}  "
          f"measured {p.failures}/{p.trials}  bound {p.bound:.4f} (+3 sigma {3*sigma:.4f})")

# The median amplifies: exceedance of 2 epsilon(h)^2 should fall (here it
# is already unobservably rare at R = 1, so the rates just stay at zero;
# the analytic amplified bound only dips below one for much larger N_star).
print("\nR-fold median exceedance of 2 epsilon(h)^2:")
for R in (1, 3, 5):
    params_R = dataclasses.replace(params, R=R)
    rep = verify_median_amplification(f, params_R, problem, weights, trials=200)
    rates = ", ".join(f"{p.rate:.3f}" for p in rep)
    bounds = ", ".join(f"{p.bound:.3g}" for p in rep)
    print(f"  R = {R}: rates [{rates}]  amplified bounds [{bounds}]")

# A vacuous regime announces itself: squeeze the budget until the radius
# N_star drops under e, and the bound exceeds one with every probe flagged.
small = select_params(BudgetSpec(900, 0.01), problem, weights)
params_small = small.algorithm_params(master_seed=42)
rep = verify_concentration(f, params_small, problem, weights, trials=50)
print(f"\nat N = {small.N_max} (N_star = {small.N_star:.2f}): "
      f"bound = {next(iter(rep)).bound:.2f}, "
      f"all probes flagged vacuous: {all(p.vacuous for p in rep)}")
