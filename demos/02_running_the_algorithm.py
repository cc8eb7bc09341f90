"""
Running the median lattice approximation
========================================

One full pass of the algorithm on the built-in smooth test function in one
dimension: pick a budget, let the selector fix (N, R, tau), run the R
repetitions, and compare the recovered Fourier coefficients with the known
ones.
"""

import numpy as np

from medlattice import (
    BudgetSpec,
    ProductWeights,
    SmoothnessParams,
    evaluate,
    exact_squared_error,
    load_approximation,
    run,
    save_approximation,
    select_params,
    test_function_f2,
)

problem = SmoothnessParams(alpha=2.5, dim=1)
weights = ProductWeights([1.0])
f = test_function_f2(1)

# The budget is the total number of allowed function evaluations.  The
# selector picks the largest admissible prime N, the repetition count R
# (largest odd R with R*N <= M_max), and the tuning parameter tau.
budget = BudgetSpec(M_max=2**13, delta=0.01)
sel = select_params(budget, problem, weights)
print(f"budget {budget.M_max}: N = {sel.N_max}, R = {sel.R}, "
      f"tau = {sel.tau_star:.4f}, N_star = {sel.N_star:.2f}")

params = sel.algorithm_params(master_seed=20240805)
approx = run(f.evaluate, params, problem, weights)
print(f"index set size {len(approx.index_set)}, evaluations used {approx.eval_count} "
      f"(= R*N = {sel.R * sel.N_max})")

# Each repetition estimates every coefficient from one randomly shifted
# rank-1 lattice; the median across repetitions discards the repetitions
# where random aliasing struck.  Against the known coefficients:
print("\n     h      recovered              true        |error|")
for h in sorted(approx.index_set.indices, key=lambda h: tuple(h))[:9]:
    c = approx.coefficients[h]
    t = f.coefficient(h)
    print(f"  {tuple(h)!s:>6}   {c.real:+.6f}{c.imag:+.6f}i   "
          f"{t.real:+.4f}{t.imag:+.4f}i   {abs(c - t):.2e}")

err = exact_squared_error(f, approx)
print(f"\nexact squared L2 error {err:.3e} "
      f"(coefficient error plus the tail outside the index set)")

# The approximation evaluates anywhere in [0,1).
X = np.linspace(0.0, 1.0, 9, endpoint=False).reshape(-1, 1)
print("\n    x      f(x)        approx(x)")
for x, fx, ax in zip(X[:, 0], f.evaluate(X), evaluate(approx, X)):
    print(f"  {x:.3f}  {fx:+.6f}   {ax:+.6f}")

# Runs serialize with their full provenance (seed, parameters, weights), so
# a saved file reproduces bit for bit.
import pathlib

out = pathlib.Path("out")
out.mkdir(exist_ok=True)
save_approximation(approx, out / "approx_f2_8192.csv")
again = load_approximation(out / "approx_f2_8192.csv")
print(f"\nsaved and reloaded: coefficients identical "
      f"{again.coefficients == approx.coefficients}")
