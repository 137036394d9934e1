"""Validate the sampled search against the exact enumeration oracle.

On pools small enough to enumerate every possible draw, the oracle maximizes
the exact polynomial objective directly. The ratio (search value / oracle
value) measures how much the Monte Carlo gradient noise costs; sweeping the
per-iteration sample count shows the ratio climbing toward 1.

Run 01_synthetic_cohort.py first to create demos/output/{cohort,model}.json.
"""

from pathlib import Path

import numpy as np

from allocshift import (FwParams, MisclassRate, UncertaintyBudget, load_cohort,
                        load_predictor, oracle_ratio_curve, write_curve_csv)

OUT = Path(__file__).parent / "output"
cohort = load_cohort(str(OUT / "cohort.json"))
model = load_predictor(str(OUT / "model.json"))

grid = [10, 50, 250, 1000]
budget = UncertaintyBudget(rho_ind=4.0, rho_xi=0.0)
params = FwParams(iterations=15, num_samples2=2000, draw_size=5, seed=0)
curve = oracle_ratio_curve(cohort, model, MisclassRate(), budget, grid,
                           params=params, oracle_restarts=10)

print("gradient samples per iteration -> search/oracle ratio")
for g, col in zip(curve.grid, curve.ratios.T):
    print(f"  {g:>5d}: mean {col.mean():.4f}  per-pool {np.round(col, 3)}")

curve_path = OUT / "ratio_curve.csv"
write_curve_csv(curve, str(curve_path))
print(f"wrote {curve_path}")
