"""Cross-metric evaluation: is one metric's worst case bad for the others?

For each metric, find its worst-case shift, then evaluate every shift under
every metric. Row i, column j of the matrix is the expected loss of metric j
under the shift found for metric i. After normalizing each column by its
diagonal, an off-diagonal well below 1 means the attack does not transfer:
the worst case is genuinely metric-specific.

Run 01_synthetic_cohort.py first to create demos/output/{cohort,model}.json.
"""

from pathlib import Path

from allocshift import (CrossEntropy, FwParams, MisclassRate, TopK,
                        UncertaintyBudget, cross_metric_matrix,
                        diagonal_normalize, load_cohort, load_predictor,
                        render_heatmap, write_matrix_csv)

OUT = Path(__file__).parent / "output"
cohort = load_cohort(str(OUT / "cohort.json"))
model = load_predictor(str(OUT / "model.json"))

specs = [MisclassRate(), CrossEntropy(), TopK(k=3)]
budget = UncertaintyBudget(rho_ind=4.0, rho_xi=2.0)
params = FwParams(iterations=15, num_samples=4000, num_samples2=2000,
                  draw_size=5, seed=0)
matrix, reports = cross_metric_matrix(cohort, model, specs, budget, params,
                                      num_instance_draws=300,
                                      num_problem_draws=1000)

normed = diagonal_normalize(matrix)
corner = "shift / metric"
header = " ".join(f"{name:>14s}" for name in normed.col_metrics)
print(f"{corner:>14s} {header}")
for name, row in zip(normed.row_metrics, normed.values):
    cells = " ".join(f"{v:14.3f}" for v in row)
    print(f"{name:>14s} {cells}")

matrix_path = OUT / "cross_metric.csv"
heatmap_path = OUT / "cross_metric.svg"
write_matrix_csv(normed, str(matrix_path))
render_heatmap(normed, str(heatmap_path))
print(f"wrote {matrix_path} and {heatmap_path}")
