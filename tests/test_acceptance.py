"""Release-gate acceptance checks.

Each test covers one numbered criterion and prints a single
``criterion N (...): PASS`` / ``FAIL`` line (visible under ``pytest -rA``),
so the suite doubles as a checklist.  The assertions carry the details.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from allocshift import (FwParams, SyntheticSpec, TrainConfig, UncertaintyBudget,
                        cross_metric_matrix, demo_cohort_path, diagonal_normalize,
                        generate_synthetic, oracle_ratio_curve, substream, train,
                        write_cohort)
from allocshift.cli import main
from allocshift.engine import estimate_gradient, pool_data
from allocshift.losses import (CrossEntropy, FairnessGini, Knapsack, MisclassRate,
                               Mse, NashWelfare, TopK, solve_knapsack, solve_topk)
from allocshift.oracle import (_grid_points, _project_ball_simplex,
                               enumerate_problems, exact_gradient, exact_hessian,
                               exact_objective)
from allocshift.predictors import TablePredictor
from allocshift.uncertainty import (chi_square_div, gradmax, random_feasible_shift,
                                    uniform_center)
from conftest import (binary_specs, make_cohort, make_pool, random_binary_setup,
                      random_regression_setup, regression_specs, table_for)


def _check(num, label, ok, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


# --- criteria 1 & 2: oracle-ratio curves on the 8x8 synthetic cohort -------

GRID = [10, 50, 250, 1000, 3000]
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def ratio_curves():
    """Search-vs-oracle ratio curves for every applicable metric.

    Two 3-pool cohorts of 8 individuals each (one binary task, one regression
    task with a noisy score table so the worst case is never degenerate),
    draw size 8, three search seeds per metric.
    """
    t0 = time.perf_counter()

    bin_cohort = generate_synthetic(SyntheticSpec(
        instances=3, pool_size=8, numeric_features=3, categorical_features=1,
        categorical_levels=3, task="binary", groups=2, label_noise=1.5), seed=0)
    bin_model = train(bin_cohort, "logistic", TrainConfig(epochs=150), seed=0)

    reg_cohort = generate_synthetic(SyntheticSpec(
        instances=3, pool_size=8, numeric_features=3, task="regression",
        groups=2), seed=4)
    rng = substream(4, 99)
    table = {}
    for pool in reg_cohort.pools:
        noise = np.exp(0.5 * rng.standard_normal(len(pool)))
        for i, s in zip(pool.ids, pool.labels * noise):
            table[i] = float(s)
    reg_model = TablePredictor(scores=table, task="regression")

    setups = ([(bin_cohort, bin_model, s) for s in
               (TopK(k=3), Knapsack(), FairnessGini(k=3), MisclassRate(),
                CrossEntropy())] +
              [(reg_cohort, reg_model, s) for s in
               (NashWelfare(budget=2.0), Mse())])

    budget = UncertaintyBudget(rho_ind=8.0, rho_xi=0.0)
    top, curves = [], {}
    for cohort, model, spec in setups:
        per_seed = []
        for seed in SEEDS:
            params = FwParams(iterations=15, num_samples2=2000, draw_size=8,
                              seed=seed)
            curve = oracle_ratio_curve(cohort, model, spec, budget, GRID,
                                       seed=seed, params=params,
                                       oracle_restarts=12)
            per_seed.append(curve.ratios)            # pools x grid
            top.extend(curve.ratios[:, -1])
        curves[spec.kind] = np.mean(per_seed, axis=(0, 1))   # grid,
    return {"top": np.array(top), "curves": curves,
            "elapsed": time.perf_counter() - t0}


def test_criterion_1_oracle_ratio_floor(ratio_curves):
    top = ratio_curves["top"]
    elapsed = ratio_curves["elapsed"]
    n_runs = len(top)                         # 7 metrics x 3 seeds x 3 pools
    share = float(np.mean(top >= 0.6))
    ok = (n_runs == 63 and float(top.min()) >= 0.37 and share >= 0.95
          and elapsed <= 600.0)
    _check(1, "oracle-ratio floor", ok,
           f"{n_runs} runs at the top grid point, min ratio {top.min():.4f} "
           f"(floor 0.37), share >= 0.6: {share:.3f} (need 0.95), "
           f"{elapsed:.1f}s (cap 600s)")


def test_criterion_2_monotone_curves(ratio_curves):
    worst_drop = 0.0
    for kind, curve in ratio_curves["curves"].items():
        drops = -np.diff(curve)
        worst_drop = max(worst_drop, float(drops.max(initial=0.0)))
    ok = worst_drop <= 0.02
    _check(2, "monotone seed-averaged curves", ok,
           f"{len(ratio_curves['curves'])} metrics over grid {GRID}, "
           f"worst drop {worst_drop:.4f} (allowed 0.02)")


# --- criterion 3: offset objective equals expected decision loss -----------

def test_criterion_3_offset_objective_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(100):
        binary = trial % 5 != 4
        n_pools = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if binary:
            setups = [random_binary_setup(rng, m=int(rng.integers(2, 5)))
                      for _ in range(n_pools)]
            spec = binary_specs(2, n)[trial % 5]
        else:
            setups = [random_regression_setup(rng, m=int(rng.integers(2, 5)))
                      for _ in range(n_pools)]
            spec = regression_specs()[trial % 2]
        pools = [s[1] for s in setups]
        preds = [s[2] for s in setups]
        budget = UncertaintyBudget(rho_ind=float(rng.uniform(0.0, 3.0)),
                                   rho_xi=float(rng.uniform(0.0, 3.0)))
        shift = random_feasible_shift([len(p) for p in pools], budget, rng)
        xi = shift.instance_distribution
        offset_form = 1.0
        expected_dl = 0.0
        for j, (pool, pred) in enumerate(zip(pools, preds)):
            enum = enumerate_problems(spec, pool_data(pool, pred, spec), n)
            qj = shift.individual_distribution(j)
            offset_form += xi[j] * exact_objective(enum, qj)
            lifted = dataclasses.replace(enum, losses=enum.losses + 1.0)
            expected_dl += xi[j] * exact_objective(lifted, qj)
        worst = max(worst, abs(offset_form - expected_dl))
    ok = worst <= 1e-9
    _check(3, "offset objective identity", ok,
           f"100 random feasible shifts, max |offset form + 1 − E[DL]| "
           f"= {worst:.2e} (tol 1e-9)")


# --- criterion 4: non-positive curvature for every loss variant ------------

def test_criterion_4_nonpositive_curvature():
    rng = np.random.default_rng(41)

    def binary_variants(n):
        k = min(2, n)
        return [TopK(k=k), Knapsack(), FairnessGini(k=k), MisclassRate(),
                CrossEntropy()]

    max_entry = -np.inf
    checked = 0
    for variant in range(7):
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            if variant < 5:
                _, pool, pred = random_binary_setup(rng, m=m)
                spec = binary_variants(n)[variant]
            else:
                _, pool, pred = random_regression_setup(rng, m=m)
                spec = regression_specs()[variant - 5]
            q = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
            enum = enumerate_problems(spec, pool_data(pool, pred, spec), n)
            hess = exact_hessian(enum, q)
            max_entry = max(max_entry, float(hess.max()))
            checked += 1

    # negative control: a positive loss on one repeated-draw outcome must
    # produce positive curvature, proving the check can fail
    _, pool, pred = random_binary_setup(np.random.default_rng(4), m=3)
    spec = MisclassRate()
    enum = enumerate_problems(spec, pool_data(pool, pred, spec), 2)
    fake = np.zeros_like(enum.losses)
    fake[int(np.argmax(enum.counts[:, 0] == enum.draw_size))] = 1.0
    control = exact_hessian(dataclasses.replace(enum, losses=fake),
                            np.array([0.5, 0.3, 0.2]))
    ok = checked == 350 and max_entry <= 1e-9 and float(control.max()) > 0.0
    _check(4, "non-positive curvature", ok,
           f"7 loss variants x 50 instances, max Hessian entry {max_entry:.2e} "
           f"(tol 1e-9); positive-loss control max {control.max():.2f} > 0")


# --- criterion 5: Monte Carlo gradient accuracy =============================

def test_criterion_5_gradient_estimator_accuracy():
    rng = np.random.default_rng(51)
    worst_rel = 0.0
    kept = 0
    tries = 0
    # instances are filtered so every exact coordinate is bounded away from
    # zero, making per-coordinate relative error well defined
    while kept < 12 and tries < 200:
        tries += 1
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        if tries % 2 == 0:
            _, pool, pred = random_binary_setup(rng, m=m)
            specs = binary_specs(m, n)
            spec = specs[int(rng.integers(0, len(specs)))]
        else:
            _, pool, pred = random_regression_setup(rng, m=m)
            spec = regression_specs()[int(rng.integers(0, 2))]
        q = rng.dirichlet(np.ones(m)) * 0.7 + 0.3 / m
        pd = pool_data(pool, pred, spec)
        exact = exact_gradient(enumerate_problems(spec, pd, n), q)
        if float(np.min(np.abs(exact))) < 0.15:
            continue
        kept += 1
        estimate, _ = estimate_gradient(spec, pd, q, 1_000_000, n,
                                        np.random.default_rng(int(rng.integers(1 << 20))))
        worst_rel = max(worst_rel, float(np.max(np.abs(estimate - exact)
                                                / np.abs(exact))))
    ok = kept == 12 and worst_rel <= 0.05
    _check(5, "gradient estimator accuracy", ok,
           f"{kept} tiny instances at 1e6 samples, worst per-coordinate "
           f"relative error {worst_rel:.4f} (tol 0.05)")


# --- criterion 6: ball-restricted linear maximizer vs grid search ----------

def _lattice4(step):
    n = int(round(1.0 / step))
    rows = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            ks = np.arange(n + 1 - i - j)
            block = np.empty((ks.size, 4))
            block[:, 0] = i * step
            block[:, 1] = j * step
            block[:, 2] = ks * step
            block[:, 3] = (n - i - j - ks) * step
            rows.append(block)
    return np.concatenate(rows, axis=0)


def _polish(v, rho, starts, iters=120):
    """Projected ascent on the linear objective — an independent witness.
    The starts ascend as rows of one batch; each row is projected exactly as
    it would be alone."""
    q = _project_ball_simplex(np.array(starts, dtype=np.float64), rho)
    for _ in range(iters):
        q = _project_ball_simplex(q + 0.1 * v, rho)
    return max(float(v @ row) for row in q)


def test_criterion_6_gradmax_matches_grid_search():
    rng = np.random.default_rng(61)
    grids = {2: _grid_points(2, 1e-3), 3: _grid_points(3, 2e-3),
             4: _lattice4(0.01)}
    pair_counts = {2: 70, 3: 70, 4: 60}
    worst_deficit = -np.inf
    worst_infeas = 0.0
    pairs = 0
    for dim, count in pair_counts.items():
        pts = grids[dim]
        center = uniform_center(dim)
        divs = ((pts - center) ** 2 / center).sum(axis=1)
        rhos = [float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
                for _ in range(count - 2)] + [1e-6, 50.0]
        for rho in rhos:
            pairs += 1
            v = rng.uniform(-1.0, 1.0, size=dim)
            q = gradmax(v, center, rho)
            val = float(v @ q)
            infeas = max(abs(float(q.sum()) - 1.0), float(-q.min()),
                         chi_square_div(q, center) - rho)
            worst_infeas = max(worst_infeas, infeas)
            feasible = pts[divs <= rho + 1e-12]
            starts = [center, q,
                      rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))]
            if feasible.size:
                grid_best = float((feasible @ v).max())
                starts.append(feasible[int(np.argmax(feasible @ v))])
            else:
                grid_best = -np.inf  # ball smaller than the lattice pitch
            witness = max(grid_best, _polish(v, rho, starts))
            worst_deficit = max(worst_deficit, witness - val)
    ok = pairs == 200 and worst_deficit <= 1e-3 and worst_infeas <= 1e-9
    _check(6, "ball-restricted linear maximizer", ok,
           f"200 (v, rho) pairs over dims 2-4, worst shortfall vs grid+ascent "
           f"witness {worst_deficit:.2e} (tol 1e-3), worst feasibility "
           f"violation {worst_infeas:.2e} (tol 1e-9)")


# --- criterion 7: exact combinatorial solvers ------------------------------

def _brute_knapsack(values, costs, budget):
    n = len(values)
    masks = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    totals = masks @ values
    totals[masks @ costs > budget + 1e-9] = -np.inf
    best = totals.max()
    optima = [tuple(np.flatnonzero(masks[i]))
              for i in np.flatnonzero(totals >= best - 1e-12)]
    return np.array(min(optima), dtype=np.int64)


def test_criterion_7_exact_solvers():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        m = int(rng.integers(1, 16))
        values = rng.uniform(0.01, 5.0, size=m)
        costs = rng.integers(0, 5, size=m).astype(float)
        budget = int(rng.integers(0, int(costs.sum()) + 2))
        got = solve_knapsack(values, costs, budget)
        want = _brute_knapsack(values, costs, budget)
        assert np.array_equal(got, want), (values, costs, budget, got, want)
    for trial in range(1000):
        m = int(rng.integers(1, 13))
        if trial % 2:
            scores = rng.uniform(0.05, 1.0, size=m)
        else:
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=m)  # force ties
        k = int(rng.integers(1, m + 1))
        got = solve_topk(scores, k)
        want = solve_knapsack(scores, np.ones(m), k)
        assert np.array_equal(got, want), (scores, k, got, want)
    _check(7, "exact combinatorial solvers", True,
           "1000 knapsack trials vs exhaustive enumeration (<= 15 items), "
           "1000 top-k vs unit-cost knapsack trials (ties included)")


# --- criterion 8: diagonal dominance across metrics -------------------------

def test_criterion_8_diagonal_dominance():
    """Two clinic pools whose misranked members separate the three metrics:
    the shift that is worst for one metric should not be worst for another."""
    pools = [make_pool("clinic-1", [1.0, 0.0, 1.0, 0.0]),
             make_pool("clinic-2", [1.0, 0.0, 1.0, 0.0])]
    predictor = table_for(pools, [[0.60, 0.70, 0.05, 0.10],
                                  [0.45, 0.40, 0.85, 0.15]])
    cohort = make_cohort(pools)
    specs = [MisclassRate(), CrossEntropy(), TopK(k=1)]
    params = FwParams(iterations=15, num_samples=6000, num_samples2=6000,
                      draw_size=2, seed=0)
    budget = UncertaintyBudget(rho_ind=4.0, rho_xi=6.25)
    matrix, _ = cross_metric_matrix(cohort, predictor, specs, budget, params,
                                    num_instance_draws=400,
                                    num_problem_draws=1000)
    normed = diagonal_normalize(matrix)
    off_vals, max_excess = [], -np.inf
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            off_vals.append(float(normed.values[i, j]))
            limit = 1.0 + 2.0 * float(normed.stderr[i, j]) + 1e-12
            max_excess = max(max_excess, float(normed.values[i, j]) - limit)
    ok = max_excess <= 0.0 and min(off_vals) <= 0.8
    _check(8, "diagonal dominance", ok,
           f"off-diagonal max over (1 + 2 SE) limit: {max_excess:+.2e}, "
           f"min off-diagonal {min(off_vals):.3f} (need one <= 0.8)")


# --- criterion 9: manifest replay is byte-identical -------------------------

def test_criterion_9_manifest_determinism(tmp_path):
    pools = [make_pool("a", [1.0, 0.0]), make_pool("b", [0.0, 1.0])]
    cohort_path = tmp_path / "cohort.json"
    write_cohort(make_cohort(pools), str(cohort_path))
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("id,score\na-0,0.1\na-1,0.2\nb-0,0.3\nb-1,0.4\n")

    fast = ["--iters", "3", "--samples", "300", "--samples2", "300",
            "--draw-size", "1", "--workers", "1"]
    base = ["--cohort", cohort_path, "--predictor", scores_path]
    loss = ["--loss", '{"kind": "misclass_rate"}']
    dirs = {name: tmp_path / name for name in
            ("train", "find-worst", "evaluate", "oracle", "fig2", "report")}
    for d in dirs.values():
        d.mkdir()
    report_json = dirs["find-worst"] / "report.json"
    matrix_csv = dirs["evaluate"] / "matrix.csv"
    commands = [
        ("train", ["--cohort", demo_cohort_path("binary"), "--epochs", "30",
                   "--out", dirs["train"] / "model.json"]),
        ("find-worst", [*base, *loss, "--rho-ind", "2.0", "--rho-xi", "1.0",
                        *fast, "--out", report_json]),
        ("evaluate", [*base, "--report", report_json,
                      "--metrics",
                      '[{"kind": "misclass_rate"}, {"kind": "top_k", "k": 1}]',
                      "--eval-instances", "20", "--eval-problems", "30",
                      "--draw-size", "1",
                      "--heatmap", dirs["evaluate"] / "matrix.svg",
                      "--out", matrix_csv]),
        ("oracle", [*base, *loss, "--rho-ind", "2.0", "--draw-size", "1",
                    "--restarts", "5", "--out", dirs["oracle"] / "oracle.json"]),
        ("fig2", [*base, *loss, "--rho-ind", "2.0", "--grid", "20,60",
                  "--iters", "3", "--draw-size", "1", "--restarts", "4",
                  "--out", dirs["fig2"] / "curve.csv"]),
        ("report", ["--matrix", matrix_csv,
                    "--out", dirs["report"] / "matrix2.csv",
                    "--heatmap", dirs["report"] / "matrix2.svg",
                    "--report", report_json,
                    "--trace", dirs["report"] / "trace2.csv"]),
    ]

    replayed = 0
    outputs_checked = 0
    for name, argv in commands:
        assert main([name] + [str(a) for a in argv]) == 0, name
        manifests = list(dirs[name].glob("*.manifest.json"))
        assert len(manifests) == 1, (name, manifests)
        primary = list(json.loads(manifests[0].read_text())["outputs"])
        snapshot = {path: Path(path).read_bytes() for path in primary}
        assert main([name, "--config", str(manifests[0])]) == 0, name
        for path, before in snapshot.items():
            after = Path(path).read_bytes()
            assert after == before, f"{name}: {path} changed on replay"
            outputs_checked += 1
        replayed += 1
    _check(9, "manifest replay determinism", replayed == 6,
           f"6 subcommands replayed from their manifests, "
           f"{outputs_checked} primary outputs byte-identical")
