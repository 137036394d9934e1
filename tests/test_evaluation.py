import re
import tracemalloc

import numpy as np
import pytest

from allocshift import (ConfigError, CrossMetricMatrix, DataError, FwParams,
                        Knapsack, NumericalError,
                        HierarchicalShift, SyntheticSpec, TrainConfig, UncertaintyBudget,
                        cross_metric_matrix, diagonal_normalize, generate_synthetic,
                        is_feasible, find_worst_case, matrix_from_shifts,
                        metric_names, oracle_maximize, oracle_ratio_curve, pool_data,
                        pool_objective, train)
from allocshift import engine, evaluation, losses
from allocshift.evaluation import _value_ratio
from allocshift.losses import (CrossEntropy, FairnessGini, MisclassRate, Mse,
                                NashWelfare, TopK, batch_shifted_loss)
from conftest import make_cohort, make_pool, table_for


def constant_cohort(dl_value):
    """Two pools where every singleton draw has the same decision loss."""
    if dl_value == 1.0:
        labels = [[1.0, 1.0], [1.0, 1.0]]
    else:
        labels = [[0.0, 0.0], [0.0, 0.0]]
    pools = [make_pool("a", labels[0]), make_pool("b", labels[1])]
    predictor = table_for(pools, [[0.0, 0.0], [0.0, 0.0]])
    return make_cohort(pools), predictor


def zero_shift(sizes):
    return HierarchicalShift(across=np.zeros(len(sizes)),
                             within=tuple(np.zeros(m) for m in sizes))


def one_row(cohort, predictor, specs, shift, **args):
    """A one-row matrix_from_shifts call: (means, stderr), one entry per spec."""
    mat = matrix_from_shifts(cohort, predictor, ["shift"], [shift], specs, **args)
    return mat.values[0], mat.stderr[0]


def mixed_cohort():
    """Pool a: one of two singleton draws misclassifies; pool b: none."""
    pools = [make_pool("a", [1.0, 0.0]), make_pool("b", [0.0, 0.0])]
    predictor = table_for(pools, [[0.0, 0.0], [0.0, 0.0]])
    return make_cohort(pools), predictor


def test_evaluate_shift_constant_loss():
    cohort, predictor = constant_cohort(1.0)
    (val,), (se,) = one_row(cohort, predictor, [MisclassRate()], zero_shift([2, 2]),
                            num_instance_draws=40, num_problem_draws=50, draw_size=1, seed=0)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_evaluate_shift_center_matches_exact():
    cohort, predictor = mixed_cohort()
    # uniform draws: instance a contributes mean DL 1/2, instance b 0 -> 1/4
    (val,), (se,) = one_row(cohort, predictor, [MisclassRate()], zero_shift([2, 2]),
                            num_instance_draws=300, num_problem_draws=3000, draw_size=1, seed=1)
    assert val == pytest.approx(0.25, abs=max(3 * se, 0.01))
    assert se > 0


def test_evaluate_shift_tilted():
    cohort, predictor = mixed_cohort()
    # all instance mass on a, all its individual mass on the misclassified member
    shift = HierarchicalShift(across=np.array([0.5, -0.5]),
                              within=(np.array([0.5, -0.5]), np.zeros(2)))
    (val,), _ = one_row(cohort, predictor, [MisclassRate()], shift,
                        num_instance_draws=50, num_problem_draws=60, draw_size=1, seed=2)
    assert val == pytest.approx(1.0, abs=1e-12)


# the block bound in cells at draw size 3: 1 cell draws and scores one row per
# block, so each batch is one outer draw of five rows; 69 cells make blocks of
# 23 rows and batches of 4 outer draws, which 37 draws split unevenly
@pytest.mark.parametrize("cells", [1, 69], ids=["row-per-batch", "outer-draws-per-batch"])
def test_evaluate_shift_chunking_is_bitwise_identical(monkeypatch, cells):
    pools = [make_pool("a", [1, 0, 1, 0], costs=[1, 2, 3, 1]),
             make_pool("b", [0, 1, 1], costs=[2, 1, 1])]
    predictor = table_for(pools, [[0.9, 0.2, 0.4, 0.6], [0.3, 0.8, 0.5]])
    cohort = make_cohort(pools)
    shift = HierarchicalShift(across=np.array([0.1, -0.1]),
                              within=(np.array([0.2, -0.1, 0.0, -0.1]), np.zeros(3)))
    args = dict(num_instance_draws=37, num_problem_draws=5, draw_size=3, seed=4)
    specs = [MisclassRate(), Knapsack(), TopK(k=2)]

    def run():
        alone = [one_row(cohort, predictor, [spec], shift, **args) for spec in specs]
        shared = one_row(cohort, predictor, specs, shift, **args)
        # one matrix scores each draw on every spec; column c is bitwise a one-column matrix
        for c, (mean, se) in enumerate(alone):
            assert (shared[0][c], shared[1][c]) == (mean[0], se[0])
        return [(mean[0], se[0]) for mean, se in alone]

    whole = run()
    monkeypatch.setattr(losses, "_BLOCK_CELLS", cells)
    chunked = run()
    assert chunked == whole


def test_evaluate_shift_memory_is_bounded_by_block(rng):
    # a 100-person pool at the default draw size: 200 x 300 problems of 100
    # draws, 6e6 indices (48 MB of int64) if drawn in one batch; blocks of
    # losses._BLOCK_CELLS indices keep the traced peak under 8 MiB
    labels = rng.integers(0, 2, size=100).astype(float)
    pools = [make_pool("a", labels)]
    predictor = table_for(pools, [rng.uniform(0, 1, size=100)])
    shift = HierarchicalShift(across=np.zeros(1), within=(np.zeros(100),))
    tracemalloc.start()
    try:
        means, _ = one_row(make_cohort(pools), predictor, [MisclassRate(), TopK(k=10)], shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20
    assert np.all((means >= 0.0) & (means <= 1.0))


def test_evaluate_shift_checks_pools_before_drawing():
    # the shift never draws the fractional-cost member, yet the pool is refused
    pool = make_pool("a", [1, 0], costs=[0.4, 1.0])
    shift = HierarchicalShift(across=np.zeros(1), within=(np.array([-0.5, 0.5]),))
    with pytest.raises(DataError, match="instance 'a': knapsack costs must be integers"):
        one_row(make_cohort([pool]), table_for([pool], [[0.9, 0.5]]), [Knapsack(budget=1)],
                shift, num_instance_draws=3, num_problem_draws=4, draw_size=1)


def test_evaluate_shift_checks_every_pool_and_spec_before_drawing():
    # all instance mass on pool '0': pool '1' is never drawn, yet every column refuses it
    pools = [make_pool("0", [1.0, 2.0, 3.0]), make_pool("1", [1.5, 0.0])]
    predictor = table_for(pools, [[1.0, 2.0, 3.0], [1.5, 2.5]])
    cohort = make_cohort(pools, task="regression")
    shift = HierarchicalShift(across=np.array([0.5, -0.5]),
                              within=(np.zeros(3), np.zeros(2)))
    args = dict(num_instance_draws=3, num_problem_draws=4, seed=0)
    means, _ = one_row(cohort, predictor, [Mse()], shift, **args)
    assert np.isfinite(means).all()
    with pytest.raises(DataError, match="instance '1': nash_welfare requires strictly "
                                        "positive true incomes"):
        one_row(cohort, predictor, [Mse(), NashWelfare(budget=1.0)], shift, **args)
    # a pool-size draw from pool 'b' cannot hold k=3, though the shift never draws it
    pools = [make_pool("a", [1, 0, 1]), make_pool("b", [0, 1])]
    predictor = table_for(pools, [[0.9, 0.2, 0.4], [0.3, 0.8]])
    shift = HierarchicalShift(across=np.array([0.5, -0.5]),
                              within=(np.zeros(3), np.zeros(2)))
    for spec in (TopK(k=3), FairnessGini(k=3)):
        with pytest.raises(ConfigError, match="instance 'b': k=3 exceeds draw_size=2"):
            one_row(make_cohort(pools), predictor, [MisclassRate(), spec], shift, **args)


def test_evaluate_shift_shape_and_budget_checks():
    cohort, predictor = mixed_cohort()
    bad = HierarchicalShift(across=np.zeros(2),
                            within=(np.zeros(3), np.zeros(2)))
    with pytest.raises(DataError):
        one_row(cohort, predictor, [MisclassRate()], bad, draw_size=1)
    wide = HierarchicalShift(across=np.array([0.5, -0.5]),
                             within=(np.zeros(2), np.zeros(2)))
    # the evaluator takes shifts as given; the budget check is is_feasible's
    ok, why = is_feasible(wide, UncertaintyBudget(rho_ind=1.0, rho_xi=0.01))
    assert not ok and "across" in why


def test_metric_names_deduplicate():
    specs = [TopK(k=1), MisclassRate(), TopK(k=2)]
    assert metric_names(specs) == ["top_k", "misclass_rate", "top_k#2"]


def test_matrix_from_shifts_shapes():
    cohort, predictor = mixed_cohort()
    shifts = [zero_shift([2, 2]),
              HierarchicalShift(across=np.array([0.5, -0.5]),
                                within=(np.array([0.5, -0.5]), np.zeros(2)))]
    mat = matrix_from_shifts(cohort, predictor, ["center", "tilted"], shifts,
                             [MisclassRate(), TopK(k=1)],
                             num_instance_draws=30, num_problem_draws=40,
                             draw_size=1, seed=3)
    assert mat.values.shape == (2, 2)
    assert mat.row_metrics == ["center", "tilted"]
    assert mat.col_metrics == ["misclass_rate", "top_k"]
    assert not mat.normalized
    assert (mat.stderr >= 0).all()
    assert mat.values[1, 0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        matrix_from_shifts(cohort, predictor, ["only-one"], shifts, [MisclassRate()])


@pytest.mark.parametrize("name", ["num_instance_draws", "num_problem_draws", "draw_size", "seed"])
def test_matrix_from_shifts_counts_follow_the_number_rule(name):
    # 2.5, True and "5" once raised TypeError (exit 1) and seed=1.5 ran at seed 1
    cohort, predictor = mixed_cohort()
    args = {"num_instance_draws": 4, "num_problem_draws": 5, "draw_size": 1, "seed": 3}
    below = (-1, ">= 0, got -1") if name == "seed" else (0, ">= 1, got 0")
    for value, want in ((2.5, "an integer, got 2.5"), (True, "an integer, got True"),
                        ("5", "an integer, got '5'"), below):
        with pytest.raises(ConfigError, match=f"{name} must be {re.escape(want)}$"):
            one_row(cohort, predictor, [MisclassRate()], zero_shift([2, 2]),
                    **{**args, name: value})
    # a whole float counts as its integer
    whole = one_row(cohort, predictor, [MisclassRate()], zero_shift([2, 2]),
                    **{**args, name: float(args[name])})
    want = one_row(cohort, predictor, [MisclassRate()], zero_shift([2, 2]), **args)
    assert all(np.array_equal(a, b) for a, b in zip(whole, want))


def test_matrix_from_shifts_predicts_each_pool_once(monkeypatch):
    # one prediction per pool for the whole matrix, and row r is bitwise a
    # one-row matrix of shifts[r]
    cohort, predictor = mixed_cohort()
    shifts = [zero_shift([2, 2]),
              HierarchicalShift(across=np.array([0.5, -0.5]),
                                within=(np.array([0.5, -0.5]), np.zeros(2))),
              HierarchicalShift(across=np.array([-0.2, 0.2]),
                                within=(np.zeros(2), np.array([-0.3, 0.3])))]
    specs = [MisclassRate(), TopK(k=1)]
    args = dict(num_instance_draws=30, num_problem_draws=40, draw_size=1, seed=3)
    rows = [one_row(cohort, predictor, specs, shift, **args) for shift in shifts]
    calls = []
    predict = engine.predict_pool
    monkeypatch.setattr(engine, "predict_pool", lambda *a: calls.append(a) or predict(*a))
    mat = matrix_from_shifts(cohort, predictor, ["a", "b", "c"], shifts, specs, **args)
    assert len(calls) == len(cohort.pools)
    for r, (means, stderr) in enumerate(rows):
        assert np.array_equal(mat.values[r], means) and np.array_equal(mat.stderr[r], stderr)


def test_cross_metric_matrix_diagonal_near_report_value():
    cohort, predictor = mixed_cohort()
    params = FwParams(iterations=8, num_samples=2000, num_samples2=2000,
                      draw_size=1, seed=4)
    budget = UncertaintyBudget(rho_ind=4.0, rho_xi=4.0)
    mat, reports = cross_metric_matrix(cohort, predictor, [MisclassRate()], budget, params,
                                       num_instance_draws=400, num_problem_draws=2000)
    assert mat.values.shape == (1, 1)
    assert len(reports) == 1
    tol = 2 * mat.stderr[0, 0] + 0.01
    assert mat.values[0, 0] == pytest.approx(reports[0].value, abs=tol)


def test_cross_metric_matrix_duplicate_metric_rows_agree():
    cohort, predictor = mixed_cohort()
    params = FwParams(iterations=5, num_samples=800, num_samples2=800,
                      draw_size=1, seed=5)
    budget = UncertaintyBudget(rho_ind=2.0, rho_xi=2.0)
    mat, _ = cross_metric_matrix(cohort, predictor, [MisclassRate(), MisclassRate()],
                                 budget, params, num_instance_draws=60,
                                 num_problem_draws=400)
    assert mat.row_metrics == ["misclass_rate", "misclass_rate#2"]
    # identical searches (same seed stream) then identical evaluations
    assert mat.values[0, 0] == mat.values[1, 1]
    assert mat.values[0, 1] == mat.values[1, 0]


def make_matrix(values, stderr=None, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"m{i}" for i in range(values.shape[0])]
    return CrossMetricMatrix(row_metrics=names, col_metrics=names,
                             values=values,
                             stderr=stderr if stderr is not None else np.zeros_like(values))


def test_diagonal_normalize_frozen():
    mat = make_matrix([[2.0, 1.0], [1.0, 4.0]])
    normed = diagonal_normalize(mat)
    assert np.allclose(normed.values, [[1.0, 0.25], [0.5, 1.0]])
    assert normed.normalized
    assert normed.values[0, 0] == 1.0 and normed.values[1, 1] == 1.0


def test_diagonal_normalize_cross_entropy_inverts():
    # cross-entropy columns hold negative losses: the diagonal is the largest
    # magnitude, and dividing diagonal by entry keeps the scale in [0, 1]
    mat = make_matrix([[-4.0, 0.5], [-8.0, 1.0]])
    normed = diagonal_normalize(mat)
    assert normed.values[1, 0] == pytest.approx(0.5)
    assert normed.values[0, 0] == 1.0
    assert normed.values[0, 1] == pytest.approx(0.5)


def test_diagonal_normalize_errors():
    with pytest.raises(ConfigError):
        diagonal_normalize(diagonal_normalize(make_matrix([[2.0, 1.0], [1.0, 4.0]])))
    rect = CrossMetricMatrix(row_metrics=["a"], col_metrics=["a", "b"],
                             values=np.array([[1.0, 2.0]]), stderr=np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        diagonal_normalize(rect)
    from allocshift import NumericalError
    zero_diag = make_matrix([[0.0, 1.0], [1.0, 4.0]])
    with pytest.raises(NumericalError, match="m0"):
        diagonal_normalize(zero_diag)
    ce_zero = make_matrix([[-4.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericalError, match="m0"):
        diagonal_normalize(ce_zero)


def test_diagonal_normalize_reads_a_negative_column_by_sign():
    # a negative mse column once divided by its diagonal whatever its sign: a milder
    # shift (-0.3 against the worst -0.1) read 3.0, "300% of its own worst case"
    mat = make_matrix([[-0.1, 2.0], [-0.3, 4.0]], names=["mse", "top_k"],
                      stderr=np.array([[0.01, 0.2], [0.03, 0.4]]))
    normed = diagonal_normalize(mat)
    assert normed.values[1, 0] == pytest.approx(1 / 3)
    assert normed.values[0, 0] == 1.0 and normed.values[1, 1] == 1.0
    # |share| se / |entry| for a negative diagonal, se / |diagonal| for a positive one
    assert normed.stderr[1, 0] == pytest.approx(1 / 3 * 0.03 / 0.3)
    assert normed.stderr[0, 1] == pytest.approx(0.2 / 4.0)


def test_diagonal_normalize_zero_column_reads_one():
    # a column that is zero throughout, up to float noise, is its own worst case
    # everywhere; it once raised as a zero diagonal
    mat = make_matrix([[0.0, 2.0], [3e-12, 4.0]], stderr=np.full((2, 2), 1e-13))
    normed = diagonal_normalize(mat)
    assert (normed.values[:, 0] == 1.0).all()
    assert (normed.stderr[:, 0] == 1e-13).all()


def test_value_ratio_conventions():
    assert _value_ratio(0.5, 1.0) == pytest.approx(0.5)
    # negative optima (cross-entropy style): closer to zero is worse for the
    # search, so the inverted ratio stays <= 1 when achieved is weaker
    assert _value_ratio(-4.0, -2.0) == pytest.approx(0.5)
    from allocshift import NumericalError
    with pytest.raises(NumericalError):
        _value_ratio(0.3, 0.0)
    # an optimum that is zero up to float noise: reaching it counts as 1.0,
    # in either sign, rather than a ratio of two noise values
    assert _value_ratio(-3e-16, 4e-16) == 1.0
    assert _value_ratio(2e-17, -1e-12) == 1.0
    assert _value_ratio(0.0, 0.0) == 1.0
    with pytest.raises(NumericalError):
        _value_ratio(1e-6, 4e-16)


def test_value_ratio_refuses_zero_against_a_negative_worst():
    # once a ZeroDivisionError, which the CLI reads as a fault of the program
    with pytest.raises(NumericalError, match="zero against the negative worst value -4.0"):
        _value_ratio(0.0, -4.0)
    with pytest.raises(NumericalError):
        _value_ratio(np.array([-8.0, 0.0]), -4.0)
    assert np.array_equal(_value_ratio(np.array([-8.0, -4.0, -2.0]), -4.0), [0.5, 1.0, 2.0])
    assert np.array_equal(_value_ratio(np.array([1.0, 3.0]), 4.0), [0.25, 0.75])
    assert np.array_equal(_value_ratio(np.array([1e-12, 0.0]), -1e-12), [1.0, 1.0])


def curve_cohort():
    """Both pools carry one misclassified member, so no oracle value is zero."""
    pools = [make_pool("a", [1.0, 0.0]), make_pool("b", [0.0, 1.0])]
    predictor = table_for(pools, [[0.0, 0.0], [0.0, 0.0]])
    return make_cohort(pools), predictor


def test_oracle_ratio_curve_basic():
    cohort, predictor = curve_cohort()
    budget = UncertaintyBudget(rho_ind=2.0, rho_xi=2.0)
    params = FwParams(iterations=6, num_samples2=500, draw_size=1, seed=6)
    curve = oracle_ratio_curve(cohort, predictor, MisclassRate(), budget,
                               grid=[10, 100, 400], params=params, oracle_restarts=6)
    assert curve.grid == [10, 100, 400]
    assert curve.instance_ids == ["a", "b"]
    assert curve.ratios.shape == (2, 3)
    assert (curve.ratios <= 1.0 + 1e-6).all()
    assert (curve.ratios >= -1e-9).all()
    assert curve.mean.shape == (3,)
    assert curve.stderr.shape == (3,)
    # at the largest sample count the cheap instance is easy to max out
    assert curve.mean[-1] >= 0.6


def test_oracle_ratio_curve_rho_zero_is_exactly_one():
    cohort, predictor = curve_cohort()
    budget = UncertaintyBudget(rho_ind=0.0, rho_xi=0.0)
    params = FwParams(iterations=4, num_samples2=200, draw_size=1, seed=7)
    curve = oracle_ratio_curve(cohort, predictor, MisclassRate(), budget,
                               grid=[20, 50], params=params, oracle_restarts=4)
    assert (curve.ratios == 1.0).all()


def test_oracle_ratio_curve_cross_entropy_path():
    # cross-entropy losses are negative everywhere, exercising the inverted
    # ratio branch end to end
    pools = [make_pool("a", [1.0, 0.0])]
    predictor = table_for(pools, [[0.6, 0.4]])
    cohort = make_cohort(pools)
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=0.0)
    params = FwParams(iterations=5, num_samples2=400, draw_size=1, seed=8)
    curve = oracle_ratio_curve(cohort, predictor, CrossEntropy(), budget,
                               grid=[50, 200], params=params, oracle_restarts=5)
    assert (curve.ratios <= 1.0 + 1e-6).all()
    assert (curve.ratios > 0).all()


@pytest.mark.parametrize("error", [
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    NumericalError("loss blew up"),
], ids=["multi-argument", "library-error"])
def test_oracle_ratio_curve_search_errors_name_instance(monkeypatch, error):
    # the lockstep search scores pool a, then pool b; b's error names b, as
    # find_worst_case's errors do
    scored = []

    def loss_failing_on_b(spec, pd, idx):
        scored.append(pd)
        if len(scored) == 2:
            raise error
        return batch_shifted_loss(spec, pd, idx)

    monkeypatch.setattr(engine, "batch_shifted_loss", loss_failing_on_b)
    cohort, predictor = curve_cohort()
    params = FwParams(iterations=2, draw_size=1)
    with pytest.raises(type(error)) as info:
        oracle_ratio_curve(cohort, predictor, MisclassRate(), UncertaintyBudget(1.0, 0.0),
                           grid=[10], params=params)
    if isinstance(error, NumericalError):
        assert str(info.value) == "instance 'b': loss blew up"
    else:
        assert info.value is error
        assert info.value.__notes__[-1] == "in instance 'b'"


def test_top_k_ratio_curve_past_the_enumeration():
    # 4 synthetic pools of 40 drawn 10 at a time, C(49, 10) = 8.2e9 multisets:
    # the search against top_k's closed-form oracle. At rho 1 the pools' optima
    # differ (0.881 to 0.940); at rho 4 all four read 0.956. Measured over
    # seeds 0-2, the ratios were 0.841-0.931 at 100 samples and 0.937-0.972 at
    # 1000, each pool's rising; the floors sit below those
    cohort = generate_synthetic(SyntheticSpec(instances=4, pool_size=40), seed=1)
    model = train(cohort, "logistic", TrainConfig(epochs=50), seed=1)
    spec, budget = TopK(k=3), UncertaintyBudget(rho_ind=1.0, rho_xi=0.0)
    optima = [oracle_maximize(pool_objective(spec, pool_data(pool, model, spec), 10),
                              budget.rho_ind)[1] + 1.0 for pool in cohort.pools]
    assert np.ptp(optima) > 0.05, optima
    for seed in (0, 1, 2):
        params = FwParams(iterations=15, num_samples2=2000, draw_size=10, seed=seed)
        ratios = oracle_ratio_curve(cohort, model, spec, budget, [100, 1000], params=params).ratios
        assert (ratios <= 1.0 + 1e-9).all(), ratios
        assert (ratios[:, 0] >= 0.82).all() and (ratios[:, 1] >= 0.92).all(), ratios
        assert (ratios[:, 1] > ratios[:, 0]).all(), ratios


def test_oracle_ratio_curve_requires_increasing_grid():
    cohort, predictor = mixed_cohort()
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=1.0)
    with pytest.raises(ConfigError):
        oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=[100, 50])
    with pytest.raises(ConfigError):
        oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=[])


def test_oracle_ratio_curve_runs_at_params_seed(monkeypatch):
    # the default seed once replaced params.seed with 0, in the searches and the oracle
    seen = []
    search, ascend = evaluation._fw_lockstep, evaluation.oracle_maximize

    def searches(*args):
        seen.append(("search", args[-1].seed))
        return search(*args)

    def oracle(*args, **kwargs):
        seen.append(("oracle", kwargs["seed"]))
        return ascend(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_fw_lockstep", searches)
    monkeypatch.setattr(evaluation, "oracle_maximize", oracle)
    cohort, predictor = curve_cohort()
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=0.0)
    params = FwParams(iterations=2, num_samples2=50, draw_size=1, seed=6)
    oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=[10], params=params,
                       oracle_restarts=2)
    assert seen == [("search", 6), ("oracle", 6), ("oracle", 6)]


def test_oracle_ratio_curve_grid_follows_the_number_rule(monkeypatch):
    # a grid point of 10.7 once searched with int(10.7) = 10 samples
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(evaluation, "_fw_lockstep", no_search)
    cohort, predictor = mixed_cohort()
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=1.0)
    for point in (10.7, "10", True):
        with pytest.raises(ConfigError, match="sample grid point must be an integer"):
            oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=[point, 50])


def test_oracle_ratio_curve_zero_optimum_names_the_instance(monkeypatch):
    # a zero oracle maximum that the search does not match is no ratio; the error
    # names the pool, as the search's errors do
    ascend, calls = evaluation.oracle_maximize, []

    def zero_on_b(*args, **kwargs):  # pool b's oracle maximum, +1 corrected, reads 0
        q, best = ascend(*args, **kwargs)
        calls.append(q)
        return q, -1.0 if len(calls) == 2 else best

    monkeypatch.setattr(evaluation, "oracle_maximize", zero_on_b)
    cohort, predictor = curve_cohort()
    params = FwParams(iterations=2, num_samples2=50, draw_size=1, seed=6)
    with pytest.raises(NumericalError, match="instance 'b': worst value is zero"):
        oracle_ratio_curve(cohort, predictor, MisclassRate(), UncertaintyBudget(1.0, 0.0),
                           grid=[10], params=params, oracle_restarts=2)


def test_oracle_ratio_curve_restarts_follow_the_number_rule(monkeypatch):
    # oracle_restarts=2.5 once ran
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(evaluation, "_fw_lockstep", no_search)
    cohort, predictor = curve_cohort()
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=0.0)
    for restarts in (2.5, "2", True):
        with pytest.raises(ConfigError, match="oracle_restarts must be an integer"):
            oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=[10],
                               oracle_restarts=restarts)


def test_oracle_ratio_curve_refuses_a_repeated_grid_point(monkeypatch):
    # [10, 10] once passed as increasing, ran every search twice and wrote two
    # rows per (10, instance)
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(evaluation, "_fw_lockstep", no_search)
    cohort, predictor = mixed_cohort()
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=1.0)
    for grid in ([10, 10], [10, 50, 50]):
        with pytest.raises(ConfigError, match="strictly increasing"):
            oracle_ratio_curve(cohort, predictor, MisclassRate(), budget, grid=grid)
