import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_model
from fedsim import diagnostics, nn
from fedsim.config import ExperimentConfig
from fedsim.data import LabeledDataset, SyntheticSpec, dirichlet_partition, generate_synthetic
from fedsim.diagnostics import (
    DescentRecord,
    FullBatchPass,
    TheoremConstants,
    descent_check,
    descent_summary,
    dissimilarity_B,
    full_batch_pass,
    global_objective,
    gradient_dissimilarity,
    read_history_csv,
    rounds_to_target,
    speedup,
    theorem_constant,
)
from fedsim.errors import ConfigError, DataError, DiagnosticsError, DivergenceError, ShapeError
from fedsim.engine import round_plan
from fedsim.runner import build_problem


class TestAccuracyRatio:
    def test_equal_accuracies_give_unit_ratio(self):
        report = dissimilarity_B(0.8, {0: 0.8, 1: 0.8, 2: 0.8}, 1.5)
        assert report.client_ratios == {0: 1.0, 1: 1.0, 2: 1.0}
        assert report.max_ratio == 1.0
        assert (report.grad_ratio, report.flags) == (1.5, ())

    def test_ratio_arithmetic(self):
        report = dissimilarity_B(0.9, {0: 0.45, 1: 0.9}, 1.0)
        assert report.client_ratios == {0: 2.0, 1: 1.0}
        assert report.max_ratio == 2.0

    def test_zero_accuracy_yields_flagged_sentinel(self):
        report = dissimilarity_B(0.5, {0: 0.0, 1: 0.5}, 1.0)
        assert math.isinf(report.client_ratios[0])
        assert report.flags == ("client_0_zero_accuracy",)

    def test_flags_name_client_ids_then_undefined_grad_ratio(self):
        report = dissimilarity_B(0.5, {7: 0.5, 2: 0.0, 5: 0.0}, None)
        assert list(report.client_ratios) == [7, 2, 5]
        assert report.grad_ratio is None
        assert report.flags == (
            "client_2_zero_accuracy",
            "client_5_zero_accuracy",
            "grad_ratio_undefined",
        )

    def test_ratio_at_least_one_when_local_below_global(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            global_acc = rng.uniform(0.1, 1.0)
            locals_ = rng.uniform(0.01, global_acc, 4)
            report = dissimilarity_B(global_acc, dict(enumerate(locals_)), 1.0)
            assert all(r >= 1.0 for r in report.client_ratios.values())


def client_datasets(beta, seed, classes=8, per_class=120, dim=16):
    pool = generate_synthetic(SyntheticSpec(classes, per_class, dim, 0.6, seed=seed))
    part = dirichlet_partition(pool, 10, beta, seed)
    return [pool.subset(idx) for idx in part.client_indices]


class TestGradientRatio:
    def test_identical_clients_give_unit_ratio(self):
        rng = np.random.default_rng(1)
        data = LabeledDataset(rng.standard_normal((20, 4)), rng.integers(0, 3, 20), 3)
        model = random_model(nn.ModelArch((4, 6, 3)), seed=1)
        ratio = gradient_dissimilarity(model, [data, data, data])
        assert abs(ratio - 1.0) < 1e-9

    def test_opposing_gradients_are_undefined(self):
        # zero model, flipped binary labels: per-sample deltas negate exactly
        rng = np.random.default_rng(2)
        features = rng.standard_normal((10, 3))
        a = LabeledDataset(features, np.zeros(10, dtype=int), 2)
        b = LabeledDataset(features, np.ones(10, dtype=int), 2)
        arch = nn.ModelArch((3, 2))
        model = nn.ParamVector(arch, np.zeros(nn.param_count(arch)))
        assert gradient_dissimilarity(model, [a, b]) is None

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(3)
        arch = nn.ModelArch((5, 6, 4))
        for seed in range(10):
            model = random_model(arch, seed=seed)
            datasets = [
                LabeledDataset(rng.standard_normal((15, 5)), rng.integers(0, 4, 15), 4)
                for _ in range(4)
            ]
            ratio = gradient_dissimilarity(model, datasets)
            assert ratio is None or ratio >= 1.0 - 1e-9

    def test_skewed_split_more_dissimilar_than_uniform(self):
        model = random_model(nn.ModelArch((16, 32, 8)), seed=0)
        ordered = 0
        for seed in range(5):
            low = gradient_dissimilarity(model, client_datasets(0.1, seed))
            high = gradient_dissimilarity(model, client_datasets(1e6, seed))
            ordered += low > high
        assert ordered == 5

    def test_size_weighted_expectation(self):
        # hand-built two-client case checked against the formula
        rng = np.random.default_rng(4)
        arch = nn.ModelArch((3, 2))
        model = random_model(arch, seed=4)
        a = LabeledDataset(rng.standard_normal((6, 3)), rng.integers(0, 2, 6), 2)
        b = LabeledDataset(rng.standard_normal((18, 3)), rng.integers(0, 2, 18), 2)
        g_a = reference.loss_and_grad(arch, model.values, a.features, a.labels)[1]
        g_b = reference.loss_and_grad(arch, model.values, b.features, b.labels)[1]
        num = math.sqrt(0.25 * float(g_a @ g_a) + 0.75 * float(g_b @ g_b))
        den = float(np.linalg.norm(0.25 * g_a + 0.75 * g_b))
        assert gradient_dissimilarity(model, [a, b]) == pytest.approx(num / den, rel=1e-12)


def random_datasets(rng, arch, rows):
    classes = arch.output_dim
    return [
        LabeledDataset(rng.standard_normal((n, arch.input_dim)), rng.integers(0, classes, n), classes)
        for n in rows
    ]


@pytest.mark.parametrize(
    "widths, rows", [((4, 3), (1, 7, 30, 3)), ((5, 8, 3), (12, 1, 2, 45, 9)), ((6, 7, 5, 4), (3, 17))]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_pass_bitwise_equals_reference_loops(widths, rows, seed):
    rng = np.random.default_rng(seed)
    arch = nn.ModelArch(widths)
    model = random_model(arch, seed=seed)
    datasets = random_datasets(rng, arch, rows)
    want_loss, want_grad, want_ratio = reference.full_batch(arch, model.values, datasets)

    loss, grad, ratio = full_batch_pass(model, datasets)
    assert loss == want_loss and np.array_equal(grad, want_grad) and ratio == want_ratio
    got_loss, got_grad = global_objective(model, datasets)
    assert got_loss == want_loss and np.array_equal(got_grad, want_grad)
    assert gradient_dissimilarity(model, datasets) == want_ratio


@settings(max_examples=100, deadline=None)
@given(
    widths=st.lists(st.integers(1, 9), min_size=3, max_size=4).map(tuple),
    rows=st.lists(st.integers(1, 700), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_pass_bitwise_equals_reference_loops(widths, rows, seed):
    # 1-700 rows per dataset on a plan as tall as the largest: a block may
    # hold one dataset or several; 1-row datasets take numpy's gemv path
    rng = np.random.default_rng(seed)
    arch = nn.ModelArch(widths)
    model = random_model(arch, seed=seed)
    datasets = random_datasets(rng, arch, rows)
    want_loss, want_grad, want_ratio = reference.full_batch(arch, model.values, datasets)

    loss, grad, ratio = full_batch_pass(model, datasets)
    assert loss == want_loss and np.array_equal(grad, want_grad) and ratio == want_ratio


# plans of the tallest dataset with one lane (a block per dataset), of all
# rows with a lane each (one block) and of 642 rows and 3 lanes (three blocks)
@pytest.mark.parametrize("rows, lanes", [(640, 1), (1281, 7), (642, 3)])
@pytest.mark.parametrize("widths", [(9, 20, 3), (16, 64, 8), (5, 7, 4, 3)])
def test_block_size_does_not_change_the_bits(widths, rows, lanes):
    # on OpenBLAS 0.3.31 (x86-64) one product over a whole block gives some
    # rows of the first two architectures other bits than their own dataset's
    rng = np.random.default_rng(9)
    arch = nn.ModelArch(widths)
    model = random_model(arch, seed=9)
    datasets = random_datasets(rng, arch, (300, 1, 211, 2, 640, 90, 37))
    loss, grad, ratio = full_batch_pass(model, datasets)
    got_loss, got_grad, got_ratio = FullBatchPass(nn.TrainPlan(arch, rows, lanes), datasets)(model)
    assert got_loss == loss and got_grad.tobytes() == grad.tobytes() and got_ratio == ratio


def test_blocks_close_at_block_rows():
    # the bits hold for any blocking, so only the layout shows a block that
    # is closed late or early: a block takes the next dataset while its rows
    # stay within the plan's and its datasets within the plan's lanes
    rng = np.random.default_rng(3)
    datasets = random_datasets(rng, nn.ModelArch((4, 5, 3)), (300, 1, 211, 2, 640, 90, 37))

    def layout(rows, lanes):
        return [[len(d) for d in block] for block in diagnostics._blocks(datasets, rows, lanes)]

    assert layout(642, 3) == [[300, 1, 211], [2, 640], [90, 37]]
    assert layout(640, 2) == [[300, 1], [211, 2], [640], [90, 37]]


def overflowing_model(arch):
    """First-layer weights 0 and every other parameter 1e200: every hidden
    unit is 1e200 on every row, so every logit overflows to inf."""
    values = np.full(nn.param_count(arch), 1e200)
    nn.unpack(arch, values)[0][0][...] = 0.0
    return nn.ParamVector(arch, values)


@settings(max_examples=50, deadline=None)
@given(
    widths=st.lists(st.integers(1, 9), min_size=3, max_size=4).map(tuple),
    rows=st.lists(st.integers(1, 700), min_size=1, max_size=12),
    lanes=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_reused_plan_leaks_nothing_between_calls(widths, rows, lanes, seed):
    # finite models, then one that diverges, then finite ones again: every
    # result is bitwise what a fresh pass over the same datasets gives
    rng = np.random.default_rng(seed)
    arch = nn.ModelArch(widths)
    datasets = random_datasets(rng, arch, rows)
    plan = FullBatchPass(nn.TrainPlan(arch, max(rows), lanes), datasets)
    models = [random_model(arch, seed=(seed + i) % 2**32) for i in range(3)]
    for model in (*models, None, *models[::-1]):
        if model is None:
            with pytest.raises(DivergenceError):
                plan(overflowing_model(arch))
            continue
        want_loss, want_grad, want_ratio = reference.full_batch(arch, model.values, datasets)
        loss, grad, ratio = plan(model)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes() and ratio == want_ratio


def test_plan_boundary_errors():
    rng = np.random.default_rng(4)
    arch = nn.ModelArch((4, 5, 3))
    (data,) = random_datasets(rng, arch, (8,))
    plan = nn.TrainPlan(arch, 16, 2)
    with pytest.raises(ShapeError, match=r"plan is for layer widths \(4, 5, 3\), the model has \(4, 6, 3\)"):
        FullBatchPass(plan, [data])(random_model(nn.ModelArch((4, 6, 3)), seed=4))
    # no datasets is no pass, on a given plan or the one-shot form's
    model = random_model(arch, seed=4)
    for no_datasets in (lambda: FullBatchPass(plan, []), lambda: full_batch_pass(model, [])):
        with pytest.raises(DiagnosticsError, match="needs at least one dataset"):
            no_datasets()
    # a misfit dataset fails at construction, named by its position
    wide = LabeledDataset(rng.standard_normal((8, 5)), rng.integers(0, 3, 8), 3)
    with pytest.raises(ShapeError, match="^dataset 1 features"):
        FullBatchPass(plan, [data, wide])
    beyond = LabeledDataset(data.features, np.full(8, 5), 6)
    with pytest.raises(DataError, match="^dataset 1 labels"):
        FullBatchPass(plan, [data, beyond])


def test_a_pass_on_a_given_plan_keeps_its_steps():
    # a pass packs its blocks into the plan it is given: [300, 1, 211],
    # [2, 640] and [90, 37] on 642 rows and 3 lanes, more blocks on a smaller
    # plan. A plan that lets go of its bound steps (two generations on, or
    # two past its backstop) leaves the pass's to the pass, whose calls bind
    # nothing, and a pass on any plan as tall as its tallest dataset is
    # bitwise the reference; a shorter plan is refused
    rng = np.random.default_rng(6)
    arch = nn.ModelArch((5, 8, 3))
    datasets = random_datasets(rng, arch, (300, 1, 211, 2, 640, 90, 37))
    for rows, lanes, generations in ((642, 3, 2), (700, 10, 0), (640, 2, 1)):
        plan = nn.TrainPlan(arch, rows, lanes)
        full = FullBatchPass(plan, datasets)
        blocks = {tuple(map(len, block)) for block in diagnostics._blocks(datasets, rows, lanes)}
        assert len(blocks) == len(full._blocks) >= 3
        for _generation in range(generations):
            plan.new_generation()
        for n in range(1, 2 * nn.MAX_BOUND_STEPS + 1):
            plan.step(n)
        assert blocks.isdisjoint({*plan._steps, *plan._previous})
        plan._bind = None
        for seed in (0, 1):
            model = random_model(arch, seed=seed)
            want_loss, want_grad, want_ratio = reference.full_batch(arch, model.values, datasets)
            loss, grad, ratio = full(model)
            assert loss == want_loss and grad.tobytes() == want_grad.tobytes() and ratio == want_ratio
    with pytest.raises(ShapeError, match="a step of 640 rows does not fit a plan of 639 rows"):
        FullBatchPass(nn.TrainPlan(arch, 639, 7), datasets)


def test_a_warm_plan_call_allocates_no_block_sized_array():
    # the many_clients_diag benchmark problem at seed 1: 100 clients, 16-64-8
    # MLP, on the run's plan; one hidden layer of one block is 152-318 KiB
    cfg = ExperimentConfig(
        strategy="fedpdc_adaptive", penalty_mode="scaled_ce", clients=100, tau=0.1,
        beta=0.5, samples_per_class=1000, local_epochs=1, rounds=60,
        instrument_global_loss=True, emit_dissimilarity=True,
    )
    problem = build_problem(cfg, 1)
    model = problem.server.model
    datasets = [client.data for client in problem.clients]
    run_plan = round_plan(problem.server, problem.clients, cfg, problem.test_set)
    plan = FullBatchPass(run_plan, datasets)
    plan(model)
    tracemalloc.start()
    try:
        plan(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a warm call allocates the 12.6 KiB gradient it returns and numpy's
    # per-call bookkeeping, about 15 KiB in all
    assert peak < 32 * 1024


@pytest.mark.parametrize("diagnostic", [full_batch_pass, global_objective, gradient_dissimilarity])
class TestPassValidation:
    @staticmethod
    def _setup(input_dim=4, classes=3):
        rng = np.random.default_rng(6)
        model = random_model(nn.ModelArch((4, 5, 3)), seed=6)
        data = LabeledDataset(
            rng.standard_normal((8, input_dim)), rng.integers(0, classes, 8), classes
        )
        return model, data

    def test_no_datasets_rejected(self, diagnostic):
        model, _data = self._setup()
        with pytest.raises(DiagnosticsError):
            diagnostic(model, [])

    def test_feature_width_mismatch_is_shape_error(self, diagnostic):
        model, data = self._setup(input_dim=5)
        with pytest.raises(ShapeError):
            diagnostic(model, [data])

    def test_labels_beyond_model_outputs_are_data_error(self, diagnostic):
        model, data = self._setup(classes=6)
        data = LabeledDataset(data.features, np.full(8, 5), 6)
        with pytest.raises(DataError):
            diagnostic(model, [data])


# pyproject's "error" filter fails any numpy warning: a diverged model
# must surface as DivergenceError
@pytest.mark.parametrize("diagnostic", [global_objective, gradient_dissimilarity])
def test_huge_finite_model_is_divergence(diagnostic):
    rng = np.random.default_rng(5)
    arch = nn.ModelArch((4, 6, 3))
    model = nn.ParamVector(arch, np.full(nn.param_count(arch), 1e200))
    data = LabeledDataset(rng.standard_normal((12, 4)), rng.integers(0, 3, 12), 3)
    with pytest.raises(DivergenceError):
        diagnostic(model, [data, data])


class TestDescent:
    def test_missing_instrumentation_raises(self):
        # a round with a global loss but no squared gradient norm
        with pytest.raises(DiagnosticsError):
            descent_check([1.5], [], 1.0)

    def test_constant_model_has_zero_ratio(self):
        (out,) = descent_check([1.5], [0.25], 1.5)
        assert out.lambda_hat == 0.0

    def test_pairs_each_round_with_the_next(self):
        first, last = descent_check([2.0, 1.5], [0.25, 0.5], 1.0)
        assert (first.round, first.loss_before, first.loss_after, first.lambda_hat) == (0, 2.0, 1.5, 2.0)
        assert (last.round, last.loss_before, last.loss_after, last.lambda_hat) == (1, 1.5, 1.0, 1.0)

    def test_centralized_descent_oracle(self, toy_problem):
        # plain full-batch gradient descent must decrease the objective each step
        _pool, _server_set, rest, _part, clients, model = toy_problem
        datasets = [c.data for c in clients]
        opt = nn.OptimizerState(np.zeros(len(model)), lr=0.05)
        records = []
        for t in range(10):
            loss, grad = global_objective(model, datasets)
            model, opt = nn.sgd_step(model, grad, opt)
            loss_after, _ = global_objective(model, datasets)
            records.append(
                DescentRecord(
                    round=t,
                    loss_before=loss,
                    loss_after=loss_after,
                    grad_sqnorm=float(grad @ grad),
                    lambda_hat=(loss - loss_after) / float(grad @ grad),
                )
            )
        assert all(r.lambda_hat > 0 for r in records)
        mean, positive = descent_summary(records)
        assert mean > 0 and positive == 1.0


class TestTheoremConstant:
    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            L = rng.uniform(0.0, 5.0)
            mu = rng.uniform(0.1, 5.0)
            mu_bar = rng.uniform(0.05, mu)
            B = rng.uniform(0.0, 10.0)
            K = rng.uniform(1.0, 100.0)
            got = theorem_constant(TheoremConstants(L=L, mu=mu, mu_bar=mu_bar, B=B, K=K))
            want = reference.theorem_constant(L, mu, mu_bar, B, K)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_zero_smoothness_closed_form(self):
        c = TheoremConstants(L=0.0, mu=2.0, mu_bar=1.0, B=3.0, K=10.0)
        expected = 1.0 / 2.0 + math.sqrt(2.0) * 3.0 / (1.0 * math.sqrt(10.0))
        assert theorem_constant(c) == pytest.approx(expected, rel=1e-15)
        assert theorem_constant(c) > 0

    def test_large_k_limit(self):
        limit = 1.0 / 2.0 - (1.0 * 3.0) / (1.0 * 2.0) - (1.0 * 9.0) / 2.0
        got = theorem_constant(TheoremConstants(L=1.0, mu=2.0, mu_bar=1.0, B=3.0, K=1e12))
        assert got == pytest.approx(limit, abs=1e-4)

    def test_scan_in_b_decreases_through_zero(self):
        values = [
            theorem_constant(TheoremConstants(L=1.0, mu=2.0, mu_bar=1.0, B=b, K=100.0))
            for b in np.linspace(0.0, 8.0, 30)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] > 0 > values[-1]

    def test_rejects_violated_curvature_margin(self):
        with pytest.raises(ConfigError):
            TheoremConstants(L=1.0, mu=2.0, mu_bar=0.0, B=1.0, K=10.0)
        with pytest.raises(ConfigError):
            TheoremConstants(L=1.0, mu=0.0, mu_bar=1.0, B=1.0, K=10.0)


def write_history(path, accuracies):
    lines = ["round,selected,mean_local_loss,global_acc_server,global_acc_test,agg_weights,flags"]
    for t, acc in enumerate(accuracies):
        lines.append(f"{t},0,0.5,{acc},{acc},0:1.0,")
    path.write_text("\n".join(lines) + "\n")


class TestRoundsToTarget:
    def test_speedup_shape(self, tmp_path):
        base = tmp_path / "base.csv"
        cand = tmp_path / "cand.csv"
        write_history(base, list(np.linspace(0.0, 0.7, 100)))
        write_history(cand, list(np.linspace(0.0, 0.7, 25)))
        baseline_rounds = rounds_to_target(read_history_csv(base), 0.7)
        candidate_rounds = rounds_to_target(read_history_csv(cand), 0.7)
        assert (baseline_rounds, candidate_rounds) == (100, 25)
        assert speedup(baseline_rounds, candidate_rounds) == 4.0

    def test_unreached_target_is_none(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(path, [0.1, 0.2, 0.3])
        assert rounds_to_target(read_history_csv(path), 0.9) is None
        assert speedup(100, None) is None

    def test_identical_histories_unit_speedup(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(path, [0.2, 0.5, 0.8])
        r = rounds_to_target(read_history_csv(path), 0.75)
        assert speedup(r, r) == 1.0

    def test_malformed_csv_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("round,global_acc_test\n0,0.5\n1\n")
        with pytest.raises(DataError, match="line 3"):
            read_history_csv(path)

    def test_bad_metric_value_names_line(self, tmp_path):
        # float() reads "0_5" as 5.0, which "reached" any target up to 5,
        # and other scripts' digits as the numbers they name
        path = tmp_path / "h.csv"
        for cell in ("oops", "0_5", "０.５", "٠.٥"):
            path.write_text(f"round,global_acc_test\n0,0.25\n1,{cell}\n")
            with pytest.raises(DataError, match="line 3"):
                rounds_to_target(read_history_csv(path), 0.5)
