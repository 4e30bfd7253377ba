import math

import numpy as np
import pytest

from conftest import random_model
from fedsim import engine, nn
from fedsim.data import LabeledDataset, SyntheticSpec, dirichlet_partition, generate_synthetic
from fedsim.diagnostics import (
    DescentRecord,
    TheoremConstants,
    descent_check,
    descent_summary,
    dissimilarity_B,
    global_objective,
    gradient_dissimilarity,
    read_history_csv,
    rounds_to_target,
    speedup,
    theorem_constant,
)
from fedsim.errors import ConfigError, DataError, DiagnosticsError, DivergenceError


class TestAccuracyRatio:
    def test_equal_accuracies_give_unit_ratio(self):
        report = dissimilarity_B(0.8, [0.8, 0.8, 0.8])
        assert report.client_ratios == (1.0, 1.0, 1.0)
        assert report.max_ratio == 1.0

    def test_ratio_arithmetic(self):
        report = dissimilarity_B(0.9, [0.45, 0.9])
        assert report.client_ratios == (2.0, 1.0)
        assert report.max_ratio == 2.0

    def test_zero_accuracy_yields_flagged_sentinel(self):
        report = dissimilarity_B(0.5, [0.0, 0.5])
        assert math.isinf(report.client_ratios[0])
        assert any("zero_accuracy" in f for f in report.flags)

    def test_ratio_at_least_one_when_local_below_global(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            global_acc = rng.uniform(0.1, 1.0)
            locals_ = rng.uniform(0.01, global_acc, 4)
            report = dissimilarity_B(global_acc, list(locals_))
            assert all(r >= 1.0 for r in report.client_ratios)


def client_datasets(beta, seed, classes=8, per_class=120, dim=16):
    pool = generate_synthetic(SyntheticSpec(classes, per_class, dim, 0.6, seed=seed))
    part = dirichlet_partition(pool, 10, beta, seed)
    return [pool.subset(idx) for idx in part.client_indices]


class TestGradientRatio:
    def test_identical_clients_give_unit_ratio(self):
        rng = np.random.default_rng(1)
        data = LabeledDataset(rng.standard_normal((20, 4)), rng.integers(0, 3, 20), 3)
        model = random_model(nn.ModelArch((4, 6, 3)), seed=1)
        ratio = gradient_dissimilarity(model, [data, data, data], [20, 20, 20])
        assert abs(ratio - 1.0) < 1e-9

    def test_opposing_gradients_are_undefined(self):
        # zero model, flipped binary labels: per-sample deltas negate exactly
        rng = np.random.default_rng(2)
        features = rng.standard_normal((10, 3))
        a = LabeledDataset(features, np.zeros(10, dtype=int), 2)
        b = LabeledDataset(features, np.ones(10, dtype=int), 2)
        arch = nn.ModelArch((3, 2))
        model = nn.ParamVector(arch, np.zeros(nn.param_count(arch)))
        assert gradient_dissimilarity(model, [a, b], [10, 10]) is None

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(3)
        arch = nn.ModelArch((5, 6, 4))
        for seed in range(10):
            model = random_model(arch, seed=seed)
            datasets = [
                LabeledDataset(rng.standard_normal((15, 5)), rng.integers(0, 4, 15), 4)
                for _ in range(4)
            ]
            ratio = gradient_dissimilarity(model, datasets, [15, 15, 15, 15])
            assert ratio is None or ratio >= 1.0 - 1e-9

    def test_skewed_split_more_dissimilar_than_uniform(self):
        model = random_model(nn.ModelArch((16, 32, 8)), seed=0)
        ordered = 0
        for seed in range(5):
            low = gradient_dissimilarity(model, client_datasets(0.1, seed), [1] * 10)
            high = gradient_dissimilarity(model, client_datasets(1e6, seed), [1] * 10)
            ordered += low > high
        assert ordered == 5

    def test_size_weighted_expectation(self):
        # hand-built two-client case checked against the formula
        rng = np.random.default_rng(4)
        arch = nn.ModelArch((3, 2))
        model = random_model(arch, seed=4)
        a = LabeledDataset(rng.standard_normal((6, 3)), rng.integers(0, 2, 6), 2)
        b = LabeledDataset(rng.standard_normal((18, 3)), rng.integers(0, 2, 18), 2)
        g_a = nn.backward(model, nn.Batch(a.features, a.labels))
        g_b = nn.backward(model, nn.Batch(b.features, b.labels))
        num = math.sqrt(0.25 * float(g_a @ g_a) + 0.75 * float(g_b @ g_b))
        den = float(np.linalg.norm(0.25 * g_a + 0.75 * g_b))
        assert gradient_dissimilarity(model, [a, b], [6, 18]) == pytest.approx(num / den, rel=1e-12)


# "error": a diverged model must surface as DivergenceError, not a numpy warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagnostic", [global_objective, gradient_dissimilarity])
def test_huge_finite_model_is_divergence(diagnostic):
    rng = np.random.default_rng(5)
    arch = nn.ModelArch((4, 6, 3))
    model = nn.ParamVector(arch, np.full(nn.param_count(arch), 1e200))
    data = LabeledDataset(rng.standard_normal((12, 4)), rng.integers(0, 3, 12), 3)
    with pytest.raises(DivergenceError):
        diagnostic(model, [data, data], [12, 12])


class TestDescent:
    def _record(self, **kw):
        base = dict(
            round=0,
            selected=(0,),
            sent_accuracies={},
            measured_accuracies={},
            agg_weights={0: 1.0},
            mean_local_loss=0.0,
            global_acc_server=0.5,
            global_acc_test=0.5,
        )
        base.update(kw)
        return engine.RoundRecord(**base)

    def test_missing_instrumentation_raises(self):
        with pytest.raises(DiagnosticsError):
            descent_check([self._record()], 1.0)

    def test_constant_model_has_zero_ratio(self):
        rec = self._record(global_loss=1.5, global_grad_sqnorm=0.25)
        (out,) = descent_check([rec], 1.5)
        assert out.lambda_hat == 0.0

    def test_pairs_each_round_with_the_next(self):
        recs = [
            self._record(round=0, global_loss=2.0, global_grad_sqnorm=0.25),
            self._record(round=1, global_loss=1.5, global_grad_sqnorm=0.5),
        ]
        first, last = descent_check(recs, 1.0)
        assert (first.loss_before, first.loss_after, first.lambda_hat) == (2.0, 1.5, 2.0)
        assert (last.loss_before, last.loss_after, last.lambda_hat) == (1.5, 1.0, 1.0)

    def test_centralized_descent_oracle(self, toy_problem):
        # plain full-batch gradient descent must decrease the objective each step
        _pool, _server_set, rest, _part, clients, model = toy_problem
        datasets = [c.data for c in clients]
        sizes = [len(c.data) for c in clients]
        opt = nn.init_optimizer(model, lr=0.05)
        records = []
        for t in range(10):
            loss, grad = global_objective(model, datasets, sizes)
            model, opt = nn.sgd_step(model, grad, opt)
            loss_after, _ = global_objective(model, datasets, sizes)
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
    @staticmethod
    def _reference(L, mu, mu_bar, B, K):
        # independent arrangement: factor 1/mu_bar at the end of each term
        term1 = 1.0 / mu
        term2 = (L * B / mu) / mu_bar
        term3 = 0.5 * (L * B * B) / (mu_bar * mu_bar)
        term4 = (2.0 * L * B * B / K) / (mu_bar * mu_bar)
        term5 = (1.0 + (2.0 * L * B) / mu_bar) * B * math.sqrt(2.0 / K) / mu_bar
        return term1 - term2 - term3 - term4 + term5

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            L = rng.uniform(0.0, 5.0)
            mu = rng.uniform(0.1, 5.0)
            mu_bar = rng.uniform(0.05, mu)
            B = rng.uniform(0.0, 10.0)
            K = rng.uniform(1.0, 100.0)
            got = theorem_constant(TheoremConstants(L=L, mu=mu, mu_bar=mu_bar, B=B, K=K))
            want = self._reference(L, mu, mu_bar, B, K)
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
        baseline_rounds = rounds_to_target(base, 0.7)
        candidate_rounds = rounds_to_target(cand, 0.7)
        assert (baseline_rounds, candidate_rounds) == (100, 25)
        assert speedup(baseline_rounds, candidate_rounds) == 4.0

    def test_unreached_target_is_none(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(path, [0.1, 0.2, 0.3])
        assert rounds_to_target(path, 0.9) is None
        assert speedup(100, None) is None

    def test_identical_histories_unit_speedup(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(path, [0.2, 0.5, 0.8])
        r = rounds_to_target(path, 0.75)
        assert speedup(r, r) == 1.0

    def test_malformed_csv_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("round,global_acc_test\n0,0.5\n1\n")
        with pytest.raises(DataError, match="line 3"):
            read_history_csv(path)

    def test_bad_metric_value_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("round,global_acc_test\n0,oops\n")
        with pytest.raises(DataError, match="line 2"):
            rounds_to_target(path, 0.5)
