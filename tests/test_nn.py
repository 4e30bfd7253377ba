import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import random_batch, random_model
from fedsim import nn
from fedsim.errors import ConfigError, DataError, DivergenceError, EvaluationError, ShapeError


class TestInitModel:
    def test_deterministic_for_same_seed(self):
        arch = nn.ModelArch((2, 3, 2))
        a = nn.init_model(arch, 7)
        b = nn.init_model(arch, 7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, nn.init_model(arch, 8).values)

    def test_biases_are_zero(self):
        arch = nn.ModelArch((2, 3, 2))
        model = nn.init_model(arch, 123)
        for _w, b in nn.unpack(arch, model.values):
            assert np.all(b == 0.0)

    def test_weights_within_per_layer_bound(self):
        # bounds recomputed by hand: sqrt(6/(4+8)) then sqrt(6/(8+3))
        arch = nn.ModelArch((4, 8, 3))
        model = nn.init_model(arch, 1)
        layers = nn.unpack(arch, model.values)
        assert np.max(np.abs(layers[0][0])) <= math.sqrt(6.0 / 12.0)
        assert np.max(np.abs(layers[1][0])) <= math.sqrt(6.0 / 11.0)

    def test_rejects_invalid_arch(self):
        with pytest.raises(ConfigError):
            nn.ModelArch((3, 0, 2))
        with pytest.raises(ConfigError):
            nn.ModelArch((5,))

    @pytest.mark.parametrize("widths", [(4, 2.7), (4, True), (4.0, 2)])
    def test_rejects_a_width_that_is_not_an_integer(self, widths):
        # (4, 2.7) used to become (4, 2)
        with pytest.raises(ConfigError, match="integers"):
            nn.ModelArch(widths)

    def test_numpy_integer_widths_are_held_as_ints(self):
        assert nn.ModelArch((np.int64(4), 2)).layer_widths == (4, 2)


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        arch = nn.ModelArch((3, 4, 2))
        model = nn.ParamVector(arch, np.zeros(nn.param_count(arch)))
        batch = random_batch(arch, 5, seed=0)
        assert np.all(nn.forward(model, batch) == 0.0)

    def test_identity_single_layer(self):
        arch = nn.ModelArch((2, 2))
        model = nn.ParamVector(arch, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
        batch = nn.Batch(np.array([[3.0, -1.0]]), np.array([0]))
        assert np.array_equal(nn.forward(model, batch), [[3.0, -1.0]])

    def test_matches_straight_line_reimplementation(self):
        arch = nn.ModelArch((4, 6, 3))
        model = random_model(arch, seed=5)
        batch = random_batch(arch, 5, seed=5)
        (w1, b1), (w2, b2) = nn.unpack(arch, model.values)
        expected = np.empty((5, 3))
        for i in range(5):
            hidden = np.array(
                [max(0.0, sum(batch.features[i][k] * w1[k][j] for k in range(4)) + b1[j]) for j in range(6)]
            )
            expected[i] = [sum(hidden[j] * w2[j][o] for j in range(6)) + b2[o] for o in range(3)]
        assert np.allclose(nn.forward(model, batch), expected, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        arch = nn.ModelArch((4, 3))
        model = random_model(arch, seed=0)
        bad = nn.Batch(np.ones((2, 5)), np.array([0, 1]))
        with pytest.raises(ShapeError):
            nn.forward(model, bad)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 4, 7):
            logits = np.ones((3, c)) * 0.37
            assert nn.cross_entropy(logits, np.zeros(3, dtype=int)) == pytest.approx(math.log(c), rel=1e-12)

    def test_extreme_margin(self):
        # -log(sigmoid(20)) = log1p(exp(-20))
        loss = nn.cross_entropy(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
        assert loss == pytest.approx(2.061e-9, rel=1e-3)

    def test_loss_decreases_with_margin(self):
        losses = [
            nn.cross_entropy(np.array([[m, 0.0, 0.0]]), np.array([0])) for m in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nn.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_zero_rows_is_shape_error(self):
        with pytest.raises(ShapeError):
            nn.cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestBackward:
    def test_symmetric_point_output_bias_gradient(self):
        # zero weights -> uniform softmax; bias grad = mean softmax - mean onehot
        arch = nn.ModelArch((3, 2))
        model = nn.ParamVector(arch, np.zeros(nn.param_count(arch)))
        batch = nn.Batch(np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]]), np.array([0, 1]))
        grad = nn.backward(model, batch)
        bias_grad = nn.unpack(arch, grad)[-1][1]
        assert np.allclose(bias_grad, [0.0, 0.0], atol=1e-15)

        unbalanced = nn.Batch(batch.features, np.array([0, 0]))
        bias_grad = nn.unpack(arch, nn.backward(model, unbalanced))[-1][1]
        assert np.allclose(bias_grad, [-0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        arch = nn.ModelArch((5, 8, 4))
        model = nn.init_model(arch, seed)
        batch = random_batch(arch, 7, seed=seed)
        analytic = nn.backward(model, batch)
        # step small enough that no relu kink falls inside the probe interval
        numeric = nn.central_difference(
            lambda v: reference.loss_and_grad(arch, v, batch.features, batch.labels)[0],
            model.values,
            step=1e-5,
        )
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        assert rel < 1e-4

    def test_duplicated_batch_mean_invariance(self):
        arch = nn.ModelArch((4, 5, 3))
        model = random_model(arch, seed=3)
        batch = random_batch(arch, 6, seed=3)
        doubled = nn.Batch(
            np.repeat(batch.features, 2, axis=0), np.repeat(batch.labels, 2)
        )
        assert np.allclose(nn.backward(model, batch), nn.backward(model, doubled), rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch_is_shape_error(self):
        # the error forward raises, not numpy's matmul ValueError
        model = random_model(nn.ModelArch((4, 3)), seed=0)
        bad = nn.Batch(np.ones((2, 5)), np.array([0, 1]))
        with pytest.raises(ShapeError, match="features have 5 columns, architecture expects 4"):
            nn.backward(model, bad)

    def test_label_beyond_outputs_is_data_error(self):
        model = random_model(nn.ModelArch((4, 3)), seed=0)
        with pytest.raises(DataError, match=r"labels must lie in \[0, 3\)"):
            nn.backward(model, nn.Batch(np.ones((2, 4)), np.array([0, 3])))


class TestFiniteDiff:
    def test_exact_for_quadratic(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        quad = a @ a.T
        lin = rng.standard_normal(6)
        x = rng.standard_normal(6)

        def loss(v):
            return 0.5 * float(v @ quad @ v) + float(lin @ v)

        numeric = nn.central_difference(loss, x, step=1e-3)
        assert np.allclose(numeric, quad @ x + lin, rtol=1e-9, atol=1e-9)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            nn.central_difference(lambda v: float(v @ v), np.ones(3), step=0.0)


class TestSgdStep:
    def _model(self, values):
        arch = nn.ModelArch((1, 1))
        return nn.ParamVector(arch, np.asarray(values, dtype=float))

    def _opt(self, **kwargs):
        return nn.OptimizerState(np.zeros(2), **kwargs)

    def test_plain_step(self):
        model = self._model([0.0, 0.0])
        opt = self._opt(lr=0.1)
        new, _ = nn.sgd_step(model, np.array([1.0, 1.0]), opt)
        assert np.allclose(new.values, [-0.1, -0.1], atol=0)

    def test_momentum_two_step_unroll(self):
        # displacement after two constant-gradient steps: -lr * (g + 1.9 g)
        model = self._model([0.3, -0.2])
        grad = np.array([0.7, -1.1])
        opt = self._opt(lr=0.05, momentum=0.9)
        m1, opt = nn.sgd_step(model, grad, opt)
        m2, _ = nn.sgd_step(m1, grad, opt)
        assert np.allclose(m2.values - model.values, -0.05 * (grad + 1.9 * grad), rtol=1e-15)

    def test_zero_lr_is_identity(self):
        model = self._model([1.0, 2.0])
        opt = self._opt(lr=0.0, momentum=0.5)
        new, _ = nn.sgd_step(model, np.array([5.0, -5.0]), opt)
        assert np.array_equal(new.values, model.values)

    def test_weight_decay_enters_buffer(self):
        model = self._model([2.0, -4.0])
        opt = self._opt(lr=0.1, weight_decay=0.01)
        new, new_opt = nn.sgd_step(model, np.zeros(2), opt)
        assert np.allclose(new_opt.momentum_buffer, 0.01 * model.values, atol=0)
        assert np.allclose(new.values, model.values * (1 - 0.1 * 0.01), rtol=1e-15)

    def test_length_mismatch(self):
        model = self._model([0.0, 0.0])
        opt = self._opt(lr=0.1)
        with pytest.raises(ShapeError):
            nn.sgd_step(model, np.array([1.0]), opt)


class TestEvaluateAccuracy:
    def test_perfect_model(self):
        from fedsim.data import LabeledDataset

        arch = nn.ModelArch((2, 2))
        # weights = identity: logit_c = x_c, samples are one-hot features
        model = nn.ParamVector(arch, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
        data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
        assert nn.evaluate_accuracy(model, data) == 1.0

    def test_constant_logits_tie_break_to_class_zero(self):
        from fedsim.data import LabeledDataset

        arch = nn.ModelArch((3, 4))
        model = nn.ParamVector(arch, np.zeros(nn.param_count(arch)))
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.standard_normal((40, 3)), np.tile(np.arange(4), 10), 4)
        assert nn.evaluate_accuracy(model, data) == 0.25

    def test_matches_loop_recount(self):
        from fedsim.data import LabeledDataset

        arch = nn.ModelArch((5, 6, 3))
        model = random_model(arch, seed=9)
        rng = np.random.default_rng(9)
        data = LabeledDataset(rng.standard_normal((30, 5)), rng.integers(0, 3, 30), 3)
        hits = 0
        for i in range(30):
            logits = nn.forward(model, nn.Batch(data.features[i : i + 1], data.labels[i : i + 1]))[0]
            best = 0
            for c in range(1, 3):
                if logits[c] > logits[best]:
                    best = c
            hits += best == data.labels[i]
        assert nn.evaluate_accuracy(model, data) == hits / 30

    def test_full_set_matches_plain_forward_argmax(self):
        from fedsim.data import LabeledDataset

        arch = nn.ModelArch((16, 64, 8))
        model = random_model(arch, seed=4)
        rng = np.random.default_rng(4)
        data = LabeledDataset(rng.standard_normal((320, 16)), rng.integers(0, 8, 320), 8)
        # the logits written without in-place steps: one temporary per operation
        (w1, b1), (w2, b2) = nn.unpack(arch, model.values)
        plain = np.maximum(data.features @ w1 + b1, 0.0) @ w2 + b2
        logits = nn.forward(model, nn.Batch(data.features, data.labels))
        assert np.array_equal(logits, plain)
        expected = float(np.mean(np.argmax(logits, axis=1) == data.labels))
        assert nn.evaluate_accuracy(model, data) == expected

    def test_empty_dataset_rejected(self):
        class Empty:
            def __len__(self):
                return 0

        model = random_model(nn.ModelArch((2, 2)), seed=0)
        with pytest.raises(EvaluationError):
            nn.evaluate_accuracy(model, Empty())

    def test_class_count_mismatch_rejected(self):
        # judged by nn.check_fits, as training judges client data
        from fedsim.data import LabeledDataset

        model = random_model(nn.ModelArch((2, 2)), seed=0)
        data = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 3)
        with pytest.raises(DataError, match=r"evaluation set labels must lie in \[0, 2\)"):
            nn.evaluate_accuracy(model, data)

    def test_feature_width_mismatch_names_the_set(self):
        from fedsim.data import LabeledDataset

        model = random_model(nn.ModelArch((4, 3)), seed=0)
        data = LabeledDataset(np.zeros((3, 5)), np.array([0, 1, 2]), 3)
        with pytest.raises(ShapeError, match="evaluation set features have 5 columns"):
            nn.evaluate_accuracy(model, data)

    def test_labels_the_model_outputs_are_scored_whatever_num_classes_says(self):
        from fedsim.data import LabeledDataset

        model = random_model(nn.ModelArch((2, 2)), seed=0)
        data = LabeledDataset(np.eye(2), np.array([0, 1]), 4)
        logits = nn.forward(model, nn.Batch(data.features, data.labels))
        expected = float(np.mean(np.argmax(logits, axis=1) == data.labels))
        assert nn.evaluate_accuracy(model, data) == expected

    # "error": a diverged model must surface as DivergenceError, not a numpy warning
    @pytest.mark.filterwarnings("error")
    def test_huge_finite_model_is_divergence(self):
        from fedsim.data import LabeledDataset

        arch = nn.ModelArch((4, 5, 3))
        model = nn.ParamVector(arch, np.full(nn.param_count(arch), 1e200))
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.standard_normal((10, 4)), rng.integers(0, 3, 10), 3)
        with pytest.raises(DivergenceError):
            nn.evaluate_accuracy(model, data)

    # scoring first sums the logits: a finite sum has only finite terms, and
    # only a sum that is not finite sends it to the exact check
    @pytest.mark.filterwarnings("error")
    def test_finite_logits_whose_sum_overflows_are_scored(self):
        from fedsim.data import LabeledDataset

        # every row's logits are (1e308, 1e308): a tie, scored as class 0
        model = nn.ParamVector(nn.ModelArch((1, 2)), np.array([1e308, 1e308, 0.0, 0.0]))
        data = LabeledDataset(np.ones((3, 1)), np.array([0, 1, 0]), 2)
        accuracy = nn.evaluate_accuracy(model, data, nn.TrainPlan(model.arch, 3))
        assert type(accuracy) is float and accuracy == 2 / 3

    @pytest.mark.filterwarnings("error")
    def test_a_single_infinite_logit_is_divergence(self):
        from fedsim.data import LabeledDataset

        # only row 1's first logit, 2 * 1e308, overflows
        model = nn.ParamVector(nn.ModelArch((1, 2)), np.array([1e308, 1.0, 0.0, 0.0]))
        data = LabeledDataset(np.array([[1.0], [2.0], [0.5]]), np.array([0, 1, 0]), 2)
        with pytest.raises(DivergenceError):
            nn.evaluate_accuracy(model, data)


class TestReluMask:
    """TrainPlan's backward masks the delta with (act > 0) as floats, where
    act = max(pre, 0): the reference's mask, and np.sign(act) bit for bit on
    every number because np.maximum never returns -0.0 there."""

    def test_relu_of_negative_zero_is_positive_zero(self):
        # lengths 1-64 reach the scalar loop and every SIMD tail; contiguous,
        # strided and reversed inputs, and the in-place form the plan runs
        for n in range(1, 65):
            rng = np.random.default_rng(n)
            pre = rng.choice([-0.0, 0.0, -1.5, 2.5], size=2 * n)
            pre[rng.integers(0, 2 * n)] = -0.0
            for x in (pre[:n], pre[::2], pre.reshape(2, n)[:, ::-1], np.full(n, -0.0)):
                want = np.where(x > 0.0, x, 0.0)
                inplace = x.copy()
                np.maximum(inplace, 0.0, out=inplace)
                for got in (np.maximum(x, 0.0), inplace):
                    assert got.tobytes() == want.tobytes() and not np.signbit(got).any(), (n, x)

    def test_the_mask_is_the_sign_of_the_activation(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        values = [0.0, tiny, 1e3 * tiny, np.finfo(np.float64).tiny, 1e-300, 0.5, 1.0, 1.5, 1e300, np.inf, np.nan]
        for n in range(1, 65):
            act = np.maximum(np.random.default_rng(n).choice(values, size=n), 0.0)
            is_active, mask = np.empty(n, dtype=bool), np.empty(n)
            np.greater(act, 0.0, is_active)
            np.copyto(mask, is_active)
            number = ~np.isnan(act)
            assert mask[number].tobytes() == np.sign(act[number]).tobytes(), act
            assert mask.tobytes() == (act > 0.0).astype(np.float64).tobytes(), act

    @settings(max_examples=30, deadline=None)
    @given(widths=st.sampled_from([(3, 5, 2), (4, 6, 5, 3)]), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_a_step_backpropagates_through_the_sign_of_the_activation(self, widths, rows, seed):
        # reference.loss_and_grad with np.sign(act) for its (act > 0) mask;
        # scaled weights put activations below, at and above 1, and zero
        # feature rows and dead units give activations of exactly 0
        arch = nn.ModelArch(widths)
        rng = np.random.default_rng(seed)
        values = rng.choice([0.3, 1.0, 3.0]) * rng.standard_normal(nn.param_count(arch))
        features = rng.standard_normal((rows, widths[0])) * (rng.random((rows, 1)) < 0.8)
        labels = rng.integers(0, widths[-1], rows)
        layers = nn.unpack(arch, values)
        *acts, logits = reference.forward(layers, features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        delta = exp / exp.sum(axis=1, keepdims=True)
        delta[np.arange(rows), labels] -= 1.0
        delta /= rows
        want = np.empty_like(values)
        grad_layers = nn.unpack(arch, want)
        for li in range(len(layers) - 1, -1, -1):
            grad_layers[li][0][:] = acts[li].T @ delta
            grad_layers[li][1][:] = delta.sum(axis=0)
            delta = (delta @ layers[li][0].T) * np.sign(acts[li])
        plan = nn.TrainPlan(arch, rows)
        np.copyto(plan.values, values)
        _fill(plan, features)
        plan.step(rows)(labels)
        assert plan.grads[0].tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        arch = nn.ModelArch((4, 7, 3))
        model = random_model(arch, seed=21)
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        assert loaded.arch == arch
        assert np.array_equal(loaded.values, model.values)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"fedsim-model v1; arch=4,7,3"

    def test_truncated_payload_rejected(self, tmp_path):
        arch = nn.ModelArch((2, 2))
        model = random_model(arch, seed=0)
        path = tmp_path / "model.bin"
        nn.save_model(model, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError):
            nn.load_model(path)

    @pytest.mark.parametrize(
        "header, payload",
        [
            (b"arch=4,0,3", b""),
            (b"arch=5", b""),
            (b"arch=1,1", np.array([np.nan, 0.0]).astype("<f8").tobytes()),
            # int() reads each of these widths as 2, 2 and 16, and the
            # payload fits what it reads; save_model writes bare digits
            (b"arch=1, 2", bytes(8 * 4)),
            (b"arch=1,+2", bytes(8 * 4)),
            (b"arch=1,1_6", bytes(8 * 32)),
        ],
        ids=["zero_width", "one_width", "nan_payload", "spaced_width", "signed_width", "underscored_width"],
    )
    def test_malformed_checkpoint_is_data_error_naming_the_path(self, tmp_path, header, payload):
        path = tmp_path / "model.bin"
        path.write_bytes(b"fedsim-model v1; " + header + b"\n" + payload)
        with pytest.raises(DataError, match=re.escape(str(path))):
            nn.load_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"something else\n" + b"\x00" * 16)
        with pytest.raises(DataError):
            nn.load_model(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batch_permutation_symmetry(seed):
    rng = np.random.default_rng(seed)
    arch = nn.ModelArch((4, 5, 3))
    model = random_model(arch, seed=seed)
    batch = random_batch(arch, 8, seed=seed)
    perm = rng.permutation(8)
    permuted = nn.Batch(batch.features[perm], batch.labels[perm])
    logits, logits_p = nn.forward(model, batch), nn.forward(model, permuted)
    assert nn.cross_entropy(logits, batch.labels) == pytest.approx(
        nn.cross_entropy(logits_p, permuted.labels), rel=1e-12
    )
    assert np.allclose(nn.backward(model, batch), nn.backward(model, permuted), rtol=1e-10, atol=1e-14)


def test_forward_is_pure():
    arch = nn.ModelArch((3, 4, 2))
    model = random_model(arch, seed=4)
    batch = random_batch(arch, 5, seed=4)
    assert np.array_equal(nn.forward(model, batch), nn.forward(model, batch))


def test_construction_leaves_caller_arrays_writable():
    arch = nn.ModelArch((2, 2))
    values = np.zeros(nn.param_count(arch))
    model = nn.ParamVector(arch, values)
    values[0] = 1.0  # caller's buffer must stay writable and independent
    assert model.values[0] == 0.0
    with pytest.raises(ValueError):
        model.values[0] = 2.0


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=2),
    in_dim=st.integers(min_value=1, max_value=5),
    out_dim=st.integers(min_value=2, max_value=5),
    size=st.integers(min_value=1, max_value=9),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
# full-batch sizes, where a hidden layer's output is an array of >= 128 KiB
@example(hidden=[64], in_dim=5, out_dim=5, size=256, scale=1.0, seed=0)
@example(hidden=[64, 6], in_dim=3, out_dim=4, size=289, scale=0.1, seed=1)
@example(hidden=[64, 64], in_dim=5, out_dim=2, size=320, scale=30.0, seed=2)
def test_loss_and_grad_equals_forward_cross_entropy_backward(hidden, in_dim, out_dim, size, scale, seed):
    arch = nn.ModelArch((in_dim, *hidden, out_dim))
    model = nn.ParamVector(arch, scale * random_model(arch, seed).values)
    batch = random_batch(arch, size, seed)
    want_ce, want_grad = reference.loss_and_grad(arch, model.values, batch.features, batch.labels)
    ce, grad = nn.loss_and_grad(arch, model.values, batch.features, batch.labels)
    assert ce == want_ce and np.array_equal(grad, want_grad)
    assert nn.cross_entropy(nn.forward(model, batch), batch.labels) == want_ce
    assert np.array_equal(nn.backward(model, batch), want_grad)


# each of these used to be cast without a word (labels [0.7, 1.9] became
# [0, 1], bools 0/1) or to raise a raw ValueError (string features)
@pytest.mark.parametrize(
    "features, labels, problem",
    [
        (np.ones((2, 3)), np.array([0.7, 1.9]), "labels must be integers"),
        (np.ones((2, 3)), np.array([True, False]), "labels must be integers"),
        (np.array([["a", "b"], ["c", "d"]]), np.array([0, 1]), "features must be numbers"),
        ([[1.0, 2.0], [3.0]], [0, 1], "features are not a rectangular matrix"),
        (np.ones(3), np.array([0, 1, 2]), "features must be a nonempty 2-d matrix"),
        (np.ones((2, 3)), np.array([0, 1, 2]), "labels must be a vector"),
        (np.array([[np.nan, 0.0]]), np.array([0]), "features must be finite"),
        (np.ones((2, 3)), np.array([0, -1]), "labels must be nonnegative"),
    ],
)
def test_batch_names_a_mistyped_input(features, labels, problem):
    with pytest.raises(DataError, match=problem):
        nn.Batch(features, labels)


def _fill(plan, *features):
    """plan's inputs, row after row, filled with the rows of each feature
    matrix in turn, as a step's caller fills them."""
    rows = np.concatenate(features)
    plan.inputs[: len(rows)] = rows


@settings(max_examples=60, deadline=None)
@given(
    # 0, 1 or 2 hidden layers
    widths=st.lists(st.integers(1, 9) | st.just(64), min_size=2, max_size=4).map(tuple),
    rows=st.integers(1, 70),
    sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    zero=st.sampled_from([None, 0.0, -0.0]),
)
# a hidden unit with a zero weight column and a zero bias, of either sign:
# its pre-activation is a zero on every row, where the reference's ReLU mask
# (acts > 0.0) is False and a mask that is 1 at zero changes the gradient
@example(widths=(3, 4, 2), rows=6, sizes=[2, 5], seed=0, zero=0.0)
@example(widths=(5, 64, 4, 3), rows=40, sizes=[1, 33], seed=1, zero=-0.0)
@example(widths=(1, 2, 2), rows=3, sizes=[3], seed=2, zero=-0.0)
def test_plan_step_equals_reference(widths, rows, sizes, seed, zero):
    # one plan for every call: steps of the drawn sizes (capped at rows) and
    # of rows itself, each followed by a step on overflowing input, so
    # whatever that leaves in the workspace must not reach the next call.
    # Given zero, every hidden layer's first unit has a weight column and a
    # bias of that zero
    arch = nn.ModelArch(widths)
    plan = nn.TrainPlan(arch, rows)
    rng = np.random.default_rng(seed)
    for r in [min(size, rows) for size in sizes] + [rows]:
        values = rng.choice([0.1, 1.0, 30.0]) * rng.standard_normal(nn.param_count(arch))
        if zero is not None:
            for weight, bias in nn.unpack(arch, values)[:-1]:
                weight[:, 0], bias[0] = zero, zero
        features = rng.standard_normal((r, arch.input_dim))
        labels = rng.integers(0, arch.output_dim, r)
        np.copyto(plan.values, values)
        _fill(plan, features)
        (ce,) = plan.step(r)(labels)
        want_ce, want_grad = reference.loss_and_grad(arch, values, features, labels)
        assert ce == want_ce and plan.grads[0].tobytes() == want_grad.tobytes()
        np.copyto(plan.values, 1e200)
        _fill(plan, 1e200 * features)
        with np.errstate(over="ignore", invalid="ignore"):
            plan.step(r)(labels)


@settings(max_examples=80, deadline=None)
@given(
    # 0, 1 or 2 hidden layers; an output width of 1 included
    widths=st.lists(st.integers(1, 9) | st.just(64), min_size=2, max_size=4).map(tuple),
    # 1-row segments take np.matmul; totals of 1-120 rows lie on both
    # sides of nn.COLUMN_MAX_ROWS (32), where the row max changes form
    draws=st.lists(st.lists(st.just(1) | st.integers(1, 24), min_size=1, max_size=5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(widths=(3, 1), draws=[[1, 1, 1], [32], [1, 29, 1], [48]], seed=0)
@example(widths=(5, 64, 4, 1), draws=[[1], [30, 1, 30], [7]], seed=1)
def test_plan_segments_equal_their_own_steps(widths, draws, seed):
    # every lane holds the same parameters, so each segment's loss and
    # gradient are its rows' under one model; one plan for every draw, each
    # followed by a step on overflowing input, so whatever that leaves in
    # the workspace must not reach the next draw
    arch = nn.ModelArch(widths)
    plan = nn.TrainPlan(arch, max(map(sum, draws)), max(map(len, draws)))
    rng = np.random.default_rng(seed)
    for sizes in draws:
        values = rng.choice([0.1, 1.0, 30.0]) * rng.standard_normal(nn.param_count(arch))
        features = [rng.standard_normal((n, arch.input_dim)) for n in sizes]
        labels = [rng.integers(0, arch.output_dim, n) for n in sizes]
        all_labels = np.concatenate(labels)
        np.copyto(plan.values, values)
        _fill(plan, *features)
        losses = plan.step(sizes)(all_labels)
        assert len(losses) == len(sizes)
        for k, (ce, feats, labs) in enumerate(zip(losses, features, labels)):
            want_ce, want_grad = reference.loss_and_grad(arch, values, feats, labs)
            assert ce == want_ce and plan.grads[k].tobytes() == want_grad.tobytes(), (sizes, k)
        np.copyto(plan.values, 1e200)
        _fill(plan, *(1e200 * feats for feats in features))
        with np.errstate(over="ignore", invalid="ignore"):
            plan.step(sizes)(all_labels)


@pytest.mark.parametrize(
    "sizes",
    [(1,), (6, 6, 6), (4, 1, 7, 2), (1, 5, 5, 3)],
    ids=["one_row", "stacked", "ragged", "mixed"],
)
def test_a_step_reads_only_its_input_rows_and_labels(sizes):
    # the input rows past the step's and the lane past its segments hold
    # NaN, and the caller's features turn NaN once they are copied in: the
    # logits, losses and gradients are still bitwise the reference's
    arch = nn.ModelArch((5, 9, 6, 4))
    rng = np.random.default_rng(len(sizes))
    r, count = sum(sizes), len(sizes)
    plan = nn.TrainPlan(arch, r + 5, count + 1)
    values = rng.standard_normal((count, nn.param_count(arch)))
    features = rng.standard_normal((r, arch.input_dim))
    labels = rng.integers(0, arch.output_dim, r)
    segments = [slice(end - n, end) for n, end in zip(sizes, itertools.accumulate(sizes))]
    want = [reference.loss_and_grad(arch, v, features[rows], labels[rows]) for v, rows in zip(values, segments)]
    want_logits = np.concatenate(
        [reference.forward(nn.unpack(arch, v), features[rows])[-1] for v, rows in zip(values, segments)]
    )
    step = plan.step(sizes)
    plan.values[:count], plan.values[count] = values, np.nan
    plan.inputs.fill(np.nan)
    _fill(plan, features)
    features.fill(np.nan)
    assert step(None).tobytes() == want_logits.tobytes()
    losses = step(labels)
    for k, (want_ce, want_grad) in enumerate(want):
        assert losses[k] == want_ce and plan.grads[k].tobytes() == want_grad.tobytes(), (sizes, k)


def test_plan_rejects_rows_it_cannot_hold():
    arch = nn.ModelArch((4, 5, 3))
    for rows in (0, 2.0, True):
        with pytest.raises(ShapeError, match="row count"):
            nn.TrainPlan(arch, rows)
    for lanes in (0, 2.0, True):
        with pytest.raises(ShapeError, match="lane count"):
            nn.TrainPlan(arch, 6, lanes)
    plan = nn.TrainPlan(arch, 6, 3)
    plan.step(2), plan.step(1), plan.step((2, 2))
    with pytest.raises(ShapeError, match="a step of 7 rows does not fit a plan of 6 rows"):
        plan.step(7)
    with pytest.raises(ShapeError, match="a step of 7 rows does not fit a plan of 6 rows"):
        plan.step((3, 3, 1))
    with pytest.raises(ShapeError, match="a step takes 1 to 3 segments"):
        plan.step((1, 1, 1, 1))
    for sizes in (0, (2, 0), (3, -1), ()):
        with pytest.raises(ShapeError):
            plan.step(sizes)
    # a warm plan holds the steps of 2, 1 and (2, 2), which these equal
    for sizes in (2.0, True, 2.5, (2, 2.0), [np.float64(1.0)], "2"):
        with pytest.raises(ShapeError, match="segment sizes must be integers"):
            plan.step(sizes)


def test_a_warm_step_allocates_no_batch_sized_array():
    # batch 64 on 16-64-8: the hidden layer's output is 32 KiB, the logits
    # 4 KiB and a row vector 512 bytes. A warm step allocates only numpy's
    # per-call bookkeeping, about 1.1-1.4 KiB here at any row count
    arch = nn.ModelArch((16, 64, 8))
    rng = np.random.default_rng(0)
    plan = nn.TrainPlan(arch, 64)
    np.copyto(plan.values, random_model(arch, seed=0).values)
    features, labels = rng.standard_normal((64, 16)), rng.integers(0, 8, 64)
    step = plan.step(64)
    _fill(plan, features)
    step(labels)
    tracemalloc.start()
    try:
        step(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024


@settings(max_examples=60, deadline=None)
@given(
    # 0, 1 or 2 hidden layers; an output width of 1 included
    widths=st.lists(st.integers(1, 9) | st.just(64), min_size=2, max_size=4).map(tuple),
    # 1-row sets take np.matmul; one plan sized for the largest set
    sizes=st.lists(st.just(1) | st.integers(1, 70), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(widths=(3, 1), sizes=[1, 40, 1], seed=0)
@example(widths=(5, 64, 4, 1), sizes=[33, 1, 70], seed=1)
def test_forward_step_is_the_reference_forward_and_scores_its_logits(widths, sizes, seed):
    # the forward-only step, nn.forward and scoring all read the reference's
    # logits; each set is then scored by an overflowing model on the same
    # plan, and whatever that leaves in the workspace must not reach the next
    from fedsim.data import LabeledDataset

    arch = nn.ModelArch(widths)
    plan = nn.TrainPlan(arch, max(sizes))
    rng = np.random.default_rng(seed)
    huge = nn.ParamVector(arch, np.full(nn.param_count(arch), 1e200))
    for n in sizes:
        model = nn.ParamVector(arch, rng.choice([0.1, 1.0, 30.0]) * rng.standard_normal(nn.param_count(arch)))
        features, labels = rng.standard_normal((n, arch.input_dim)), rng.integers(0, arch.output_dim, n)
        data = LabeledDataset(features, labels, arch.output_dim)
        want = reference.forward(nn.unpack(arch, model.values), features)[-1]
        _fill(plan, features)
        assert plan.load(model).step(n)(None).tobytes() == want.tobytes()
        assert nn.forward(model, nn.Batch(features, labels)).tobytes() == want.tobytes()
        hits = np.argmax(want, axis=1) == labels
        assert nn.evaluate_accuracy(model, data, plan) == float(np.mean(hits))
        overflowing = LabeledDataset(1e200 * data.features, data.labels, arch.output_dim)
        try:
            nn.evaluate_accuracy(huge, overflowing, plan)
        except DivergenceError:
            pass


def test_a_warm_scoring_call_allocates_no_set_sized_array():
    # 512 rows on 16-64-8: the features are 64 KiB, the hidden layer's
    # output 256 KiB and the logits 32 KiB. A warm call on a shared plan
    # allocates only the finiteness mask, the argmax and the hit mask of
    # its rows (8.5 KiB here) and numpy's per-call bookkeeping
    from fedsim.data import LabeledDataset

    arch = nn.ModelArch((16, 64, 8))
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.standard_normal((512, 16)), rng.integers(0, 8, 512), 8)
    model, plan = random_model(arch, seed=0), nn.TrainPlan(arch, 512)
    want = nn.evaluate_accuracy(model, data, plan)
    tracemalloc.start()
    try:
        assert nn.evaluate_accuracy(model, data, plan) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 512])
def test_dot_for_equals_matmul_on_the_shapes_fedsim_multiplies(rows):
    # TrainPlan, FullBatchPass and scoring multiply with nn.dot_for, the
    # reference with np.matmul: a numpy or BLAS change that parts them fails
    # here by name, not only as a fingerprint mismatch. A fifth of the
    # entries are signed zeros, where np.dot's 1x1 by 1x1 product differs
    rng = np.random.default_rng(rows)
    dot = nn.dot_for(rows)
    assert dot is (np.dot if rows > 1 else np.matmul)

    def draw(shape):
        values = rng.standard_normal(shape)
        values[rng.random(shape) < 0.2] = 0.0
        return np.copysign(values, rng.standard_normal(shape))

    for w_in, w_out in itertools.product((1, 3, 5, 8, 16, 64), repeat=2):
        act, weight, delta = draw((rows, w_in)), draw((w_in, w_out)), draw((rows, w_out))
        # forward, weight gradient, backward; each into rows of a taller workspace
        for a, b in ((act, weight), (act.T, delta), (delta, weight.T)):
            out = np.empty((a.shape[0] + 5, b.shape[1]))[2 : 2 + a.shape[0]]
            dot(a, b, out)
            assert out.tobytes() == np.matmul(a, b).tobytes(), (a.shape, b.shape)
        assert dot(act, weight).tobytes() == (act @ weight).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    # 0, 1 or 2 hidden layers; an output width of 1 included
    widths=st.lists(st.integers(1, 9) | st.just(64), min_size=2, max_size=4).map(tuple),
    # a pool of sizes, so runs of equal sizes (one stacked product) are
    # common, between 1-row and ragged segments
    draws=st.lists(st.lists(st.sampled_from([1, 2, 5, 8, 8, 8]), min_size=1, max_size=6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(widths=(3, 1), draws=[[1, 1, 1], [8, 8, 8, 8, 5, 8]], seed=0)
@example(widths=(1, 64, 4, 1), draws=[[2, 2], [8, 1, 8, 8]], seed=1)
def test_plan_lanes_equal_their_own_steps(widths, draws, seed):
    # with a lane per segment, segment k reads lane k's parameters: its loss
    # and gradient are bitwise a one-lane step's on its rows alone; then an
    # overflowing step, whose leftovers must not reach the next draw
    arch = nn.ModelArch(widths)
    lanes = max(map(len, draws))
    plan = nn.TrainPlan(arch, max(map(sum, draws)), lanes)
    rng = np.random.default_rng(seed)
    for sizes in draws:
        values = [rng.choice([0.1, 1.0, 30.0]) * rng.standard_normal(nn.param_count(arch)) for _ in sizes]
        features = [rng.standard_normal((n, arch.input_dim)) for n in sizes]
        labels = [rng.integers(0, arch.output_dim, n) for n in sizes]
        all_labels = np.concatenate(labels)
        for lane, lane_values in enumerate(values):
            plan.load(nn.ParamVector(arch, lane_values), lane)
        _fill(plan, *features)
        losses = plan.step(sizes)(all_labels)
        assert len(losses) == len(sizes)
        for k, (ce, lane_values, feats, labs) in enumerate(zip(losses, values, features, labels)):
            want_ce, want_grad = reference.loss_and_grad(arch, lane_values, feats, labs)
            assert ce == want_ce and plan.grads[k].tobytes() == want_grad.tobytes(), (sizes, k)
        np.copyto(plan.values, 1e200)
        _fill(plan, *(1e200 * feats for feats in features))
        with np.errstate(over="ignore", invalid="ignore"):
            plan.step(sizes)(all_labels)


def test_a_plan_has_a_lane_per_segment():
    # segment k reads lane k; load copies a model into a lane or into each
    # lane of a slice
    arch = nn.ModelArch((4, 5, 3))
    plan, a, b = nn.TrainPlan(arch, 6, 3), random_model(arch, seed=0), random_model(arch, seed=1)
    assert plan.values.shape == plan.grads.shape == (3, nn.param_count(arch))
    plan.load(a, slice(3)).load(b, 1)
    assert [lane.tobytes() for lane in plan.values] == [v.tobytes() for v in (a.values, b.values, a.values)]
    with pytest.raises(ShapeError, match=r"plan is for layer widths \(4, 5, 3\)"):
        plan.load(random_model(nn.ModelArch((4, 3)), seed=0), 1)


def counting_binds(plan: nn.TrainPlan) -> list:
    """The sizes of each step plan binds from now on, in order."""
    bound, bind = [], plan._bind

    def counted(sizes):
        bound.append(sizes)
        return bind(sizes)

    plan._bind = counted
    return bound


def test_a_plan_holds_a_step_while_consecutive_generations_use_it():
    # a step bound or used in one generation is held through the next; one
    # that a whole generation leaves unused is let go of and bound anew
    plan = nn.TrainPlan(nn.ModelArch((2, 3)), 8, 2)
    bound = counting_binds(plan)
    every = plan.step(3)
    for _generation in range(5):
        plan.new_generation()
        assert plan.step(3) is every and plan.step([3]) is every
    pair = plan.step((1, 2))
    plan.new_generation()
    assert plan.step((1, 2)) is pair and plan.step(3) is every and bound == [(3,), (1, 2)]
    gone = weakref.ref(pair)
    del pair
    plan.new_generation()
    assert plan.step(3) is every and gone() is not None
    plan.new_generation()
    assert gone() is None
    plan.step((1, 2))
    assert bound == [(3,), (1, 2), (1, 2)]


def test_a_plan_that_starts_no_generation_holds_at_most_two_of_the_bound():
    # a generation also ends at MAX_BOUND_STEPS steps, so a plan that only
    # scores holds its last two generations: at most twice the bound, and
    # it rebinds none of the steps it holds
    cap = nn.MAX_BOUND_STEPS
    plan = nn.TrainPlan(nn.ModelArch((2, 3)), 3 * cap)
    bound = counting_binds(plan)
    steps, most = {}, 0
    for n in range(1, 3 * cap + 1):
        steps[n] = weakref.ref(plan.step(n))
        most = max(most, sum(ref() is not None for ref in steps.values()))
    held = [n for n, ref in steps.items() if ref() is not None]
    assert most == 2 * cap and held == list(range(cap + 1, 3 * cap + 1))
    assert plan.step(cap + 1) is steps[cap + 1]()
    assert all(plan.step(n) is steps[n]() for n in held[cap:]) and len(bound) == 3 * cap


def test_a_warm_lock_step_allocates_no_batch_or_cohort_sized_array():
    # ten clients at batch 64 on 16-64-8, seven full batches stacked into
    # one product and three ragged ones, with a lane each: the hidden
    # layer's output is 160 KiB, a lane's parameters 12.6 KiB and all the
    # lanes' 126 KiB. A warm step allocates only numpy's per-call
    # bookkeeping and the losses
    arch = nn.ModelArch((16, 64, 8))
    rng = np.random.default_rng(0)
    sizes = (64, 64, 64, 64, 37, 64, 64, 64, 5, 12)
    plan = nn.TrainPlan(arch, sum(sizes), len(sizes))
    for lane in range(len(sizes)):
        plan.load(random_model(arch, seed=lane), lane)
    features = [rng.standard_normal((n, 16)) for n in sizes]
    step, labels = plan.step(sizes), rng.integers(0, 8, sum(sizes))
    _fill(plan, *features)
    step(labels)
    tracemalloc.start()
    try:
        step(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024
