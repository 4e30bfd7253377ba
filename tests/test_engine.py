import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_batch, random_model, train_alone
from fedsim import diagnostics, engine, nn
from fedsim.config import PENALTY_MODES, STRATEGIES, ExperimentConfig
from fedsim.data import LabeledDataset, ServerSet
from fedsim.errors import (
    AggregationError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
    StateError,
)
from fedsim.seeding import TAG_LOCAL, TAG_SAMPLE, stream


SCALAR = nn.ModelArch((1, 1))


def scalar_models(*values):
    """Local models of SCALAR, a row each, with every parameter one value."""
    return np.repeat(np.array(values, dtype=float)[:, None], 2, axis=1)


class TestSampleClients:
    def test_full_participation(self):
        assert engine.sample_clients(10, 1.0, 0, 0) == tuple(range(10))

    def test_fractional_participation(self):
        picked = engine.sample_clients(10, 0.2, 3, 42)
        assert len(picked) == 2
        assert picked == engine.sample_clients(10, 0.2, 3, 42)

    def test_minimum_one_client(self):
        assert len(engine.sample_clients(10, 0.01, 0, 0)) == 1

    def test_selection_frequencies(self):
        counts = np.zeros(10, dtype=int)
        for r in range(1000):
            for cid in engine.sample_clients(10, 0.5, r, 42):
                counts[cid] += 1
        assert np.all((counts >= 450) & (counts <= 550))

    def test_rounds_are_independent_streams(self):
        draws = {engine.sample_clients(10, 0.3, r, 7) for r in range(20)}
        assert len(draws) > 1


class TestLocalLoss:
    def setup_method(self):
        self.arch = nn.ModelArch((3, 4, 2))
        self.w = random_model(self.arch, seed=1)
        self.wg = random_model(self.arch, seed=2)
        self.batch = random_batch(self.arch, 5, seed=1)
        self.logits = nn.forward(self.w, self.batch)
        self.ce = nn.cross_entropy(self.logits, self.batch.labels)

    def test_literal_penalty_arithmetic(self):
        strat = ExperimentConfig(strategy="fedpdc", lam=1.0)
        loss, *grad_terms = engine.local_loss(
            self.logits, self.batch.labels, strat, 0.6, self.w, self.wg
        )
        assert loss == self.ce + 1.0 * (1.0 - 0.6)
        assert grad_terms == [1.0, 0.0]

    def test_fresh_client_penalty_vanishes(self):
        strat = ExperimentConfig(strategy="fedpdc", lam=5.0)
        loss, *grad_terms = engine.local_loss(
            self.logits, self.batch.labels, strat, 1.0, self.w, self.wg
        )
        assert loss == self.ce
        assert grad_terms == [1.0, 0.0]

    def test_fedprox_zero_mu_reduces_to_fedavg(self):
        prox = engine.local_loss(
            self.logits,
            self.batch.labels,
            ExperimentConfig(strategy="fedprox", mu_prox=0.0),
            0.5,
            self.w,
            self.wg,
        )
        avg = engine.local_loss(
            self.logits, self.batch.labels, ExperimentConfig(strategy="fedavg"), 0.5, self.w, self.wg
        )
        assert prox == avg

    def test_fedprox_quadratic_anchor(self):
        mu = 0.3
        strat = ExperimentConfig(strategy="fedprox", mu_prox=mu)
        loss, ce_scale, prox_weight = engine.local_loss(
            self.logits, self.batch.labels, strat, 0.5, self.w, self.wg
        )
        diff = self.w.values - self.wg.values
        assert loss == self.ce + 0.5 * mu * float(diff @ diff)
        assert (ce_scale, prox_weight) == (1.0, mu)

    def test_scaled_mode_scales_loss_and_gradient(self):
        strat = ExperimentConfig(strategy="fedpdc", lam=2.0, penalty_mode="scaled_ce")
        loss, ce_scale, prox_weight = engine.local_loss(
            self.logits, self.batch.labels, strat, 0.25, self.w, self.wg
        )
        scale = 1.0 + 2.0 * 0.75
        assert loss == scale * self.ce
        assert (ce_scale, prox_weight) == (scale, 0.0)

    def test_rejects_accuracy_out_of_range(self):
        strat = ExperimentConfig(strategy="fedpdc")
        with pytest.raises(StateError):
            engine.local_loss(self.logits, self.batch.labels, strat, 1.5, self.w, self.wg)


class TestLocalTrain:
    def _client(self, seed=0, n=24, dim=4, classes=3):
        rng = np.random.default_rng(seed)
        data = LabeledDataset(rng.standard_normal((n, dim)), rng.integers(0, classes, n), classes)
        return engine.ClientState(0, data)

    def test_zero_epochs_returns_global(self):
        client = self._client()
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=0, seed=0)
        model, losses = train_alone(client, w, 1.0, cfg, 0)
        assert np.array_equal(model.values, w.values)
        assert losses == []

    def test_zero_lr_returns_global(self):
        client = self._client()
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=3, batch_size=8, eta=0.0, seed=0)
        model, losses = train_alone(client, w, 1.0, cfg, 0)
        assert np.array_equal(model.values, w.values)
        assert len(losses) == 3 * 3  # 24 samples / batch 8 -> 3 batches per epoch

    def test_single_full_batch_epoch_matches_composition(self):
        client = self._client(seed=5)
        w = random_model(nn.ModelArch((4, 5, 3)), seed=5)
        cfg = ExperimentConfig(
            strategy="fedavg",
            local_epochs=1,
            batch_size=len(client.data),
            eta=0.05,
            momentum=0.0,
            weight_decay=0.0,
            seed=9,
        )
        model, _ = train_alone(client, w, 1.0, cfg, 4)
        # oracle: replicate the documented shuffle stream, then one gradient step
        perm = stream(TAG_LOCAL, 9, 4).permutation(len(client.data))
        features, labels = client.data.features[perm], client.data.labels[perm]
        _ce, grad = reference.loss_and_grad(w.arch, w.values, features, labels)
        expected, _buf = reference.sgd_step(w.values, np.zeros_like(w.values), grad, cfg)
        assert np.array_equal(model.values, expected)

    # "error": divergence must surface as DivergenceError, not a numpy warning
    @pytest.mark.filterwarnings("error")
    def test_update_overflow_is_divergence(self):
        client = self._client()
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(
            strategy="fedavg", local_epochs=1, batch_size=8, eta=1e308, momentum=0.0, seed=0
        )
        with pytest.raises(DivergenceError, match="client 0"):
            train_alone(client, w, 1.0, cfg, 0)

    @pytest.mark.filterwarnings("error")
    def test_divergence_names_client_and_round(self):
        client = self._client()
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(
            strategy="fedavg", local_epochs=5, batch_size=8, eta=1e150, momentum=0.0, seed=0
        )
        with pytest.raises(DivergenceError, match=r"client 0 .* round 2"):
            train_alone(client, w, 1.0, cfg, 2)

    @pytest.mark.filterwarnings("error")
    def test_divergence_error_carries_client_round_step_and_last_loss(self):
        # linear model; weight decay 1e200 at lr 1 flips and inflates the
        # weights to about -1e200 in step 0, so step 1 still has a finite
        # loss but its update overflows
        rng = np.random.default_rng(7)
        data = LabeledDataset(rng.uniform(0.0, 1.0, (16, 4)), np.arange(16) % 3, 3)
        client = engine.ClientState(3, data)
        arch = nn.ModelArch((4, 3))
        w = nn.ParamVector(arch, np.ones(nn.param_count(arch)))
        cfg = ExperimentConfig(
            strategy="fedavg", local_epochs=1, batch_size=8, eta=1.0, momentum=0.0, weight_decay=1e200, seed=0
        )
        with pytest.raises(DivergenceError, match=r"client 3 .* round 5 at step 1") as info:
            train_alone(client, w, 1.0, cfg, 5)
        first, second = np.split(stream(TAG_LOCAL, 0, 5).permutation(16), 2)
        _ce, grad = reference.loss_and_grad(arch, w.values, data.features[first], data.labels[first])
        w1, _buf = reference.sgd_step(w.values, np.zeros_like(w.values), grad, cfg)
        err = info.value
        assert (err.client, err.round, err.step) == (3, 5, 1)
        last_loss, _grad = reference.loss_and_grad(arch, w1, data.features[second], data.labels[second])
        assert err.last_finite_loss == last_loss

        # a model whose logits overflow fails at step 0, before any finite loss
        deep = nn.ModelArch((4, 5, 3))
        huge = nn.ParamVector(deep, np.full(nn.param_count(deep), 1e200))
        with pytest.raises(DivergenceError, match="non-finite loss") as info:
            train_alone(client, huge, 1.0, cfg, 5)
        assert (info.value.client, info.value.round, info.value.step) == (3, 5, 0)
        assert info.value.last_finite_loss is None

    def test_rejects_accuracy_out_of_range(self):
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(strategy="fedpdc", local_epochs=1, batch_size=8, seed=0)
        with pytest.raises(StateError):
            engine.local_train(self._client(), w, 1.5, cfg, 0)

    def test_rejects_labels_beyond_model_outputs(self):
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.standard_normal((24, 4)), np.arange(24) % 3, 3)
        w = random_model(nn.ModelArch((4, 5, 2)), seed=0)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=1, batch_size=8, seed=0)
        with pytest.raises(DataError):
            engine.local_train(engine.ClientState(0, data), w, 1.0, cfg, 0)

    def test_rejects_feature_width_mismatch(self):
        w = random_model(nn.ModelArch((5, 5, 3)), seed=0)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=1, batch_size=8, seed=0)
        with pytest.raises(ShapeError):
            engine.local_train(self._client(dim=4), w, 1.0, cfg, 0)

    @pytest.mark.parametrize(
        "n, epochs", [(7, 10), (100, 10), (600, 10), (1000, 2), (13, 1), (5, 0), (1, 3), (1, 0), (3, 1)]
    )
    def test_a_run_shuffles_each_epoch_as_one_permutation_call_would(self, n, epochs):
        # the order is every epoch's rng.permutation(n), epoch after epoch,
        # and leaves the stream where those calls leave it
        w = random_model(nn.ModelArch((4, 5, 3)), seed=0)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=epochs, batch_size=4, seed=6)
        rng, want_rng = stream(TAG_LOCAL, 6, 2), stream(TAG_LOCAL, 6, 2)
        run = engine.local_train(self._client(n=n), w, 1.0, cfg, 2, rng=rng)
        want = [want_rng.permutation(n) for _epoch in range(epochs)]
        assert run.order.dtype == np.intp and run.order.tolist() == np.concatenate([[], *want]).tolist()
        assert rng.random() == want_rng.random()

    def test_identical_inputs_identical_output(self):
        client = self._client(seed=3)
        w = random_model(nn.ModelArch((4, 5, 3)), seed=3)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=2, batch_size=8, seed=1)
        a, _ = train_alone(client, w, 1.0, cfg, 0)
        b, _ = train_alone(client, w, 1.0, cfg, 0)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "strategy, p_in",
    [
        (ExperimentConfig(strategy="fedavg"), 1.0),
        (ExperimentConfig(strategy="fedprox", mu_prox=0.3), 1.0),
        (ExperimentConfig(strategy="fedpdc", lam=1.5), 0.6),
        (ExperimentConfig(strategy="fedpdc", lam=2.0, penalty_mode="scaled_ce"), 0.4),
        (ExperimentConfig(strategy="fedpdc_adaptive", lam=0.5, penalty_mode="scaled_ce"), 1.0),
    ],
    ids=["fedavg", "fedprox", "fedpdc_literal", "fedpdc_scaled_ce", "scaled_ce_unit_p"],
)
def test_local_train_bitwise_equals_reference_loop(strategy, p_in):
    rng = np.random.default_rng(11)
    # 31 samples in batches of 8: every epoch ends on a ragged batch of 7
    data = LabeledDataset(rng.standard_normal((31, 5)), rng.integers(0, 4, 31), 4)
    client = engine.ClientState(2, data)
    w = random_model(nn.ModelArch((5, 7, 4)), seed=11)
    cfg = replace(
        strategy, local_epochs=3, batch_size=8, eta=0.05, momentum=0.9, weight_decay=1e-3, seed=4
    )
    model, losses = train_alone(client, w, p_in, cfg, 6)
    ref_values, ref_losses = reference.local_train(w.arch, data, w.values, p_in, cfg, 6)
    assert np.array_equal(model.values, ref_values)
    assert losses == ref_losses
    assert len(losses) == 3 * 4


@settings(max_examples=100, deadline=None)
@given(
    in_dim=st.integers(min_value=1, max_value=7),
    hidden=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=2),
    out_dim=st.integers(min_value=2, max_value=5),
    size=st.integers(min_value=1, max_value=40),
    batch_size=st.integers(min_value=1, max_value=9),
    strategy=st.sampled_from(STRATEGIES),
    penalty_mode=st.sampled_from(PENALTY_MODES),
    p_in=st.sampled_from([0.0, 0.35, 1.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_local_train_bitwise_equals_reference_for_any_shape(
    in_dim, hidden, out_dim, size, batch_size, strategy, penalty_mode, p_in, seed
):
    # every batch size from 1 to 9 against up to 40 rows: batches that divide
    # the client, ragged last batches and a single short batch, so each
    # epoch's gathered rows are sliced at every offset
    rng = np.random.default_rng(seed)
    data = LabeledDataset(
        rng.standard_normal((size, in_dim)), rng.integers(0, out_dim, size), out_dim
    )
    client = engine.ClientState(1, data)
    w = random_model(nn.ModelArch((in_dim, *hidden, out_dim)), seed)
    cfg = ExperimentConfig(
        strategy=strategy,
        penalty_mode=penalty_mode,
        lam=1.5,
        mu_prox=0.3,
        local_epochs=2,
        batch_size=batch_size,
        eta=0.05,
        momentum=0.9,
        weight_decay=1e-3,
        seed=seed,
    )
    model, losses = train_alone(client, w, p_in, cfg, 3)
    ref_values, ref_losses = reference.local_train(w.arch, data, w.values, p_in, cfg, 3)
    assert np.array_equal(model.values, ref_values)
    assert losses == ref_losses
    assert len(losses) == 2 * -(-size // batch_size)


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(strategy="fedprox", mu_prox=0.3),
        ExperimentConfig(strategy="fedpdc", lam=2.0, penalty_mode="scaled_ce"),
    ],
    ids=["fedprox", "fedpdc_scaled_ce"],
)
def test_a_shared_plan_changes_nothing(cfg):
    # clients smaller than, equal to, ragged against and a multiple of the
    # batch size, one of them diverging, all through one plan
    rng = np.random.default_rng(8)
    arch = nn.ModelArch((5, 7, 4))
    w = random_model(arch, seed=8)
    cfg = replace(cfg, local_epochs=2, batch_size=8, eta=0.05, momentum=0.9, weight_decay=1e-3, seed=4)

    def client(cid, n, scale=1.0):
        data = LabeledDataset(scale * rng.standard_normal((n, 5)), rng.integers(0, 4, n), 4)
        return engine.ClientState(cid, data)

    # client 3's huge features blow up within a few steps, after a finite
    # loss; client 4 then trains on the plan client 3 left non-finite
    clients = [client(0, 5), client(1, 8), client(2, 19), client(3, 16, scale=1e100), client(4, 16)]
    plan, diverged = nn.TrainPlan(arch, 8), []
    for c in clients:
        try:
            alone = train_alone(c, w, 0.5, cfg, 3)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as info:
                train_alone(c, w, 0.5, cfg, 3, plan)
            fields = ("client", "round", "step", "last_finite_loss")
            assert [getattr(info.value, f) for f in fields] == [getattr(err, f) for f in fields]
            assert str(info.value) == str(err)
            diverged.append((c.id, err.step))
            continue
        shared = train_alone(c, w, 0.5, cfg, 3, plan)
        assert shared[0].values.tobytes() == alone[0].values.tobytes() and shared[1] == alone[1]
    assert len(diverged) == 1 and diverged[0][0] == 3 and diverged[0][1] > 0


def test_a_plan_that_does_not_fit_is_rejected():
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.standard_normal((19, 5)), rng.integers(0, 4, 19), 4)
    w = random_model(nn.ModelArch((5, 7, 4)), seed=0)
    cfg = ExperimentConfig(strategy="fedavg", local_epochs=1, batch_size=8, seed=0)
    client = engine.ClientState(0, data)
    with pytest.raises(ShapeError, match=r"plan is for layer widths \(5, 6, 4\)"):
        train_alone(client, w, 1.0, cfg, 0, nn.TrainPlan(nn.ModelArch((5, 6, 4)), 8))
    with pytest.raises(ShapeError, match="a step of 8 rows does not fit a plan of 7 rows"):
        train_alone(client, w, 1.0, cfg, 0, nn.TrainPlan(w.arch, 7))
    # scoring takes the round's plan too: (5, 5, 4, 4) holds as many
    # parameters as (5, 7, 4), so only the check stops a silent copy
    with pytest.raises(ShapeError, match=r"plan is for layer widths \(5, 5, 4, 4\)"):
        nn.evaluate_accuracy(w, data, nn.TrainPlan(nn.ModelArch((5, 5, 4, 4)), 19))
    with pytest.raises(ShapeError, match="a step of 19 rows does not fit a plan of 18 rows"):
        nn.evaluate_accuracy(w, data, nn.TrainPlan(w.arch, 18))
    # a client smaller than the batch needs only its own rows
    small = engine.ClientState(1, data.subset(range(3)))
    assert train_alone(small, w, 1.0, cfg, 0, nn.TrainPlan(w.arch, 3))[1] == (
        train_alone(small, w, 1.0, cfg, 0)[1]
    )


@settings(max_examples=60, deadline=None)
@given(
    widths=st.sampled_from([(3, 4), (3, 5, 4), (3, 5, 2, 4)]),
    strategy=st.sampled_from(STRATEGIES),
    penalty_mode=st.sampled_from(PENALTY_MODES),
    batch_size=st.integers(1, 6),
    epochs=st.integers(2, 3),
    # each client's size against the batch: below, equal, above, a
    # multiple and ragged; a small pool, so equal sizes stack often
    offsets=st.lists(st.sampled_from([-2, -1, 0, 1, 4, 7]), min_size=1, max_size=6),
    accuracies=st.lists(st.sampled_from([1.0, 0.5, 0.0]), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_cohort_trains_each_client_as_it_trains_alone(
    widths, strategy, penalty_mode, batch_size, epochs, offsets, accuracies, seed
):
    # every client's model bytes and losses from one lock-step cohort equal
    # its cohort of one and the reference's sequential loop; clients hold
    # their own p, so scaled_ce and literal give each lane its own terms
    rng = np.random.default_rng(seed)
    arch = nn.ModelArch(widths)
    w = random_model(arch, seed)
    cfg = ExperimentConfig(
        strategy=strategy, penalty_mode=penalty_mode, lam=1.5, mu_prox=0.3, local_epochs=epochs,
        batch_size=batch_size, eta=0.05, momentum=0.9, weight_decay=1e-3, seed=seed % 1000,
    )
    clients = []
    for cid, offset in enumerate(offsets):
        n = max(1, batch_size + offset)
        data = LabeledDataset(rng.standard_normal((n, 3)), rng.integers(0, widths[-1], n), widths[-1])
        clients.append(engine.ClientState(cid, data))
    # a plan with a spare lane and spare rows, reused by every call below
    rows = sum(min(batch_size, len(c.data)) for c in clients) + 3
    plan = nn.TrainPlan(arch, rows, len(clients) + 1)
    runs = [engine.local_train(c, w, accuracies[c.id], cfg, 2) for c in clients]
    models, cohort_losses, _means = engine.train_cohort(w, runs, cfg, 2, plan)
    for c, model, losses in zip(clients, models, cohort_losses):
        alone_model, alone_losses = train_alone(c, w, accuracies[c.id], cfg, 2, plan)
        assert model.tobytes() == alone_model.values.tobytes() and repr(losses) == repr(alone_losses)
        ref_values, ref_losses = reference.local_train(arch, c.data, w.values, accuracies[c.id], cfg, 2)
        assert model.tobytes() == ref_values.tobytes() and repr(losses) == repr(ref_losses)


@pytest.mark.filterwarnings("error")
def test_a_diverging_cohort_raises_the_error_of_the_sequential_loop():
    # client 3's huge features blow up at step 1, client 1's at step 4:
    # training one by one in id order meets client 1 first, so the cohort
    # must raise client 1's error although client 3 diverged earlier
    rng = np.random.default_rng(8)
    arch = nn.ModelArch((5, 7, 4))
    w = random_model(arch, seed=8)
    cfg = ExperimentConfig(
        strategy="fedavg", local_epochs=3, batch_size=8, eta=0.05, momentum=0.9, weight_decay=1e-3, seed=4
    )

    def client(cid, n, scale=1.0):
        data = LabeledDataset(scale * rng.standard_normal((n, 5)), rng.integers(0, 4, n), 4)
        return engine.ClientState(cid, data)

    fields = ("client", "round", "step", "last_finite_loss")
    clients = [client(0, 19), client(1, 16, scale=1e40), client(2, 8), client(3, 16, scale=1e150), client(4, 5)]
    alone = {}
    for c in clients:
        try:
            train_alone(c, w, 0.5, cfg, 3)
        except DivergenceError as err:
            alone[c.id] = err
    assert sorted(alone) == [1, 3] and alone[1].step == 4 and alone[3].step == 1
    plan = nn.TrainPlan(arch, 40, 5)
    with pytest.raises(DivergenceError) as info:
        engine.train_cohort(w, [engine.local_train(c, w, 0.5, cfg, 3) for c in clients], cfg, 3, plan)
    assert [getattr(info.value, f) for f in fields] == [getattr(alone[1], f) for f in fields]
    assert str(info.value) == str(alone[1])

    # a linear model whose weight decay flips and inflates the weights to
    # about -1e200 in step 0 overflows its update at step 1, after a finite
    # loss: every lane's "non-finite parameters" error; the lowest id's is raised
    linear = nn.ParamVector(nn.ModelArch((4, 3)), np.ones(15))
    blowup = replace(cfg, local_epochs=1, eta=1.0, momentum=0.0, weight_decay=1e200)
    uniform = [
        engine.ClientState(cid, LabeledDataset(rng.uniform(0.0, 1.0, (16, 4)), np.arange(16) % 3, 3))
        for cid in (5, 6)
    ]
    runs = [engine.local_train(c, linear, 0.5, blowup, 3) for c in uniform[::-1]]
    with pytest.raises(DivergenceError, match="client 5 hit non-finite parameters") as info:
        engine.train_cohort(linear, runs, blowup, 3)
    with pytest.raises(DivergenceError) as first:
        train_alone(uniform[0], linear, 0.5, blowup, 3)
    assert [getattr(info.value, f) for f in fields] == [getattr(first.value, f) for f in fields]

    # the plan the diverged lanes left behind trains the healthy clients as alone
    healthy = [clients[k] for k in (0, 2, 4)]
    runs = [engine.local_train(c, w, 0.5, cfg, 3) for c in healthy]
    models, cohort_losses, _means = engine.train_cohort(w, runs, cfg, 3, plan)
    for c, model, losses in zip(healthy, models, cohort_losses):
        alone_model, alone_losses = train_alone(c, w, 0.5, cfg, 3)
        assert model.tobytes() == alone_model.values.tobytes() and losses == alone_losses


@pytest.mark.filterwarnings("error")
def test_finite_parameters_whose_sum_overflows_train_on():
    # two weights of 1e308 on an input column that is all zeros: the lane's
    # parameter sum overflows at every step, but every parameter is finite,
    # so the exact check clears it; eta 0 keeps the weights where they are
    rng = np.random.default_rng(5)
    arch = nn.ModelArch((3, 4, 2))
    values = random_model(arch, seed=5).values.copy()
    values[:2] = 1e308  # W1[0, 0] and W1[0, 1]: read only by input column 0
    w = nn.ParamVector(arch, values)
    features = rng.standard_normal((10, 3))
    features[:, 0] = 0.0
    clients = [
        engine.ClientState(0, LabeledDataset(features, rng.integers(0, 2, 10), 2)),
        engine.ClientState(1, LabeledDataset(rng.standard_normal((7, 3)), rng.integers(0, 2, 7), 2)),
    ]
    cfg = ExperimentConfig(strategy="fedprox", mu_prox=0.1, local_epochs=2, batch_size=4, eta=0.0, seed=2)
    runs = [engine.local_train(c, w, 1.0, cfg, 1) for c in clients]
    models, cohort_losses, _means = engine.train_cohort(w, runs, cfg, 1)
    for c, model, losses in zip(clients, models, cohort_losses):
        # BLAS may overflow in the padding of a product, which numpy reports
        # after the call; fedsim runs its products under np.errstate too
        with np.errstate(over="ignore"):
            ref_values, ref_losses = reference.local_train(arch, c.data, w.values, 1.0, cfg, 1)
        assert model.tobytes() == ref_values.tobytes() and repr(losses) == repr(ref_losses)
    assert models[0, 0] == 1e308


@pytest.mark.filterwarnings("error")
def test_one_nan_parameter_is_reported_at_the_step_it_appears():
    # eta 0 with weight decay 1: a weight of 8e307 on an all-zero input
    # column pushes its momentum past the float64 range at step 2 (8e307 *
    # 2.71), and 0 * inf makes that one parameter NaN; every other stays
    # finite. The losses of steps 0-2 are finite, step 3's reads the NaN.
    # Client 1 trains on the same model for two steps only, so it never
    # diverges and its lower id must not be reported
    rng = np.random.default_rng(6)
    arch = nn.ModelArch((3, 4, 2))
    values = random_model(arch, seed=6).values.copy()
    values[0] = 8e307
    w = nn.ParamVector(arch, values)
    features = rng.standard_normal((16, 3))
    features[:, 0] = 0.0
    sick = engine.ClientState(2, LabeledDataset(features[:12], rng.integers(0, 2, 12), 2))
    healthy = engine.ClientState(1, LabeledDataset(features[12:], rng.integers(0, 2, 4), 2))
    cfg = ExperimentConfig(local_epochs=2, batch_size=4, eta=0.0, momentum=0.9, weight_decay=1.0, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        _values, ref_losses = reference.local_train(arch, sick.data, w.values, 1.0, cfg, 4)
    assert all(map(math.isfinite, ref_losses[:3])) and math.isnan(ref_losses[3])
    with pytest.raises(DivergenceError) as info:
        engine.train_cohort(w, [engine.local_train(c, w, 1.0, cfg, 4) for c in (healthy, sick)], cfg, 4)
    err = info.value
    assert (err.client, err.round, err.step, err.last_finite_loss) == (2, 4, 2, ref_losses[2])
    assert str(err) == f"client 2 hit non-finite parameters in round 4 at step 2 (last finite loss: {ref_losses[2]})"


def test_a_cohort_mean_loss_is_np_mean_of_the_losses():
    # np.mean sums pairwise, blockwise from 8 terms and recursively above
    # 128: a run's mean comes from its contiguous row of the loss table
    rng = np.random.default_rng(9)
    arch = nn.ModelArch((3, 4, 3))
    w = random_model(arch, seed=9)
    cfg = ExperimentConfig(strategy="fedprox", mu_prox=0.2, local_epochs=3, batch_size=1, eta=0.05, seed=1)
    clients = [
        engine.ClientState(cid, LabeledDataset(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3))
        for cid, n in enumerate((1, 3, 50, 101))
    ]
    runs = [engine.local_train(c, w, 1.0, cfg, 0) for c in clients]
    _models, cohort_losses, means = engine.train_cohort(w, runs, cfg, 0)
    assert [len(losses) for losses in cohort_losses] == [3, 9, 150, 303]
    for losses, mean in zip(cohort_losses, means):
        assert repr(mean) == repr(float(np.mean(losses)))
    run = engine.local_train(clients[0], w, 1.0, replace(cfg, local_epochs=0), 0)
    _models, losses, means = engine.train_cohort(w, [run], cfg, 0)
    assert losses[0] == [] and math.isnan(means[0])


def test_a_cohort_needs_one_optimizer_and_a_lane_per_run():
    rng = np.random.default_rng(3)
    arch = nn.ModelArch((5, 7, 4))
    w = random_model(arch, seed=3)
    data = LabeledDataset(rng.standard_normal((12, 5)), rng.integers(0, 4, 12), 4)
    clients = [engine.ClientState(0, data), engine.ClientState(1, data)]
    cfg = ExperimentConfig(strategy="fedprox", mu_prox=0.3, local_epochs=1, batch_size=4, seed=0)
    runs = [engine.local_train(c, w, 1.0, cfg, 0) for c in clients]
    with pytest.raises(ShapeError, match="a cohort of 2 runs needs a plan with 2 lanes"):
        engine.train_cohort(w, runs, cfg, 0, nn.TrainPlan(arch, 8, 1))
    models, losses, means = engine.train_cohort(w, [], cfg, 0)
    assert len(models) == 0 and losses == means == []


def test_the_run_plan_binds_each_step_shape_once(toy_problem):
    # with tau = 1 every round trains the same clients on the same step
    # shapes, so a second round on the runner's plan binds nothing new; and
    # a round on it equals a round on a plan of its own
    _pool, server_set, _rest, _part, clients, model = toy_problem
    cfg = ExperimentConfig(strategy="fedprox", mu_prox=0.1, tau=1.0, local_epochs=2, batch_size=16, seed=3)
    server = engine.ServerState(model, server_set)
    plan = engine.round_plan(server, clients, cfg)
    first, _rec = engine.run_round(server, clients, cfg, plan=plan)
    bound = dict(plan._steps)
    second, rec = engine.run_round(first, clients, cfg, plan=plan)
    assert plan._steps == bound
    own, own_rec = engine.run_round(first, clients, cfg)
    assert second.model.values.tobytes() == own.model.values.tobytes() and repr(rec) == repr(own_rec)


def test_a_diagnosed_run_plan_fits_the_full_batch_pass(toy_problem):
    # a config that asks for a diagnostic sizes the one plan for the pass
    # too: its tallest block and the most datasets a block holds
    _pool, server_set, _rest, _part, clients, model = toy_problem
    cfg = ExperimentConfig(tau=0.5, batch_size=8, seed=3)
    server = engine.ServerState(model, server_set)
    plain = engine.round_plan(server, clients, cfg)
    assert (plain.rows, plain.lanes) == (len(server_set), 2)
    rows, lanes = diagnostics.plan_shape([c.data for c in clients])
    for diagnosed in (replace(cfg, instrument_global_loss=True), replace(cfg, emit_dissimilarity=True)):
        plan = engine.round_plan(server, clients, diagnosed)
        assert (plan.rows, plan.lanes) == (max(plain.rows, rows), max(plain.lanes, lanes)) == (rows, lanes)


def test_no_caller_reads_what_another_left_in_the_plan(toy_problem):
    # the run's one plan serves every caller in turn, so each must write all
    # it reads: on a plan whose lanes, inputs and layer workspace hold NaN,
    # two cohorts, a score and a full-batch pass give bitwise what they give
    # on a fresh plan. A cohort's momentum and prox-difference lanes are its
    # own, not the plan's, so it must start them itself
    _pool, server_set, _rest, _part, clients, model = toy_problem
    datasets = [c.data for c in clients]
    shared = dict(tau=1.0, local_epochs=2, batch_size=8, eta=0.05, momentum=0.9, weight_decay=1e-3, seed=3)
    prox = ExperimentConfig(strategy="fedprox", mu_prox=0.3, instrument_global_loss=True, **shared)
    scaled = ExperimentConfig(strategy="fedpdc", lam=2.0, penalty_mode="scaled_ce", **shared)
    server = engine.ServerState(model, server_set)

    def cohort(cfg, accuracies):
        def train(plan):
            runs = [engine.local_train(c, model, p, cfg, 1) for c, p in zip(clients, accuracies)]
            models, losses, means = engine.train_cohort(model, runs, cfg, 1, plan)
            return models.tobytes(), repr(losses), repr(means)
        return train

    def full_pass(plan):
        loss, grad, ratio = diagnostics.FullBatchPass(plan, datasets)(model)
        return repr(loss), grad.tobytes(), repr(ratio)

    callers = {
        "fedprox cohort": cohort(prox, [1.0] * len(clients)),
        "scaled_ce cohort": cohort(scaled, [0.25, 0.5, 0.75, 1.0]),
        "score": lambda plan: repr(nn.evaluate_accuracy(model, server_set.data, plan)),
        "full-batch pass": full_pass,
    }
    for name, call in callers.items():
        plan = engine.round_plan(server, clients, prox)
        for array in (plan.values, plan.grads, plan.inputs):
            array.fill(np.nan)
        # one step over all rows carries the NaN through every layer's output and the tiles
        with np.errstate(all="ignore"):
            plan.step(plan.rows)(np.zeros(plan.rows, dtype=np.intp))
        assert call(plan) == call(engine.round_plan(server, clients, prox)), name


def test_a_round_seeds_one_shuffle_stream(toy_problem, monkeypatch):
    # every selected client's shuffles come from the (TAG_LOCAL, seed,
    # round) stream; the round seeds it once and restarts it per client.
    # Re-seeding it per client changes no value, so only the count shows the
    # restart; the orders show that a restarted stream draws what a fresh one
    # does. A sample stream is seeded only when tau leaves clients out
    _pool, server_set, _rest, _part, clients, model = toy_problem
    tags, runs, local_train = [], [], engine.local_train

    def counted(*key):
        tags.append(key[0])
        return stream(*key)

    def laid_out(*args, **kwargs):
        runs.append(local_train(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(engine, "stream", counted)
    monkeypatch.setattr(engine, "local_train", laid_out)
    assert len(clients) == 4
    for tau, drawn in ((1.0, [TAG_LOCAL]), (0.5, [TAG_SAMPLE, TAG_LOCAL])):
        cfg = ExperimentConfig(strategy="fedprox", tau=tau, local_epochs=2, batch_size=16, seed=3)
        selected = engine.sample_clients(len(clients), tau, 0, cfg.seed)
        tags.clear()
        runs.clear()
        engine.run_round(engine.ServerState(model, server_set), clients, cfg)
        assert sorted(tags) == sorted(drawn)
        assert [run.client for run in runs] == list(selected) and len(selected) == 4 * tau
        for run in runs:
            assert run.order.tobytes() == local_train(clients[run.client], model, 1.0, cfg, 0).order.tobytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dissimilarity", [False, True])
@pytest.mark.parametrize("with_test", [False, True])
def test_a_round_scores_local_models_only_when_the_scores_are_read(
    toy_problem, monkeypatch, strategy, dissimilarity, with_test
):
    # per round: the new global model on the server set, on the test set if
    # any, and each selected local model only when fedpdc's weights or
    # dissimilarity.csv read the scores; unscored, no p is carried over
    pool, server_set, _rest, _part, clients, model = toy_problem
    cfg = ExperimentConfig(
        strategy=strategy, tau=0.5, local_epochs=1, batch_size=16, seed=4, emit_dissimilarity=dissimilarity
    )
    test_data = pool.subset(np.arange(0, len(pool), 7)) if with_test else None
    calls = []

    def counted(model, dataset, plan=None):
        calls.append(dataset)
        return nn.evaluate_accuracy(model, dataset, plan)

    monkeypatch.setattr(engine, "evaluate_accuracy", counted)
    scored = strategy in ("fedpdc", "fedpdc_adaptive") or dissimilarity
    server = engine.ServerState(model, server_set)
    for _round in range(2):
        calls.clear()
        server, record = engine.run_round(server, clients, cfg, test_data)
        selected = len(record.selected)
        assert selected == 2
        assert len(calls) == 1 + with_test + (selected if scored else 0)
        assert sum(dataset is test_data for dataset in calls) == with_test
        assert sorted(record.measured_accuracies) == (list(record.selected) if scored else [])
        assert server.prev_accuracies == record.measured_accuracies
    if not scored:
        assert set(record.sent_accuracies.values()) == {1.0}


def counting_param_vectors(monkeypatch) -> list:
    """A list that gets every ParamVector built from here on."""
    built, post_init = [], nn.ParamVector.__post_init__

    def counting(vector):
        built.append(vector)
        post_init(vector)

    monkeypatch.setattr(nn.ParamVector, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    "strategy, tau, scored", [("fedavg", 1.0, False), ("fedprox", 1.0, False), ("fedpdc", 0.5, True)]
)
def test_a_round_builds_a_param_vector_only_where_a_model_leaves_it(toy_problem, monkeypatch, strategy, tau, scored):
    # the local models stay one array from the cohort to the aggregate: a
    # round builds a ParamVector for each local model it scores and one for
    # the new global model, which it also scores on the test set
    pool, server_set, _rest, _part, clients, model = toy_problem
    cfg = ExperimentConfig(strategy=strategy, tau=tau, local_epochs=1, batch_size=16, seed=4)
    test_data = pool.subset(np.arange(0, len(pool), 7))
    server = engine.ServerState(model, server_set)
    built = counting_param_vectors(monkeypatch)
    for _round in range(2):
        built.clear()
        server, record = engine.run_round(server, clients, cfg, test_data)
        assert len(built) == (len(record.selected) if scored else 0) + 1
        assert built[-1] is server.model and len(record.selected) == 4 * tau


def test_a_cohort_returns_each_run_its_row_as_trained_alone(monkeypatch):
    # lanes run longest first, so the cohort reorders these runs; each run's
    # row of the models, losses and mean come back in the order given,
    # bitwise what the run gives alone, and a run of no steps (local_epochs
    # = 0) among runs with steps keeps its anchor. No ParamVector is built
    rng = np.random.default_rng(11)
    arch = nn.ModelArch((3, 5, 3))
    w = random_model(arch, seed=11)
    cfg = ExperimentConfig(strategy="fedprox", mu_prox=0.2, batch_size=4, eta=0.05, momentum=0.9, seed=2)
    sizes, epochs = (3, 17, 6, 17, 9, 1), (2, 2, 0, 1, 2, 0)
    runs = [
        engine.local_train(
            engine.ClientState(cid, LabeledDataset(rng.standard_normal((n, 3)), rng.integers(0, 3, n), 3)),
            w, 1.0, replace(cfg, local_epochs=e), 0,
        )
        for cid, (n, e) in enumerate(zip(sizes, epochs))
    ]
    assert [len(run.sizes) for run in runs] == [2, 10, 0, 5, 6, 0]
    built = counting_param_vectors(monkeypatch)
    models, losses, means = engine.train_cohort(w, runs, cfg, 0)
    assert built == []
    assert models.shape == (len(runs), nn.param_count(arch)) and not models.flags.writeable
    for k, run in enumerate(runs):
        alone, alone_losses, alone_means = engine.train_cohort(w, [run], cfg, 0)
        assert models[k].tobytes() == alone[0].tobytes() and losses[k] == alone_losses[0]
        assert repr(means[k]) == repr(alone_means[0])
    for k in (2, 5):
        assert models[k].tobytes() == w.values.tobytes() and losses[k] == [] and math.isnan(means[k])


class TestAggregation:
    def test_size_weighted_average(self):
        models = scalar_models(0.0, 4.0)
        out = engine._combine(SCALAR, models, engine.fedavg_weights([100, 300]))
        assert np.allclose(out.values, 3.0, atol=0)

    def test_equal_sizes_give_arithmetic_mean(self):
        models = scalar_models(1.0, 2.0, 4.0)
        out = engine._combine(SCALAR, models, engine.fedavg_weights([5, 5, 5]))
        assert np.max(np.abs(out.values - 7.0 / 3.0)) < 1e-12

    def test_single_model_unchanged(self):
        models = scalar_models(1.234)
        out = engine._combine(SCALAR, models, engine.fedavg_weights([17]))
        assert np.array_equal(out.values, models[0])

    def test_accuracy_weighted_average(self):
        out = engine._combine(SCALAR, np.eye(2), engine.fedpdc_weights([0.8, 0.2])[0])
        assert np.allclose(out.values, [0.8, 0.2], atol=1e-15)

    def test_equal_accuracies_give_mean(self):
        models = scalar_models(1.0, 3.0)
        out = engine._combine(SCALAR, models, engine.fedpdc_weights([0.4, 0.4])[0])
        assert np.max(np.abs(out.values - 2.0)) < 1e-12

    def test_zero_accuracies_fall_back_to_uniform(self):
        weights, flagged = engine.fedpdc_weights([0.0, 0.0, 0.0])
        assert flagged
        assert np.array_equal(weights, np.full(3, 1.0 / 3.0))
        out = engine._combine(SCALAR, scalar_models(3.0, 6.0, 0.0), weights)
        assert np.allclose(out.values, 3.0, atol=1e-15)

    def test_input_validation(self):
        models = scalar_models(1.0, 2.0)
        with pytest.raises(AggregationError):
            engine._combine(SCALAR, models, engine.fedavg_weights([5]))
        with pytest.raises(AggregationError):
            engine._combine(SCALAR, models, engine.fedavg_weights([5, 0]))
        with pytest.raises(AggregationError):
            engine._combine(SCALAR, models, engine.fedpdc_weights([0.5, 1.5])[0])
        with pytest.raises(AggregationError):
            engine._combine(SCALAR, models[:0], engine.fedavg_weights([]))
        # a NaN is neither a positive size nor an accuracy in [0, 1]
        with pytest.raises(AggregationError):
            engine.fedavg_weights([math.nan, 1])
        with pytest.raises(AggregationError):
            engine.fedpdc_weights([math.nan, 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_aggregation_weights_normalized_and_convex(k, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 1000, k)
    accs = rng.uniform(0.0, 1.0, k)
    w_avg = engine.fedavg_weights(sizes)
    w_pdc, _ = engine.fedpdc_weights(accs)
    assert abs(w_avg.sum() - 1.0) < 1e-12
    assert abs(w_pdc.sum() - 1.0) < 1e-12
    arch = nn.ModelArch((2, 2))
    stacked = rng.standard_normal((k, nn.param_count(arch)))
    combined = engine._combine(arch, stacked, engine.fedavg_weights(sizes))
    tol = 1e-12
    assert np.all(combined.values >= stacked.min(axis=0) - tol)
    assert np.all(combined.values <= stacked.max(axis=0) + tol)


class TestAdaptiveLambda:
    def test_values(self):
        assert engine.adaptive_lambda(4) == 2.0
        assert engine.adaptive_lambda(1) == 0.5

    def test_strictly_increasing(self):
        values = [engine.adaptive_lambda(n) for n in range(1, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_round(self):
        with pytest.raises(ConfigError):
            engine.adaptive_lambda(0)


def make_server_set(features, labels, num_classes, per_class):
    data = LabeledDataset(features, labels, num_classes)
    return ServerSet(data=data, per_class=per_class, source_indices=tuple(range(len(data))))


class TestRunRound:
    def test_single_client_full_weight(self, toy_problem):
        _pool, server_set, rest, _part, _clients, model = toy_problem
        client = engine.ClientState(0, rest)
        server = engine.ServerState(model, server_set)
        cfg = ExperimentConfig(strategy="fedpdc", local_epochs=1, batch_size=32, seed=0)
        new_server, rec = engine.run_round(server, [client], cfg)
        local, _ = train_alone(client, model, 1.0, cfg, 0)
        assert rec.agg_weights == {0: 1.0}
        assert np.array_equal(new_server.model.values, local.values)

    def test_identical_clients_reproduce_their_model(self, toy_problem):
        _pool, server_set, rest, _part, _clients, model = toy_problem
        shared = rest.subset(range(40))
        clients = [engine.ClientState(0, shared), engine.ClientState(1, shared)]
        server = engine.ServerState(model, server_set)
        cfg = ExperimentConfig(strategy="fedpdc", local_epochs=2, batch_size=16, seed=5)
        new_server, rec = engine.run_round(server, clients, cfg)
        local, _ = train_alone(clients[0], model, 1.0, cfg, 0)
        assert np.array_equal(new_server.model.values, local.values)
        assert rec.measured_accuracies[0] == rec.measured_accuracies[1]

    def test_fedpdc_round_matches_hand_scripted_composition(self, toy_problem):
        _pool, server_set, rest, _part, _clients, model = toy_problem
        clients = [
            engine.ClientState(0, rest.subset(range(0, 50))),
            engine.ClientState(1, rest.subset(range(50, 110))),
        ]
        cfg = ExperimentConfig(strategy="fedpdc", lam=2.0, local_epochs=2, batch_size=16, seed=7)
        server = engine.ServerState(model, server_set)
        new_server, rec = engine.run_round(server, clients, cfg)

        # oracle: the same round assembled from the public pieces
        assert engine.sample_clients(2, 1.0, 0, 7) == (0, 1)
        locals_ = [train_alone(c, model, 1.0, cfg, 0)[0] for c in clients]
        accs = [nn.evaluate_accuracy(m, server_set.data) for m in locals_]
        stacked = np.stack([m.values for m in locals_])
        expected = engine._combine(model.arch, stacked, engine.fedpdc_weights(accs)[0])
        assert np.array_equal(new_server.model.values, expected.values)
        assert rec.measured_accuracies == {0: accs[0], 1: accs[1]}
        assert new_server.prev_accuracies == {0: accs[0], 1: accs[1]}
        assert abs(sum(rec.agg_weights.values()) - 1.0) < 1e-12

    def test_fresh_clients_train_with_unit_accuracy(self, toy_problem):
        # p is the accuracy from the previous round only; a client scored in
        # round t-2, skipped in t-1 and selected in t trains with p = 1
        _pool, server_set, rest, _part, clients, model = toy_problem
        server = engine.ServerState(model, server_set)
        cfg = ExperimentConfig(strategy="fedpdc", tau=0.5, local_epochs=1, batch_size=32, seed=1)
        records = []
        for _ in range(15):
            server, rec = engine.run_round(server, clients, cfg)
            records.append(rec)
        assert all(p == 1.0 for p in records[0].sent_accuracies.values())
        for prev, rec in zip(records, records[1:]):
            for cid, p in rec.sent_accuracies.items():
                if cid in prev.selected:
                    assert p == prev.measured_accuracies[cid]
                else:
                    assert p == 1.0
        stale = [
            (older.measured_accuracies[cid], rec.sent_accuracies[cid])
            for older, prev, rec in zip(records, records[1:], records[2:])
            for cid in rec.selected
            if cid in older.selected and cid not in prev.selected
        ]
        assert stale, "no client was selected, skipped, then selected again"
        assert any(old < 1.0 for old, _ in stale)
        assert all(p == 1.0 for _, p in stale)

    def test_zero_accuracy_round_is_flagged_uniform(self):
        # crafted model misclassifies both balanced server samples: logits [x, -x]
        arch = nn.ModelArch((1, 2))
        model = nn.ParamVector(arch, np.array([1.0, -1.0, 0.0, 0.0]))
        server_set = make_server_set(np.array([[-1.0], [1.0]]), np.array([0, 1]), 2, 1)
        client_data = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        clients = [engine.ClientState(0, client_data), engine.ClientState(1, client_data)]
        server = engine.ServerState(model, server_set)
        cfg = ExperimentConfig(strategy="fedpdc", local_epochs=1, batch_size=2, eta=0.0, seed=0)
        _new_server, rec = engine.run_round(server, clients, cfg)
        assert rec.measured_accuracies == {0: 0.0, 1: 0.0}
        assert "uniform_weights_zero_accuracy" in rec.flags
        assert rec.agg_weights == {0: 0.5, 1: 0.5}

    def test_server_state_requires_a_server_set(self, toy_problem):
        model = toy_problem[-1]
        with pytest.raises(StateError, match="ServerSet"):
            engine.ServerState(model, None)

    def test_rejects_invalid_previous_accuracies(self, toy_problem):
        _pool, server_set, rest, _part, clients, model = toy_problem
        with pytest.raises(StateError):
            engine.ServerState(model, server_set, 1, {0: 1.5})
        server = engine.ServerState(model, server_set, 1, {len(clients): 0.5})
        with pytest.raises(StateError):
            engine.run_round(server, clients, ExperimentConfig(strategy="fedpdc"))

    def test_adaptive_lambda_enters_reported_loss(self, toy_problem):
        # round 4 (1-based 5): lam = 2.5; literal penalty shifts losses only
        _pool, server_set, rest, _part, clients, model = toy_problem
        cfg = ExperimentConfig(local_epochs=1, batch_size=32, seed=3)
        server = engine.ServerState(model, server_set, 4, {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5})
        _s_adaptive, rec_adaptive = engine.run_round(
            server, clients, replace(cfg, strategy="fedpdc_adaptive")
        )
        _s_plain, rec_plain = engine.run_round(
            server, clients, replace(cfg, strategy="fedpdc", lam=0.0)
        )
        assert np.array_equal(_s_adaptive.model.values, _s_plain.model.values)
        expected_shift = engine.adaptive_lambda(5) * (1.0 - 0.5)
        assert rec_adaptive.mean_local_loss == pytest.approx(
            rec_plain.mean_local_loss + expected_shift, rel=1e-12
        )

    def test_round_record_mean_loss_is_nan_without_batches(self, toy_problem):
        _pool, server_set, rest, _part, clients, model = toy_problem
        server = engine.ServerState(model, server_set)
        cfg = ExperimentConfig(strategy="fedavg", local_epochs=0, seed=0)
        _new, rec = engine.run_round(server, clients, cfg)
        assert math.isnan(rec.mean_local_loss)


class TestReductionIdentities:
    def test_zero_prox_trajectory_bitwise_equals_fedavg(self, toy_problem):
        _pool, server_set, rest, _part, clients, model = toy_problem
        fedavg = ExperimentConfig(strategy="fedavg", local_epochs=2, batch_size=16, seed=5)
        finals = []
        for cfg in (fedavg, replace(fedavg, strategy="fedprox", mu_prox=0.0)):
            server = engine.ServerState(model, server_set)
            history = []
            for _ in range(10):
                server, _rec = engine.run_round(server, clients, cfg)
                history.append(server.model.values)
            finals.append(history)
        assert all(np.array_equal(a, b) for a, b in zip(finals[0], finals[1]))

    def test_full_batch_round_is_centralized_gradient_step(self, toy_problem):
        from fedsim.diagnostics import global_objective

        _pool, server_set, rest, _part, clients, model = toy_problem
        full = max(len(c.data) for c in clients)
        cfg = ExperimentConfig(
            strategy="fedavg",
            local_epochs=1,
            batch_size=full,
            eta=0.05,
            momentum=0.0,
            weight_decay=0.0,
            seed=5,
        )
        server = engine.ServerState(model, server_set)
        new_server, _rec = engine.run_round(server, clients, cfg)
        _loss, grad = global_objective(model, [c.data for c in clients])
        assert np.max(np.abs(new_server.model.values - (model.values - 0.05 * grad))) < 1e-9

    def test_literal_penalty_never_moves_the_model(self, toy_problem):
        _pool, _server_set, rest, _part, clients, model = toy_problem
        cfg = ExperimentConfig(strategy="fedpdc", local_epochs=3, batch_size=16, seed=2)
        p = 0.3
        m0, l0 = train_alone(clients[0], model, p, replace(cfg, lam=0.0), 1)
        m10, l10 = train_alone(clients[0], model, p, replace(cfg, lam=10.0), 1)
        assert np.array_equal(m0.values, m10.values)
        shift = 10.0 * (1.0 - p)
        assert all(b == a + shift for a, b in zip(l0, l10))
