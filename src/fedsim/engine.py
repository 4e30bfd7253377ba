"""Round-synchronous federated loop: sampling, local training, aggregation.

Local training and the round loop read the strategy and SGD settings
(lambda, mu_prox, penalty_mode, tau, eta, ...) from a validated
ExperimentConfig. Every round scores each local model on the server's
public set; a client's p is its score from the previous round, else 1.
Every strategy aggregates through one path: fedavg_weights or
fedpdc_weights feeding _combine. A round's one nn.TrainPlan, the
forward/backward kernel, runs its local training and, forward-only, its scoring.
A round measures no diagnostics; the runner takes them at the pre-round
model (diagnostics.FullBatchPass, the same kernel).

Strategies:
  fedavg          size-weighted averaging of local models
  fedprox         fedavg plus a proximal term anchoring locals to the global model
  fedpdc          locals scored on the server's balanced public set; aggregation
                  weights proportional to those accuracies, and the local loss
                  reports an accuracy penalty lam*(1-p)
  fedpdc_adaptive fedpdc with lam = 0.5 * round_number

The accuracy penalty is constant in the weights, so under the default
penalty_mode="literal" it changes reported losses but not updates;
penalty_mode="scaled_ce" instead multiplies the cross-entropy (and its
gradient) by (1 + lam*(1-p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ExperimentConfig
from .data import LabeledDataset, ServerSet
from .errors import AggregationError, ConfigError, DivergenceError, StateError
from .nn import ParamVector, TrainPlan, check_fits, cross_entropy, evaluate_accuracy

# perfbench/spans.py traces these names in this module's namespace
from .diagnostics import global_objective  # noqa: F401
from .nn import Batch, backward, forward, sgd_step  # noqa: F401
from .seeding import TAG_LOCAL, TAG_SAMPLE, stream

@dataclass(frozen=True)
class ClientState:
    """One participant: its id and private data."""

    id: int
    data: LabeledDataset


@dataclass(frozen=True)
class ServerState:
    """The global model before a round, plus the public-set accuracy of each
    client scored in the previous round; a client absent from
    prev_accuracies trains with p = 1."""

    model: ParamVector
    server_set: ServerSet
    round: int = 0
    prev_accuracies: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.server_set, ServerSet):
            raise StateError("the server needs a ServerSet to score local models on")
        if self.round < 0:
            raise StateError("round must be >= 0")
        if any(not 0.0 <= p <= 1.0 for p in self.prev_accuracies.values()):
            raise StateError("previous accuracies must lie in [0, 1]")


@dataclass(frozen=True)
class RoundRecord:
    """Telemetry for one communication round."""

    round: int
    selected: tuple[int, ...]
    sent_accuracies: dict[int, float]
    measured_accuracies: dict[int, float]
    agg_weights: dict[int, float]
    mean_local_loss: float
    global_acc_server: float
    global_acc_test: float
    flags: tuple[str, ...] = ()


def sample_clients(num_clients: int, tau: float, round_index: int, seed: int) -> tuple[int, ...]:
    """max(floor(tau*N), 1) client ids, drawn without replacement from a
    stream keyed by (seed, round) so every round is independently reproducible."""
    if num_clients < 1:
        raise ConfigError("num_clients must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ConfigError("tau must lie in (0, 1]")
    # epsilon guards floor() against binary representation of taus like 0.3
    count = int(math.floor(tau * num_clients + 1e-9))
    count = min(max(count, 1), num_clients)
    rng = stream(TAG_SAMPLE, seed, round_index)
    picked = rng.choice(num_clients, size=count, replace=False)
    return tuple(sorted(int(c) for c in picked))


def _strategy_terms(cfg: ExperimentConfig, p: float) -> tuple[float, float, float]:
    """The strategy's terms for a client with accuracy p: (penalty,
    ce_scale, prox_weight). The reported loss is ce_scale * ce + penalty +
    prox_weight/2 * ||w - w_global||^2, and the update gradient is ce_scale
    times the cross-entropy gradient plus prox_weight * (w - w_global)."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"accuracy p must lie in [0, 1], got {p}")
    if cfg.strategy == "fedavg":
        return 0.0, 1.0, 0.0
    if cfg.strategy == "fedprox":
        return 0.0, 1.0, cfg.mu_prox
    # fedpdc / fedpdc_adaptive
    penalty = cfg.lam * (1.0 - p)
    if cfg.penalty_mode == "literal":
        # constant in w: reported loss includes it, the gradient does not
        return penalty, 1.0, 0.0
    return 0.0, 1.0 + penalty, 0.0


def _reported_loss(
    ce: float, penalty: float, ce_scale: float, prox_weight: float, diff: np.ndarray | None
) -> float:
    """Strategy loss from the cross-entropy; diff = w - w_global is read
    only when prox_weight is nonzero. ce >= +0, so a unit scale and a zero
    penalty leave it unchanged bit for bit."""
    loss = ce_scale * ce + penalty
    if prox_weight != 0.0:
        loss += 0.5 * prox_weight * float(diff @ diff)
    return loss


def local_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    cfg: ExperimentConfig,
    p: float,
    w: ParamVector,
    w_global: ParamVector,
) -> tuple[float, float, float]:
    """(strategy loss on one batch, ce_scale, prox_weight): the loss and the
    two numbers that turn its cross-entropy gradient into the update."""
    penalty, ce_scale, prox_weight = _strategy_terms(cfg, p)
    ce = cross_entropy(logits, labels)
    diff = w.values - w_global.values
    return _reported_loss(ce, penalty, ce_scale, prox_weight, diff), ce_scale, prox_weight


def _diverged(
    what: str, client_id: int, round_index: int, step: int, losses: list[float]
) -> DivergenceError:
    last = losses[-1] if losses else None
    return DivergenceError(
        f"client {client_id} hit {what} in round {round_index} at step {step} "
        f"(last finite loss: {last})",
        client=client_id,
        round=round_index,
        step=step,
        last_finite_loss=last,
    )


def local_train(
    client: ClientState,
    w_global: ParamVector,
    p_in: float,
    cfg: ExperimentConfig,
    round_index: int,
    plan: TrainPlan | None = None,
) -> tuple[ParamVector, list[float]]:
    """Minibatch SGD on the strategy loss for local_epochs epochs.

    The per-epoch shuffle stream is keyed by (seed, round) only, so clients
    holding identical data produce identical local models. Returns the final
    local model and every batch's reported loss in order.

    Each step does the arithmetic of local_loss, nn.backward and nn.sgd_step,
    in their order, on plain arrays: plan (an nn.TrainPlan for w_global's
    architecture and at least min(batch_size, client size) rows; built here
    when None, and shared by run_round across a round's clients) holds the
    parameters, gradient, momentum and every temporary, and the steps of a
    full and of a ragged last batch are looked up once per call. Each epoch gathers the
    client's rows in shuffled order once, so a batch is a contiguous slice.
    p, the client's data and the plan are checked once, before the first step.
    """
    arch = w_global.arch
    data = client.data
    n = len(data)
    penalty, ce_scale, prox_weight = _strategy_terms(cfg, p_in)
    check_fits(arch, data, f"client {client.id}")
    batch_size, eta, momentum, decay = cfg.batch_size, cfg.eta, cfg.momentum, cfg.weight_decay
    plan = (plan or TrainPlan(arch, min(batch_size, n))).load(w_global)
    full = plan.step(min(batch_size, n))
    batches = [
        (slice(start, start + batch_size), full if n - start >= batch_size else plan.step(n - start))
        for start in range(0, n, batch_size)
    ]
    anchor = w_global.values
    values, grad, buf, scratch, finite = plan.values, plan.grad, plan.buf, plan.scratch, plan.finite
    buf.fill(0.0)
    prox = prox_weight != 0.0
    diff = plan.diff if prox else None
    add, subtract, multiply, isfinite = np.add, np.subtract, np.multiply, np.isfinite
    all_true = np.logical_and.reduce
    # a batch starts at a multiple of batch_size, so row i of the epoch is
    # row i % batch_size of its batch
    batch_rows = np.arange(n) % batch_size * arch.output_dim
    rng = stream(TAG_LOCAL, cfg.seed, round_index)
    losses: list[float] = []
    # a diverging run overflows before the finiteness checks below turn it
    # into DivergenceError; keep numpy from warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(cfg.local_epochs):
            perm = rng.permutation(n)
            features, picks = data.features[perm], batch_rows + data.labels[perm]
            for rows, step in batches:
                (ce,) = step((features[rows],), picks[rows])
                if prox:
                    subtract(values, anchor, diff)
                loss = _reported_loss(ce, penalty, ce_scale, prox_weight, diff)
                if not math.isfinite(loss):
                    raise _diverged("a non-finite loss", client.id, round_index, len(losses), losses)
                losses.append(loss)
                if ce_scale != 1.0:
                    multiply(grad, ce_scale, grad)
                if prox:
                    multiply(prox_weight, diff, scratch)
                    add(grad, scratch, grad)
                multiply(buf, momentum, buf)
                add(buf, grad, buf)
                multiply(decay, values, scratch)
                add(buf, scratch, buf)
                multiply(eta, buf, scratch)
                subtract(values, scratch, values)
                isfinite(values, finite)
                if not all_true(finite):
                    raise _diverged(
                        "non-finite parameters", client.id, round_index, len(losses) - 1, losses
                    )
    return ParamVector(arch, values), losses


def _combine(models: list[ParamVector], weights: np.ndarray) -> ParamVector:
    """weights @ models, with weights from fedavg_weights or fedpdc_weights."""
    if len(models) != weights.size:
        raise AggregationError("models and weights must have equal length")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise AggregationError("all models must share one architecture")
    stacked = np.stack([m.values for m in models])
    return ParamVector(arch, weights @ stacked)


def fedavg_weights(sizes) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise AggregationError("nothing to aggregate")
    if not np.all(sizes > 0):
        raise AggregationError("dataset sizes must be positive")
    return sizes / sizes.sum()


def fedpdc_weights(accuracies) -> tuple[np.ndarray, bool]:
    """Accuracy-proportional weights; all-zero accuracies fall back to uniform."""
    accs = np.asarray(accuracies, dtype=np.float64)
    if accs.size == 0:
        raise AggregationError("nothing to aggregate")
    if not np.all((accs >= 0) & (accs <= 1)):
        raise AggregationError("accuracies must lie in [0, 1]")
    total = accs.sum()
    if total == 0.0:
        return np.full(accs.size, 1.0 / accs.size), True
    return accs / total, False


def adaptive_lambda(round_number: int) -> float:
    """Sensitivity schedule 0.5 * n for the n-th communication round (1-based)."""
    if round_number < 1:
        raise ConfigError("round_number must be >= 1")
    return 0.5 * round_number


def _mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    test_data: LabeledDataset | None = None,
) -> tuple[ServerState, RoundRecord]:
    """One communication round: sample, train locals, score them on the
    server set, aggregate.

    Local models for distinct clients are independent, so training order
    cannot affect the result; everything is reduced in ascending client id.
    """
    if any(c.id != i for i, c in enumerate(clients)):
        raise StateError("clients must be listed in id order 0..N-1")
    if any(not 0 <= cid < len(clients) for cid in server.prev_accuracies):
        raise StateError("previous accuracies name a client that does not exist")
    if cfg.strategy == "fedpdc_adaptive":
        cfg = replace(cfg, lam=adaptive_lambda(server.round + 1))

    server_data = server.server_set.data
    selected = sample_clients(len(clients), cfg.tau, server.round, cfg.seed)
    sent = {cid: server.prev_accuracies.get(cid, 1.0) for cid in selected}
    # one workspace for the round's batches and scored sets; perfbench/spans.py
    # reads local_train's client and cfg and evaluate_accuracy's set by position
    rows = min(cfg.batch_size, max(len(clients[cid].data) for cid in selected))
    plan = TrainPlan(server.model.arch, max(rows, len(server_data), len(test_data or ())))
    trained = {
        cid: local_train(clients[cid], server.model, sent[cid], cfg, server.round, plan)
        for cid in selected
    }
    measured = {cid: evaluate_accuracy(trained[cid][0], server_data, plan) for cid in selected}

    flags: tuple[str, ...] = ()
    if cfg.strategy in ("fedpdc", "fedpdc_adaptive"):
        weights, fallback = fedpdc_weights(list(measured.values()))
        if fallback:
            flags = ("uniform_weights_zero_accuracy",)
    else:
        weights = fedavg_weights([len(clients[cid].data) for cid in selected])
    new_model = _combine([trained[cid][0] for cid in selected], weights)

    record = RoundRecord(
        round=server.round,
        selected=selected,
        sent_accuracies=sent,
        measured_accuracies=measured,
        agg_weights={cid: float(w) for cid, w in zip(selected, weights)},
        mean_local_loss=_mean_or_nan([_mean_or_nan(trained[cid][1]) for cid in selected]),
        global_acc_server=evaluate_accuracy(new_model, server_data, plan),
        global_acc_test=evaluate_accuracy(new_model, test_data, plan) if test_data is not None else math.nan,
        flags=flags,
    )
    new_server = replace(
        server, model=new_model, round=server.round + 1, prev_accuracies=dict(measured)
    )
    return new_server, record
