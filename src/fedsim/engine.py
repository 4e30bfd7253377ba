"""Round-synchronous federated loop: sampling, local training, aggregation.

Local training and the round loop read the strategy and SGD settings
(lambda, mu_prox, penalty_mode, tau, eta, ...) from a validated
ExperimentConfig. Every round scores each local model on the server's
public set; a client's p is its score from the previous round, else 1.
Every strategy aggregates through one path: fedavg_weights or
fedpdc_weights feeding _combine. A round's selected clients train in
lock-step (train_cohort), each on its own lane of one nn.TrainPlan, the
forward/backward kernel, which also runs the round's scoring forward-only;
the runner builds that plan once per run (round_plan).
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
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .data import LabeledDataset, ServerSet
from .errors import AggregationError, ConfigError, DivergenceError, ShapeError, StateError
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
    count = _sample_count(num_clients, tau)
    rng = stream(TAG_SAMPLE, seed, round_index)
    picked = rng.choice(num_clients, size=count, replace=False)
    return tuple(sorted(int(c) for c in picked))


def _sample_count(num_clients: int, tau: float) -> int:
    """How many clients sample_clients draws: max(floor(tau*N), 1)."""
    if num_clients < 1:
        raise ConfigError("num_clients must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ConfigError("tau must lie in (0, 1]")
    # epsilon guards floor() against binary representation of taus like 0.3
    count = int(math.floor(tau * num_clients + 1e-9))
    return min(max(count, 1), num_clients)


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


def _reported_loss(ce, penalty, ce_scale, prox_weight: float, sq_dist):
    """Strategy loss from the cross-entropy and sq_dist = ||w - w_global||^2,
    which is read only when prox_weight is nonzero; floats or arrays of them
    (train_cohort's tables), in one operation order. ce >= +0, so a unit
    scale and a zero penalty leave it unchanged bit for bit."""
    loss = ce_scale * ce + penalty
    if prox_weight != 0.0:
        loss = loss + 0.5 * prox_weight * sq_dist
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
    return _reported_loss(ce, penalty, ce_scale, prox_weight, float(diff @ diff)), ce_scale, prox_weight


@dataclass(frozen=True)
class LocalRun:
    """One client's local training, laid out by local_train for
    train_cohort: the client and round a DivergenceError names, the global
    model it starts from, its strategy terms (penalty, ce_scale,
    prox_weight), the SGD settings (eta, momentum, weight_decay) and its
    steps. Epoch e gathers the client's features (source) in the order
    shuffles[e] into rows, and step s reads sizes[s] rows of them, the
    slice features[s]. picks holds every step's picks in step order:
    i * output_dim + label for row i of its batch."""

    client: int
    round: int
    anchor: ParamVector
    terms: tuple[float, float, float]
    sgd: tuple[float, float, float]
    source: np.ndarray
    shuffles: np.ndarray
    rows: np.ndarray
    sizes: tuple[int, ...]
    features: list[np.ndarray]
    picks: np.ndarray


def local_train(
    client: ClientState,
    w_global: ParamVector,
    p_in: float,
    cfg: ExperimentConfig,
    round_index: int,
    rng: np.random.Generator | None = None,
) -> LocalRun:
    """A client's half of minibatch SGD on the strategy loss for
    local_epochs epochs: train_cohort runs its steps, in lock-step with the
    rest of a round's clients, and returns the final local model and every
    batch's reported loss in order.

    p and the client's data are checked here. Each epoch's shuffle comes
    from the stream keyed by (TAG_LOCAL, seed, round) only, so clients
    holding identical data produce identical local models. rng, when given,
    must be that stream at its start (run_round seeds it once a round and
    restarts it for each client); None seeds it here. An epoch's rows are
    gathered in shuffled order once, when its first step runs, so each
    batch's features are a contiguous slice.
    """
    arch = w_global.arch
    data = client.data
    n, epochs, batch_size = len(data), cfg.local_epochs, cfg.batch_size
    terms = _strategy_terms(cfg, p_in)
    check_fits(arch, data, f"client {client.id}")
    if rng is None:
        rng = stream(TAG_LOCAL, cfg.seed, round_index)
    shuffles = np.array([rng.permutation(n) for _epoch in range(epochs)], dtype=np.intp).reshape(epochs, n)
    # a batch starts at a multiple of batch_size, so row i of an epoch is
    # row i % batch_size of its batch
    picks = (np.arange(n) % batch_size * arch.output_dim + data.labels[shuffles]).reshape(-1)
    rows = np.empty_like(data.features)
    starts = range(0, n, batch_size)
    sizes = tuple(min(batch_size, n - start) for start in starts)
    batches = [rows[start : start + size] for start, size in zip(starts, sizes)]
    return LocalRun(
        client.id, round_index, w_global, terms, (cfg.eta, cfg.momentum, cfg.weight_decay), data.features,
        shuffles, rows, sizes * epochs, batches * epochs, picks,
    )


def train_cohort(
    runs: Sequence[LocalRun], plan: TrainPlan | None = None
) -> list[tuple[ParamVector, list[float]]]:
    """Train local_train's runs in lock-step: (final local model, every
    batch's reported loss) per run, in the order given, each bitwise what
    the run gives trained alone.

    At step s one call of a plan step runs step s of every run that has
    one, a segment per run on the run's own lane of the plan's parameters,
    momentum and gradients; the momentum-SGD update and the finiteness
    check then run once over those lanes. Each step does the arithmetic of
    local_loss, nn.backward and nn.sgd_step, in their order. Runs are laid
    out longest first, so the runs with a step s are a prefix of the lanes,
    and a run of steps with equal segment sizes shares one plan step.
    plan needs the runs' architecture, a lane per run (or one lane for one
    run) and the rows of their first steps together; built here when None.

    Each step writes its lanes' cross-entropies (and for a proximal term
    ||w - w_global||^2) into a table of steps by lanes, and the reported
    losses are formed from the tables after the last step. A diverging run
    trains on, unread; the tables give each run its first non-finite loss
    and its first step with non-finite parameters, and the DivergenceError
    of the lowest client id among the diverged is raised: the error that
    training the runs one by one in client-id order raises.
    """
    if not runs:
        return []
    sgd = {run.sgd + run.terms[2:] for run in runs}
    if len(sgd) > 1:
        raise ConfigError("a cohort's runs must share eta, momentum, weight_decay and the proximal weight")
    (eta, momentum, decay, prox_weight), = sgd
    order = sorted(range(len(runs)), key=lambda k: -len(runs[k].sizes))
    lanes = [runs[k] for k in order]
    count, arch, total = len(lanes), lanes[0].anchor.arch, len(lanes[0].sizes)
    rows = sum(run.sizes[0] for run in lanes if run.sizes)
    plan = plan or TrainPlan(arch, max(rows, 1), count, count)
    if count > plan.lanes:
        raise ShapeError(f"a cohort of {count} runs needs a plan with {count} lanes, this one has {plan.lanes}")
    for lane, run in enumerate(lanes):
        plan.load(run.anchor, lane)
    plan.buf[:count].fill(0.0)
    # step s's picks, lane after lane, at picks[starts[s]:ends[s]]: lane k's
    # segment begins offsets[k, s] rows into its step
    steps = np.zeros((count, total), dtype=np.intp)
    for lane, run in enumerate(lanes):
        steps[lane, : len(run.sizes)] = run.sizes
    offsets = np.cumsum(steps, axis=0) - steps
    ends = np.cumsum(steps.sum(axis=0))
    starts = ends - steps.sum(axis=0)
    picks = np.empty(ends[-1] if ends.size else 0, dtype=np.intp)
    for lane, run in enumerate(lanes):
        sizes, at = steps[lane, : len(run.sizes)], offsets[lane, : len(run.sizes)]
        first_rows = starts[: sizes.size] + at - (np.cumsum(sizes) - sizes)
        picks[np.repeat(first_rows, sizes) + np.arange(run.picks.size)] = run.picks + np.repeat(
            at * arch.output_dim, sizes
        )
    # a run gathers each epoch's rows at the epoch's first step
    gathers: dict[int, list] = {}
    for run in lanes:
        for epoch, shuffle in enumerate(run.shuffles):
            gathers.setdefault(epoch * len(run.sizes) // len(run.shuffles), []).append(
                (run.source, shuffle, run.rows)
            )
    active = np.count_nonzero(steps, axis=0).tolist()
    # per step: its segments' features and its picks
    inputs = [([run.features[s] for run in lanes[:k]], picks[starts[s] : ends[s]]) for s, k in enumerate(active)]
    # the first step of each run of steps with equal segment sizes, then the end
    cuts = [0, *(np.flatnonzero((steps[:, 1:] != steps[:, :-1]).any(axis=0)) + 1).tolist(), total] if total else []
    prox = prox_weight != 0.0
    anchors = np.stack([run.anchor.values for run in lanes]) if prox else None
    scales = np.array([[run.terms[1]] for run in lanes])
    scaled = bool((scales != 1.0).any())
    # steps by lanes: each lane's cross-entropy and ||w - w_global||^2, the
    # latter in blocks of (lanes, 1, 1), the stacked product's out; a lane
    # past its last step reads 0.0 in both
    ces, sq_dists = np.zeros((total, count)), np.zeros((total, count, 1, 1))
    # per lane, the first step whose update left its parameters non-finite; total for none
    blown = np.full(count, total)
    # each active count's prefix views of the plan's lanes (values also
    # flat: numpy reduces a 1-D array faster than a 2-D one over both axes)
    views = {
        k: (plan.values[:k], plan.buf[:k], plan.diff[:k], plan.grads[:k], plan.finite[:k], scales[:k],
            anchors[:k] if prox else None, plan.diff[:k, None, :], plan.diff[:k, :, None],
            plan.values[:k].reshape(-1))
        for k in set(active)
    }
    add, subtract, multiply, isfinite, take = np.add, np.subtract, np.multiply, np.isfinite, np.take
    matmul, add_reduce, all_true = np.matmul, np.add.reduce, np.logical_and.reduce
    # a diverging run overflows before the finiteness checks below catch it;
    # keep numpy from warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for s0, s1 in zip(cuts, cuts[1:]):
            k = active[s0]
            step = plan.step(steps[:k, s0].tolist())
            values, buf, diff, grads, finite, lane_scales, lane_anchors, diff_rows, diff_columns, flat = views[k]
            for s in range(s0, s1):
                for source, shuffle, rows in gathers.get(s, ()):
                    # the indices are in range; mode="raise" would stage the rows in a fresh array
                    take(source, shuffle, 0, rows, "clip")
                ces[s, :k] = step(*inputs[s])
                if prox:
                    subtract(values, lane_anchors, diff)
                    # lane by lane bitwise diff @ diff: both are one BLAS dot each
                    matmul(diff_rows, diff_columns, out=sq_dists[s, :k])
                if scaled:
                    multiply(grads, lane_scales, grads)
                if prox:
                    multiply(prox_weight, diff, diff)
                    add(grads, diff, grads)
                multiply(buf, momentum, buf)
                add(buf, grads, buf)
                # the gradients are spent: their rows hold the products below
                multiply(decay, values, grads)
                add(buf, grads, buf)
                multiply(eta, buf, grads)
                subtract(values, grads, values)
                # a finite sum has only finite terms; an overflowing one
                # needs the exact check, lane by lane
                if not math.isfinite(add_reduce(flat, None)):
                    isfinite(values, finite)
                    np.minimum(blown[:k], np.where(all_true(finite, 1), total, s), out=blown[:k])
        losses = _reported_loss(ces, np.array([run.terms[0] for run in lanes]), scales[:, 0], prox_weight,
                                sq_dists.reshape(total, count))
    if not np.isfinite(losses).all() or (blown < total).any():
        raise _first_divergence(lanes, losses, blown)
    trained: list = [None] * count
    for lane, (k, run) in enumerate(zip(order, lanes)):
        trained[k] = (ParamVector(arch, plan.values[lane]), losses[: len(run.sizes), lane].tolist())
    return trained


def _first_divergence(lanes: list[LocalRun], losses: np.ndarray, blown: np.ndarray) -> DivergenceError:
    """train_cohort's error for its lanes (runs), given their reported
    losses (steps by lanes) and the step each lane's parameters first went
    non-finite at (the step count for none): the error of the lowest client
    id among the diverged, at its first non-finite loss or parameters."""
    total = len(losses)
    bad = ~np.isfinite(losses)
    first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), total).tolist()
    diverged = [lane for lane, firsts in enumerate(zip(first_bad, blown.tolist())) if min(firsts) < total]
    lane = min(diverged, key=lambda lane: lanes[lane].client)
    reported, bad_loss, bad_values = losses[:, lane].tolist(), first_bad[lane], int(blown[lane])
    # a step's loss is checked before its update
    if bad_loss <= bad_values:
        return _diverged("a non-finite loss", lanes[lane], bad_loss, reported[:bad_loss])
    return _diverged("non-finite parameters", lanes[lane], bad_values, reported[: bad_values + 1])


def _diverged(what: str, run: LocalRun, step: int, losses: list[float]) -> DivergenceError:
    last = losses[-1] if losses else None
    return DivergenceError(
        f"client {run.client} hit {what} in round {run.round} at step {step} "
        f"(last finite loss: {last})",
        client=run.client,
        round=run.round,
        step=step,
        last_finite_loss=last,
    )


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


def round_plan(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    test_data: LabeledDataset | None = None,
) -> TrainPlan:
    """One nn.TrainPlan for every round of cfg over clients: a lane and a
    segment per client a round selects, and rows for the tallest first
    lock-step any such selection takes, the server set and the test set."""
    count = _sample_count(len(clients), cfg.tau)
    firsts = sorted(min(cfg.batch_size, len(c.data)) for c in clients)[-count:]
    rows = max(sum(firsts), len(server.server_set.data), len(test_data or ()))
    return TrainPlan(server.model.arch, rows, count, count)


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    test_data: LabeledDataset | None = None,
    plan: TrainPlan | None = None,
) -> tuple[ServerState, RoundRecord]:
    """One communication round: sample, train locals, score them on the
    server set, aggregate.

    The selected clients train in lock-step (train_cohort) and every score
    is a forward-only step, all on plan: round_plan's when None, and the
    runner passes one per run, so each step shape is bound once per run.
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
    plan = plan or round_plan(server, clients, cfg, test_data)
    # perfbench/spans.py counts training samples at each local_train call,
    # by position (client, cfg), and scored rows at each evaluate_accuracy
    # call (the set). So every selected client keeps its own local_train
    # call, which lays out its run, until the tracer counts samples at the
    # kernel step; the training itself is train_cohort's. Every client's
    # shuffles come from the same stream: seeded once, restarted per client
    rng = stream(TAG_LOCAL, cfg.seed, server.round)
    start = rng.bit_generator.state
    runs = []
    for cid in selected:
        rng.bit_generator.state = start
        runs.append(local_train(clients[cid], server.model, sent[cid], cfg, server.round, rng=rng))
    trained = dict(zip(selected, train_cohort(runs, plan)))
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
