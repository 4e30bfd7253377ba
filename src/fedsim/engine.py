"""Round-synchronous federated loop: sampling, local training, aggregation.

Local training and the round loop read the strategy and SGD settings
(lambda, mu_prox, penalty_mode, tau, eta, ...) from a validated
ExperimentConfig. A round scores its local models on the server's public set
only when something reads the scores (_scores_read): fedpdc's weights or
dissimilarity.csv. A client's p is its score from the previous round, else
1. Every strategy aggregates through one path: fedavg_weights or
fedpdc_weights feeding _combine, one product over the array of local models
that train_cohort returns. A round's selected clients train in lock-step
(train_cohort), each on its own lane of the run's one nn.TrainPlan
(round_plan), which also runs the round's scoring forward-only; the
global model, round and SGD settings they share are train_cohort's
arguments, given once. A round measures no diagnostics; the runner takes
them at the pre-round model (diagnostics.FullBatchPass, the same kernel).

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
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .data import LabeledDataset, ServerSet
from .errors import AggregationError, ConfigError, DivergenceError, ShapeError, StateError
from .nn import ModelArch, ParamVector, TrainPlan, check_fits, cross_entropy, evaluate_accuracy

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
    """Telemetry for one communication round: mean_local_loss is the mean of
    the selected clients' mean batch losses."""

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
    stream keyed by (seed, round) so every round is independently
    reproducible; all N ids, with no stream seeded, when that is every client
    (no other draw reads the stream)."""
    count = _sample_count(num_clients, tau)
    if count == num_clients:
        return tuple(range(num_clients))
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


def _scores_read(cfg: ExperimentConfig) -> bool:
    """Whether a round of cfg scores its local models on the server set:
    only when something reads the scores, fedpdc's aggregation weights (and
    with them the next round's p) or dissimilarity.csv. fedavg and fedprox
    only range-check p, so unscored they train with p = 1 and end bitwise
    where they end scored."""
    return cfg.strategy in ("fedpdc", "fedpdc_adaptive") or cfg.emit_dissimilarity


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
    train_cohort: the client a DivergenceError names, its strategy terms
    (penalty, ce_scale), its data and its steps: order holds every epoch's
    shuffle of the data's rows, epoch after epoch, and step s takes the
    next sizes[s] rows of it. What a round's runs share is train_cohort's."""

    client: int
    terms: tuple[float, float]
    data: LabeledDataset
    order: np.ndarray
    sizes: tuple[int, ...]


def local_train(
    client: ClientState,
    w_global: ParamVector,
    p_in: float,
    cfg: ExperimentConfig,
    round_index: int,
    rng: np.random.Generator | None = None,
) -> LocalRun:
    """A client's half of minibatch SGD on the strategy loss for
    local_epochs epochs, starting from w_global: train_cohort(w_global,
    runs, cfg, round_index) runs its steps, in lock-step with the rest of a
    round's clients, and returns the final local model, every batch's
    reported loss in order and their mean.

    p and the client's data (for w_global's architecture) are checked here.
    Each epoch's shuffle comes from the stream keyed by (TAG_LOCAL, seed,
    round) only, so clients holding identical data produce identical local
    models. rng, when given, must be that stream at its start (run_round
    seeds it once a round and restarts it for each client: about 3 us,
    against 20 us to seed it, on a 2-core host); None seeds it here. One
    rng.permuted call, a row per epoch, draws what a permutation call per
    epoch draws.
    """
    data = client.data
    n, epochs, batch_size = len(data), cfg.local_epochs, cfg.batch_size
    terms = _strategy_terms(cfg, p_in)[:2]
    check_fits(w_global.arch, data, f"client {client.id}")
    if rng is None:
        rng = stream(TAG_LOCAL, cfg.seed, round_index)
    order = rng.permuted(np.tile(np.arange(n, dtype=np.intp), (epochs, 1)), axis=1).reshape(-1)
    full, rest = divmod(n, batch_size)
    sizes = (batch_size,) * full + ((rest,) if rest else ())
    return LocalRun(client.id, terms, data, order, sizes * epochs)


def train_cohort(
    model: ParamVector,
    runs: Sequence[LocalRun],
    cfg: ExperimentConfig,
    round_index: int,
    plan: TrainPlan | None = None,
) -> tuple[np.ndarray, list[list[float]], list[float]]:
    """Train local_train's runs of round round_index in lock-step from
    model, under cfg's eta, momentum, weight_decay and proximal weight:
    (models, losses, means) by run in the order given, each bitwise what a
    run gives alone: the final local models as one read-only (runs, params)
    array copied out of the plan's lanes, each run's reported batch losses,
    and their means (np.mean's, NaN for no steps, from the loss table).

    One broadcast load copies model into every lane. At step s one call of
    a plan step runs step s of every run that has one, a segment per run
    on the run's own lane of the plan's parameters and gradients. One take
    first fills the plan's inputs with the step's rows, from the round's
    concatenation of the runs' rows, in the runs' shuffle orders. The
    momentum-SGD update and the finiteness check then run once over those
    lanes and the cohort's own momentum lanes, which it zeroes first, and
    for a proximal term its difference lanes, w - w_global; without one it
    allocates none. Each step does the arithmetic of local_loss, nn.backward
    and nn.sgd_step, in their order. Runs are laid out longest first, so
    the runs with a step s are a prefix of the lanes, and a run of steps
    with equal segment sizes shares one plan step. plan needs model's
    architecture, a lane per run and the rows of their first steps
    together; built here when None. A call starts a generation of the
    plan's bound steps (nn.TrainPlan).

    Each step writes its lanes' cross-entropies, and for a proximal term
    ||w - w_global||^2 (np.vecdot, lane by lane the bits of diff @ diff),
    into row s of two tables of steps by lanes, and the reported losses
    are formed from the two after the last step. A diverging run
    trains on, unread; the tables give each run its first non-finite loss
    and its first step with non-finite parameters, and the DivergenceError
    of the lowest client id among the diverged is raised: the error that
    training the runs one by one in client-id order raises.
    """
    if not runs:
        return np.empty((0, 0)), [], []
    eta, momentum, decay = cfg.eta, cfg.momentum, cfg.weight_decay
    prox_weight = _strategy_terms(cfg, 1.0)[2]
    order = sorted(range(len(runs)), key=lambda k: -len(runs[k].sizes))
    lanes = [runs[k] for k in order]
    count, total = len(lanes), len(lanes[0].sizes)
    if plan is None:
        plan = TrainPlan(model.arch, max(sum(run.sizes[0] for run in lanes if run.sizes), 1), count)
    if count > plan.lanes:
        raise ShapeError(f"a cohort of {count} runs needs a plan with {count} lanes, this one has {plan.lanes}")
    plan.new_generation()
    plan.load(model, slice(count))
    prox = prox_weight != 0.0
    # beside the plan's lanes, each lane's momentum, and for a proximal term
    # its w - w_global, then prox_weight times it
    momenta = np.zeros((count, plan.values.shape[1]))
    diffs = np.empty_like(momenta) if prox else None
    blocks, sources = _cohort_layout(tuple(run.sizes for run in lanes))
    # the cohort's rows, lane after lane; for each step row (in step order)
    # the one of them it reads, and its label
    pool = np.concatenate([run.data.features for run in lanes])
    firsts = accumulate((len(run.data) for run in lanes), initial=0)
    rows_at = np.concatenate([run.order + first for run, first in zip(lanes, firsts)])[sources]
    labels = np.concatenate([run.data.labels for run in lanes])[rows_at]
    # the lanes hold the model until the first update; a lane apiece, since
    # subtracting one row broadcast over the lanes stages it in a buffer
    anchors = plan.values[:count].copy() if prox else None
    scales = np.array([[run.terms[1]] for run in lanes])
    scaled = bool((scales != 1.0).any())
    # steps by lanes: each lane's cross-entropy and ||w - w_global||^2; a
    # lane past its last step reads 0.0 in both
    ces, sq_dists = np.zeros((total, count)), np.zeros((total, count))
    # per lane, the first step whose update left its parameters non-finite; total for none
    blown = np.full(count, total)
    add, subtract, multiply, vecdot, add_reduce = np.add, np.subtract, np.multiply, np.vecdot, np.add.reduce
    # a diverging run overflows before the finiteness checks below catch it;
    # keep numpy from warning on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for s0, s1, sizes, rows in blocks:
            k = len(sizes)
            step, inputs = plan.step(sizes), plan.inputs[: sum(sizes)]
            # the active lanes' prefixes (values also flat: numpy reduces a
            # 1-D array faster than a 2-D one over both axes)
            values, buf, grads, lane_scales = plan.values[:k], momenta[:k], plan.grads[:k], scales[:k]
            flat = values.reshape(-1)
            lane_anchors, diff = (anchors[:k], diffs[:k]) if prox else (None, None)
            by_step = [array[rows].reshape(s1 - s0, -1) for array in (rows_at, labels)]
            for s, step_rows, step_labels in zip(range(s0, s1), *by_step):
                # the indices are in range; mode="raise" would stage the rows in a fresh array
                pool.take(step_rows, 0, inputs, "clip")
                ces[s, :k] = step(step_labels)
                if prox:
                    subtract(values, lane_anchors, diff)
                    # lane by lane bitwise diff @ diff: both are one BLAS dot each
                    vecdot(diff, diff, out=sq_dists[s, :k])
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
                    np.minimum(blown[:k], np.where(np.isfinite(values).all(1), total, s), out=blown[:k])
        losses = _reported_loss(ces, np.array([run.terms[0] for run in lanes]), scales[:, 0], prox_weight, sq_dists)
    if not np.isfinite(losses).all() or (blown < total).any():
        raise _first_divergence(lanes, round_index, losses, blown)
    # each run's lane (order inverted), and a lane's losses contiguous, so
    # that its sum is np.mean's pairwise one
    lane_of, by_lane = np.argsort(order), losses.T.copy()
    models = plan.values[lane_of]
    models.flags.writeable = False
    reported = [by_lane[lane, : len(run.sizes)] for lane, run in zip(lane_of, runs)]
    return models, [r.tolist() for r in reported], [_mean_or_nan(r) for r in reported]


# one layout at a time: at seed 1, one entry and four both hit 49 of 50 rounds
# on prox_small_batch and on paper_sweep's two runs, and 0 of 60 on
# many_clients_diag. A prox_small_batch round's layout (66 steps in 25 blocks)
# takes 61 us uncached, 1.1 us cached, in a 4.5 ms train_cohort (2-core Xeon)
@lru_cache(maxsize=1)
def _cohort_layout(lane_sizes: tuple[tuple[int, ...], ...]):
    """train_cohort's layout of lanes with these step sizes, longest first:
    (blocks, sources). The steps' rows lie step after step, each step's
    segments lane after lane. A block (s0, s1, sizes, rows) is a run of
    steps s0..s1-1 with equal segment sizes, a segment per lane with a step
    there, and rows the slice of the steps' rows they hold; row i of the
    steps is row sources[i] of the lanes' rows (lane after lane, each in step
    order). One pass over the table of steps by lanes; cached, because a
    round that selects every client meets the same sizes each round."""
    count, total = len(lane_sizes), len(lane_sizes[0])
    # steps[s, k]: the rows of lane k's segment of step s, 0 past its last
    steps = np.zeros((total, count), dtype=np.intp)
    for lane, sizes in enumerate(lane_sizes):
        steps[: len(sizes), lane] = sizes
    # cell (s, k) of the table (flat, step after step) starts at[s, k] rows
    # into the steps' layout and from_lane[s, k] rows into the lanes'
    cells = steps.reshape(-1)
    at = cells.cumsum() - cells
    lane_rows = steps.sum(axis=0)
    from_lane = (steps.cumsum(axis=0) - steps + (lane_rows.cumsum() - lane_rows)).reshape(-1)
    edges = (*at[::count].tolist(), int(lane_rows.sum()))
    sources = (from_lane - at).repeat(cells) + np.arange(edges[-1])
    # the first step of each block, then the end
    cuts = [0, *(np.flatnonzero((steps[1:] != steps[:-1]).any(axis=1)) + 1).tolist(), total] if total else []
    blocks = tuple(
        (s0, s1, tuple(steps[s0, : np.count_nonzero(steps[s0])].tolist()), slice(edges[s0], edges[s1]))
        for s0, s1 in zip(cuts, cuts[1:])
    )
    sources.flags.writeable = False
    return blocks, sources


def _first_divergence(
    lanes: list[LocalRun], round_index: int, losses: np.ndarray, blown: np.ndarray
) -> DivergenceError:
    """train_cohort's error for its lanes (runs) of round round_index, given
    their reported losses (steps by lanes) and the step each lane's
    parameters first went non-finite at (the step count for none): the
    error of the lowest client id among the diverged, at its first
    non-finite loss or parameters."""
    total = len(losses)
    bad = ~np.isfinite(losses)
    first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), total).tolist()
    diverged = [lane for lane, firsts in enumerate(zip(first_bad, blown.tolist())) if min(firsts) < total]
    lane = min(diverged, key=lambda lane: lanes[lane].client)
    client, reported = lanes[lane].client, losses[:, lane].tolist()
    bad_loss, bad_values = first_bad[lane], int(blown[lane])
    # a step's loss is checked before its update
    if bad_loss <= bad_values:
        what, step, finite = "a non-finite loss", bad_loss, reported[:bad_loss]
    else:
        what, step, finite = "non-finite parameters", bad_values, reported[: bad_values + 1]
    last = finite[-1] if finite else None
    return DivergenceError(
        f"client {client} hit {what} in round {round_index} at step {step} (last finite loss: {last})",
        client=client,
        round=round_index,
        step=step,
        last_finite_loss=last,
    )


def _combine(arch: ModelArch, models: np.ndarray, weights: np.ndarray) -> ParamVector:
    """The new global model weights @ models, with a local model of arch per
    row of models and weights from fedavg_weights or fedpdc_weights."""
    if len(models) != weights.size:
        raise AggregationError("models and weights must have equal length")
    return ParamVector(arch, weights @ models)


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


def _mean_or_nan(values) -> float:
    """np.mean of a list of floats or a contiguous 1-D array (its pairwise
    sum over the count), without np.mean's overhead; NaN when empty."""
    return float(np.add.reduce(values) / len(values)) if len(values) else math.nan


def round_plan(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    test_data: LabeledDataset | None = None,
) -> TrainPlan:
    """One nn.TrainPlan for every round of cfg over clients: a lane per
    client a round selects, and rows for the tallest first lock-step any
    such selection takes, the server set and the test set. When cfg asks
    for a diagnostic, its rows also hold the largest client, so that the
    runner's diagnostics.FullBatchPass, which packs its blocks into this
    plan, fits; the pass adds no lanes."""
    count = _sample_count(len(clients), cfg.tau)
    firsts = sorted(min(cfg.batch_size, len(c.data)) for c in clients)[-count:]
    rows = max(sum(firsts), len(server.server_set.data), len(test_data or ()))
    if cfg.instrument_global_loss or cfg.emit_dissimilarity:
        rows = max(rows, max(len(c.data) for c in clients))
    return TrainPlan(server.model.arch, rows, count)


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    test_data: LabeledDataset | None = None,
    plan: TrainPlan | None = None,
) -> tuple[ServerState, RoundRecord]:
    """One communication round: sample, train locals, score them on the
    server set when something reads the scores (_scores_read), aggregate,
    and score the new global model on the server and test sets.

    Unscored, the record's measured_accuracies and the next state's
    prev_accuracies are empty, and so every client trains with p = 1: its
    sent_accuracies are all 1.0. The selected clients train in lock-step
    (train_cohort, given the global model, cfg and the round once) and
    every score is a forward-only step, all on plan: round_plan's when
    None, and the runner passes one per run, so a step shape that
    consecutive rounds meet is bound once. Local models for distinct
    clients are independent, so training order cannot affect the result;
    everything is reduced in ascending client id.
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
    # call (the set): a round scores the server set once per selected client
    # when the scores are read, then the server set and the test set once
    # each. So every selected client keeps its own local_train call, which
    # lays out its run, until the tracer counts samples at the kernel step;
    # the training itself is train_cohort's. Every client's shuffles come
    # from the same stream: seeded once, restarted per client
    rng = stream(TAG_LOCAL, cfg.seed, server.round)
    start = rng.bit_generator.state
    runs = []
    for cid in selected:
        rng.bit_generator.state = start
        runs.append(local_train(clients[cid], server.model, sent[cid], cfg, server.round, rng=rng))
    # the local models stay one array; a row becomes a ParamVector only to be scored
    models, _losses, mean_losses = train_cohort(server.model, runs, cfg, server.round, plan)
    arch = server.model.arch
    measured = (
        {cid: evaluate_accuracy(ParamVector(arch, row), server_data, plan) for cid, row in zip(selected, models)}
        if _scores_read(cfg)
        else {}
    )

    flags: tuple[str, ...] = ()
    if cfg.strategy in ("fedpdc", "fedpdc_adaptive"):
        weights, fallback = fedpdc_weights(list(measured.values()))
        if fallback:
            flags = ("uniform_weights_zero_accuracy",)
    else:
        weights = fedavg_weights([len(clients[cid].data) for cid in selected])
    new_model = _combine(arch, models, weights)

    record = RoundRecord(
        round=server.round,
        selected=selected,
        sent_accuracies=sent,
        measured_accuracies=measured,
        agg_weights={cid: float(w) for cid, w in zip(selected, weights)},
        mean_local_loss=_mean_or_nan(mean_losses),
        global_acc_server=evaluate_accuracy(new_model, server_data, plan),
        global_acc_test=evaluate_accuracy(new_model, test_data, plan) if test_data is not None else math.nan,
        flags=flags,
    )
    new_server = replace(
        server, model=new_model, round=server.round + 1, prev_accuracies=dict(measured)
    )
    return new_server, record
