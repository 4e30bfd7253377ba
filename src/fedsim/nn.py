"""Minimal MLP substrate: forward, cross-entropy, analytic gradients, SGD.

All math runs in float64 and every result is a function of its inputs
alone, so trajectories are reproducible bit for bit. Parameters live in a
single flat vector (per layer: row-major weight matrix, then bias).
TrainPlan is the one forward/backward kernel, of training, scoring and the
full-batch pass; loss_and_grad and forward are its one-shot forms. Batch,
OptimizerState, forward, cross_entropy, backward and sgd_step, like
engine.local_loss and diagnostics.global_objective and gradient_dissimilarity,
stay for the benchmark tracer (perfbench/spans.py), which wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .data import LabeledDataset, checked_arrays, is_int, plain_number
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    EvaluationError,
    ShapeError,
    StateError,
)
from .seeding import TAG_INIT, stream

CHECKPOINT_MAGIC = "fedsim-model v1"
# a TrainPlan step: the labels of its rows -> its segments' losses, or with
# None, forward only -> the logits
Step = Callable[[np.ndarray | None], list[float] | np.ndarray]
# from this many rows on, a step takes the row max a column at a time. On 8
# logits (2-core Xeon, medians of 15) np.maximum.reduce along the rows took
# 4.2 us at 24 rows against 6.5 for the column loop, 7.5 against 6.8 at 64 and
# 12.9 against 6.9 at 128; whole steps of 24-64 rows timed the same either way,
# and the column loop at every height read 4.7% more prox_small_batch wall time.
# The two differ only in the sign of a zero maximum, which changes no bit
COLUMN_MAX_ROWS = 32
# a generation of bound steps (TrainPlan.new_generation) also ends at this many,
# so a plan that starts none holds at most twice as many; no workload reaches it
MAX_BOUND_STEPS = 32


@dataclass(frozen=True)
class ModelArch:
    """Fully connected architecture; hidden layers use ReLU, output is raw logits."""

    layer_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(self.layer_widths)
        if len(widths) < 2:
            raise ConfigError("architecture needs at least input and output widths")
        if any(not is_int(w) or w < 1 for w in widths):
            raise ConfigError(f"layer widths must be integers >= 1, got {widths}")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in widths))

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


def param_count(arch: ModelArch) -> int:
    widths = arch.layer_widths
    return sum(w_in * w_out + w_out for w_in, w_out in zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector bound to its architecture."""

    arch: ModelArch
    values: np.ndarray

    def __post_init__(self) -> None:
        # private copy so freezing never touches the caller's array
        vals = np.array(self.values, dtype=np.float64, order="C").ravel()
        expected = param_count(self.arch)
        if vals.size != expected:
            raise ShapeError(f"expected {expected} parameters, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise StateError("parameters must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Batch:
    """One minibatch of features and nonnegative integer labels, held to
    LabeledDataset's rules (data.checked_arrays): every failure is a DataError."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats, labs = checked_arrays(self.features, self.labels)
        if labs.min() < 0:
            raise DataError("batch labels must be nonnegative")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)


@dataclass(frozen=True)
class OptimizerState:
    """Momentum-SGD state; weight decay is folded into the raw gradient."""

    momentum_buffer: np.ndarray
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        buf = np.array(self.momentum_buffer, dtype=np.float64, order="C").ravel()
        if self.lr < 0:
            raise ConfigError("learning rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        buf.setflags(write=False)
        object.__setattr__(self, "momentum_buffer", buf)


def _layer_slices(arch: ModelArch):
    """Yield (weight_slice, bias_slice, in_width, out_width) per layer."""
    offset = 0
    widths = arch.layer_widths
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        w_sl = slice(offset, offset + w_in * w_out)
        offset += w_in * w_out
        b_sl = slice(offset, offset + w_out)
        offset += w_out
        yield w_sl, b_sl, w_in, w_out


def unpack(arch: ModelArch, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """[(W, b), ...] views of a flat vector, W shaped (in, out), or of a row
    per lane, W shaped (lanes, in, out) and b (lanes, out)."""
    return [
        (values[..., w_sl].reshape(*values.shape[:-1], w_in, w_out), values[..., b_sl])
        for w_sl, b_sl, w_in, w_out in _layer_slices(arch)
    ]


def init_model(arch: ModelArch, seed: int) -> ParamVector:
    """Seeded Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = stream(TAG_INIT, seed)
    values = np.zeros(param_count(arch))
    for w_sl, _b_sl, w_in, w_out in _layer_slices(arch):
        bound = np.sqrt(6.0 / (w_in + w_out))
        values[w_sl] = rng.uniform(-bound, bound, size=w_in * w_out)
    return ParamVector(arch, values)


def dot_for(rows: int) -> Callable:
    """The matrix product for operands with `rows` batch rows: np.dot, which
    gives np.matmul's bits without its dispatch, unless rows is 1. Then a
    product can be 1x1 by 1x1, which np.dot computes as a*b and np.matmul
    as 0 + a*b; the two differ where a*b is -0. np.matmul for every group
    read 21% more wall time on many_clients_diag and 14% on
    prox_small_batch (10 runs each, one BLAS thread, 2-core Xeon)."""
    return np.dot if rows > 1 else np.matmul


def _check_width(arch: ModelArch, features: np.ndarray) -> None:
    if features.shape[1] != arch.input_dim:
        raise ShapeError(
            f"features have {features.shape[1]} columns, architecture expects {arch.input_dim}"
        )


def forward(model: ParamVector, batch: Batch) -> np.ndarray:
    """Logits matrix, shape (batch_size, output_dim): the one-shot form of
    TrainPlan's forward-only step."""
    _check_width(model.arch, batch.features)
    return _filled(TrainPlan(model.arch, len(batch.features)).load(model), batch.features)(None)


def _filled(plan: TrainPlan, features: np.ndarray) -> Step:
    """plan's step over the rows of features, one segment, with them copied
    into its inputs: bound first, so a set the plan cannot hold is the
    step's ShapeError."""
    step = plan.step(len(features))
    np.copyto(plan.inputs[: len(features)], features)
    return step


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> None:
    if logits.ndim != 2 or labels.shape != (logits.shape[0],) or labels.size == 0:
        raise ShapeError("logits must be 2-d with one label per row and at least one row")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise DataError(f"labels must lie in [0, {logits.shape[1]})")


def check_fits(arch: ModelArch, dataset: LabeledDataset, name: str) -> None:
    """Raise unless the model takes dataset's features and outputs a logit
    for each of its labels; name (e.g. "client 3") leads the message."""
    if dataset.input_dim != arch.input_dim:
        raise ShapeError(
            f"{name} features have {dataset.input_dim} columns, "
            f"architecture expects {arch.input_dim}"
        )
    if dataset.labels.max() >= arch.output_dim:
        raise DataError(f"{name} labels must lie in [0, {arch.output_dim})")


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy, stabilized by max-subtraction."""
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(logits, labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(labels.size), labels]
    return float(np.mean(log_norm - picked))


def backward(model: ParamVector, batch: Batch) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. every parameter: the
    loss_and_grad kernel, after the width and label checks it leaves to
    its caller."""
    arch = model.arch
    _check_width(arch, batch.features)
    if batch.labels.max() >= arch.output_dim:
        raise DataError(f"labels must lie in [0, {arch.output_dim})")
    return loss_and_grad(arch, model.values, batch.features, batch.labels)[1]


def loss_and_grad(
    arch: ModelArch, values: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient from one forward pass; the loss
    is bitwise equal to cross_entropy(forward(...)). Inputs are trusted: the
    caller has checked the feature width and that labels lie in
    [0, arch.output_dim). The one-shot form of TrainPlan.
    """
    plan = TrainPlan(arch, len(features))
    np.copyto(plan.values, values)
    (ce,) = _filled(plan, features)(labels)
    return ce, plan.grads[0]


class TrainPlan:
    """The one forward/backward kernel, for one architecture and steps of up
    to `rows` rows in up to `lanes` segments, segment k on lane k, on a
    workspace allocated once: engine.train_cohort runs a round's local
    training on it a lane per client, scoring a forward-only step per set,
    and diagnostics.FullBatchPass a lane per dataset of a block. Callers
    use, a row per lane, the parameters and gradients (values, grads) and
    for `rows` rows the input rows (inputs), and own any other lane state
    (momentum, a scaled gradient). The rest is private: unpack's layer views
    of values and grads, a row per lane, every layer's output (holding the
    delta there on the way back), a tile and its bool twin
    (below), the picks and the row max, norm, picked logit and loss term.

    step(sizes) is the kernel for consecutive segments of sizes[k] rows (an
    int is one segment), bound once per sizes onto prefix views of the
    workspace and held while this generation or the last uses it
    (new_generation). Its caller fills inputs[:sum(sizes)], segment after
    segment, and calls step(labels) with the labels of those rows: the step
    reads segment k's parameters in values[k], overwrites grads[k] with the
    gradient of segment k's mean cross-entropy and returns those losses. It
    reads no other row of inputs, and nothing of labels once it has formed
    the picks, i * output_dim + labels[i], of row i's label in the flattened
    logits. step(None) runs only the forward part and returns the logits, a
    view of the workspace that the next call overwrites. Inputs are trusted:
    the caller has checked the feature width and the labels.

    A bound step is three lists of (call, args), numpy calls that write
    into the workspace: forward (per layer the products, the bias fills,
    the add and a hidden layer's ReLU), loss (the row max, the softmax, the
    picked logits, the one-hot subtraction, and per group the 1/n scale and
    the loss sum) and backward (per layer from the last: the ReLU mask above
    the first layer, and per group the weight gradient, bias gradient and
    delta). The step runs forward and, given labels, forms the picks, runs
    loss, forms the losses and runs backward. The logits become the softmax
    delta in place, sharing one exp(shifted) with the loss. The ReLU mask
    (act > 0) goes into the bool tile and is copied into the float one:
    numpy allocates a cast buffer as large as the layer to write a
    comparison into floats or to multiply by bools. A call overwrites all
    it reads, so one on non-finite input leaves it usable. Every call takes
    its arguments positionally, except np.maximum's out, bound by keyword
    through functools.partial (numpy deprecates a positional one), and a warm
    step allocates no array of step size.

    The matrix products, the bias fill and gradient reduce, the 1/n scale
    and the loss sum run per group, all else once over all rows. A group is
    a run of consecutive segments of equal size, whose products are one
    np.matmul over their lanes stacked (one segment: a 2-D product): that
    makes, lane by lane, the BLAS call of a 2-D product on the lane's rows
    alone. BLAS may give a row other bits inside a taller product (numpy
    sends one row to gemv), and no other value of a row depends on another
    row, so each segment's loss and gradient are bitwise a step's on its
    rows alone. More rows or segments than the plan holds, a segment of no
    rows and a size that is not an integer are each a ShapeError.
    """

    def __init__(self, arch: ModelArch, rows: int, lanes: int = 1) -> None:
        for what, count in (("row", rows), ("lane", lanes)):
            if not is_int(count) or count < 1:
                raise ShapeError(f"a training plan needs an integer {what} count >= 1, got {count!r}")
        self.arch, self.rows, self.lanes = arch, int(rows), int(lanes)
        size, widths = param_count(arch), arch.layer_widths
        self.values, self.grads = np.empty((lanes, size)), np.empty((lanes, size))
        self._layers, self._grad_layers = unpack(arch, self.values), unpack(arch, self.grads)
        self.inputs = np.empty((rows, widths[0]))
        self._outs = [np.empty((rows, w)) for w in widths[1:]]
        self._row_vectors, self._sums = np.empty((4, rows)), np.empty(lanes)
        self._offsets, self._picks = np.arange(rows) * arch.output_dim, np.empty(rows, dtype=np.intp)
        # a layer's bias or a column repeated down its rows, and on the way
        # back its ReLU mask. An operand that broadcasts makes numpy allocate
        # an iteration buffer as large as the output (66,640 B traced for a
        # (512, 64) add, which the warm-step allocation tests reject); a tile
        # does not
        self._tile = np.empty(rows * max(widths[1:]))
        # np.sign(act) would write the mask with no bool twin and no copy,
        # but its float64 loop is slower: 33 us against 17 for greater and
        # copyto on 640 x 64 (medians of 15, 2-core Xeon), 4% more
        # paper_sweep wall time to save this twin's 37 KB
        self._bools = np.empty(self._tile.size, dtype=bool)
        self._steps: dict[tuple[int, ...], Step] = {}
        self._previous: dict[tuple[int, ...], Step] = {}
        self._param_views: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}

    def load(self, model: ParamVector, lanes: int | slice = 0) -> TrainPlan:
        """This plan, with model's parameters copied into values[lanes]: a
        lane, or a slice of lanes that each get a copy; a model of another
        architecture is a ShapeError."""
        if model.arch != self.arch:
            raise ShapeError(f"the plan is for layer widths {self.arch.layer_widths}, "
                             f"the model has {model.arch.layer_widths}")
        # broadcast over a slice of lanes, without a temporary
        np.copyto(self.values[lanes], model.values)
        return self

    def step(self, sizes: int | Sequence[int]) -> Step:
        sizes = tuple(sizes) if isinstance(sizes, (tuple, list)) else (sizes,)
        # checked on every call: 2.0 and True would find the steps of 2 and 1
        if not all(map(is_int, sizes)):
            raise ShapeError(f"segment sizes must be integers, got {sizes!r}")
        step = self._steps.get(sizes)
        if step is None:
            step = self._previous.pop(sizes, None) or self._bind(sizes)
            if len(self._steps) >= MAX_BOUND_STEPS:
                self.new_generation()
            self._steps[sizes] = step
        return step

    def new_generation(self) -> None:
        """Start a generation of bound steps, as train_cohort does each round:
        the steps bound or used in this one are held through the next, no other."""
        self._previous, self._steps = self._steps, {}

    def _params(self, a: int, g: int) -> list[tuple[np.ndarray, ...]]:
        """Per layer, the views of segments a..a+g-1's parameters: weight,
        bias (broadcasting down the rows), transposed weight, and the weight
        and bias gradients; for one segment 2-D, for several stacked."""
        views = self._param_views.get((a, g))
        if views is None:
            at = a if g == 1 else slice(a, a + g)
            views = self._param_views[a, g] = [
                (weight[at], bias[at] if g == 1 else bias[at, None, :], np.swapaxes(weight[at], -1, -2),
                 g_weight[at], g_bias[at])
                for (weight, bias), (g_weight, g_bias) in zip(self._layers, self._grad_layers)
            ]
        return views

    def _bind(self, sizes: tuple[int, ...]) -> Step:
        if not 1 <= len(sizes) <= self.lanes or min(sizes) < 1:
            raise ShapeError(f"a step takes 1 to {self.lanes} segments of at least one row, got {sizes}")
        r = sum(sizes)
        if r > self.rows:
            raise ShapeError(f"a step of {r} rows does not fit a plan of {self.rows} rows")
        outs = [out[:r] for out in self._outs]
        tiles = [self._tile[: out.size].reshape(out.shape) for out in outs]
        offsets, picks, add = self._offsets[:r], self._picks[:r], np.add
        # (first segment, segment count, rows each, first row) per group
        groups: list[tuple[int, int, int, int]] = []
        for k, (n, end) in enumerate(zip(sizes, accumulate(sizes))):
            if groups and groups[-1][2] == n:
                a, g, _n, lo = groups[-1]
                groups[-1] = (a, g + 1, n, lo)
            else:
                groups.append((k, 1, n, end - n))

        def rows_of(array, g, n, lo):
            """A group's rows of a workspace array: 2-D, or (g, n, width)."""
            rows = array[lo : lo + g * n]
            return rows if g == 1 else rows.reshape(g, n, -1)

        # per group: its product, the reduce axis of its rows, its parameters,
        # its rows of each layer's input and of the logits, and of each tile
        per_group = [
            (dot_for(n) if g == 1 else np.matmul, 0 if g == 1 else 1, self._params(a, g),
             [rows_of(layer, g, n, lo) for layer in (self.inputs[:r], *outs)],
             [rows_of(tile, g, n, lo) for tile in tiles])
            for a, g, n, lo in groups
        ]
        forward: list[tuple[Callable, tuple]] = []
        for li, (out, tile) in enumerate(zip(outs, tiles)):
            forward += [(dot, (parts[li], params[li][0], parts[li + 1]))
                        for dot, _axis, params, parts, _fills in per_group]
            forward += [(np.copyto, (fills[li], params[li][1])) for *_group, params, _parts, fills in per_group]
            forward.append((np.add, (out, tile, out)))
            if li < len(outs) - 1:
                forward.append((partial(np.maximum, out=out), (out, 0.0)))
        logits, tile = outs[-1], tiles[-1]
        flat = logits.reshape(-1)  # a view: the workspace rows are contiguous
        row_max, norm, picked, terms = self._row_vectors[:, :r]
        sums = self._sums[: len(sizes)]
        # logits become (softmax - onehot) / n; terms[i] is row i's
        # log(sum exp(shifted)) - shifted[label]
        if r >= COLUMN_MAX_ROWS:
            column_max = partial(np.maximum, out=row_max)
            loss = [(np.copyto, (row_max, logits[:, 0]))]
            loss += [(column_max, (row_max, logits[:, c])) for c in range(1, logits.shape[1])]
        else:
            loss = [(np.maximum.reduce, (logits, 1, None, row_max))]
        loss += [
            (np.copyto, (tile, row_max[:, None])), (np.subtract, (logits, tile, logits)),
            # picks are in range; mode="raise" would stage the result in a fresh array
            (flat.take, (picks, None, picked, "clip")), (np.exp, (logits, logits)),
            (np.add.reduce, (logits, 1, None, norm)), (np.log, (norm, terms)),
            (np.subtract, (terms, picked, terms)), (np.copyto, (tile, norm[:, None])),
            (np.divide, (logits, tile, logits)),
            # flat[picks] -= 1.0 through picked; np.subtract.at would allocate
            (flat.take, (picks, None, picked, "clip")), (np.subtract, (picked, 1.0, picked)),
            (flat.put, (picks, picked, "clip")),
        ]
        for (a, g, n, lo), (*_group, parts, _t) in zip(groups, per_group):
            # np.mean's own arithmetic (pairwise sum, then divide)
            loss += [(np.divide, (parts[-1], n, parts[-1])),
                     (np.add.reduce, (terms[lo : lo + g * n].reshape(g, n), 1, None, sums[a : a + g]))]
        # per layer from the last: its weight and bias gradients, from its
        # input and the delta at its output, and above the first layer the
        # delta at its input (layer li - 1's output, overwritten), which
        # that layer's ReLU mask then masks
        backward: list[tuple[Callable, tuple]] = []
        for li in range(len(outs) - 1, -1, -1):
            if li:
                act, mask = outs[li - 1], tiles[li - 1]
                is_active = self._bools[: act.size].reshape(act.shape)
                backward += [(np.greater, (act, 0.0, is_active)), (np.copyto, (mask, is_active))]
            for dot, axis, params, parts, _t in per_group:
                _weight, _bias, weight_t, g_weight, g_bias = params[li]
                backward += [(dot, (np.swapaxes(parts[li], -1, -2), parts[li + 1], g_weight)),
                             (np.add.reduce, (parts[li + 1], axis, None, g_bias))]
                backward += [(dot, (parts[li + 1], weight_t, parts[li]))] if li else []
            backward += [(np.multiply, (act, mask, act))] if li else []

        def step(labels: np.ndarray | None) -> list[float] | np.ndarray:
            for call, args in forward:
                call(*args)
            if labels is None:
                return logits
            add(offsets, labels, picks)
            for call, args in loss:
                call(*args)
            losses = [total / n for total, n in zip(sums.tolist(), sizes)]
            for call, args in backward:
                call(*args)
            return losses

        return step


def central_difference(fn: Callable[[np.ndarray], float], x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    if step <= 0:
        raise ConfigError("finite-difference step must be > 0")
    grad = np.zeros_like(x, dtype=np.float64)
    probe = x.astype(np.float64).copy()
    for i in range(x.size):
        orig = probe[i]
        probe[i] = orig + step
        hi = fn(probe)
        probe[i] = orig - step
        lo = fn(probe)
        probe[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def sgd_step(
    model: ParamVector, gradient: np.ndarray, opt: OptimizerState
) -> tuple[ParamVector, OptimizerState]:
    """One momentum-SGD update; returns the new model and optimizer state."""
    gradient = np.asarray(gradient, dtype=np.float64).ravel()
    if gradient.size != len(model) or opt.momentum_buffer.size != len(model):
        raise ShapeError("gradient and momentum buffer must match the model length")
    buf = opt.momentum * opt.momentum_buffer + gradient + opt.weight_decay * model.values
    new_values = model.values - opt.lr * buf
    return ParamVector(model.arch, new_values), replace(opt, momentum_buffer=buf)


def evaluate_accuracy(model: ParamVector, dataset: LabeledDataset, plan: TrainPlan | None = None) -> float:
    """Fraction of samples whose argmax logit matches the label, from the
    forward-only step of plan (a one-shot plan when None).

    Ties resolve to the lowest class index, so accuracy is deterministic.
    """
    if len(dataset) == 0:
        raise EvaluationError("cannot evaluate accuracy on an empty dataset")
    check_fits(model.arch, dataset, "evaluation set")
    n = len(dataset)
    # a huge but finite model overflows here, and so may the sum of finite
    # logits; report non-finite logits as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _filled((plan or TrainPlan(model.arch, n)).load(model), dataset.features)(None)
        # a finite sum has only finite terms; only an overflowing one needs the exact check
        finite = math.isfinite(np.add.reduce(logits, None)) or bool(np.isfinite(logits).all())
    if not finite:
        raise DivergenceError("the model's logits are not finite; it has diverged")
    return int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels)) / n


def save_model(model: ParamVector, path) -> None:
    """Checkpoint: ascii header line, then parameters as little-endian doubles."""
    header = f"{CHECKPOINT_MAGIC}; arch={','.join(str(w) for w in model.arch.layer_widths)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(model.values.astype("<f8").tobytes())


def load_model(path) -> ParamVector:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise DataError(f"{path}: missing checkpoint header")
    header = blob[:newline].decode("ascii", errors="replace")
    prefix = f"{CHECKPOINT_MAGIC}; arch="
    if not header.startswith(prefix):
        raise DataError(f"{path}: unrecognized checkpoint header {header!r}")
    widths = header[len(prefix) :].split(",")
    try:
        # save_model writes each width as bare decimal digits: no space, sign or underscore
        if not all(plain_number(tok).isdigit() for tok in widths):
            raise ValueError("not a width")
        arch = ModelArch(tuple(map(int, widths)))
    except (ValueError, ConfigError):
        raise DataError(f"{path}: malformed arch in checkpoint header {header!r}") from None
    payload = blob[newline + 1 :]
    expected = 8 * param_count(arch)
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    try:
        return ParamVector(arch, np.frombuffer(payload, dtype="<f8"))
    except StateError:
        raise DataError(f"{path}: checkpoint parameters are not finite") from None
