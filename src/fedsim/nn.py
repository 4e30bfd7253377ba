"""Minimal MLP substrate: forward, cross-entropy, analytic gradients, SGD.

All math runs in float64 and every result is a function of its inputs
alone, so trajectories are reproducible bit for bit. Parameters live in a
single flat vector (per layer: row-major weight matrix, then bias).
TrainPlan is the one forward/backward kernel: a run's one round plan runs
each round's local training, a lane per client, and, forward-only, its
scoring, and the full-batch pass runs it a segment per dataset;
loss_and_grad and forward are its one-shot forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .data import LabeledDataset, checked_arrays, plain_number
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
# a TrainPlan step: (a feature matrix per segment, picks) -> their losses,
# or with picks None, forward only -> the logits
Step = Callable[[Sequence[np.ndarray], np.ndarray | None], list[float] | np.ndarray]
# from this many rows on, a step takes the row max a column at a time. On 8
# logits (2-core Xeon, medians of 15) np.maximum.reduce along the rows took
# 4.2 us at 24 rows against 6.5 for the column loop, 7.5 against 6.8 at 64 and
# 12.9 against 6.9 at 128; whole steps of 24-64 rows timed the same either way.
# The two differ only in the sign of a zero maximum, which changes no bit
COLUMN_MAX_ROWS = 32
# a plan keeps at most this many bound steps and forgets them all when one
# more is bound: a run that selects other clients each round binds new
# lock-step shapes every round
MAX_BOUND_STEPS = 32


@dataclass(frozen=True)
class ModelArch:
    """Fully connected architecture; hidden layers use ReLU, output is raw logits."""

    layer_widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(self.layer_widths)
        if len(widths) < 2:
            raise ConfigError("architecture needs at least input and output widths")
        # a bool or a float would pass int(); np.integer excludes both
        if any(not np.issubdtype(type(w), np.integer) or w < 1 for w in widths):
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
    """Flat vector -> [(W, b), ...] views, W shaped (in, out)."""
    return [
        (values[w_sl].reshape(w_in, w_out), values[b_sl])
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
    as 0 + a*b; the two differ where a*b is -0."""
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
    n = batch.features.shape[0]
    return TrainPlan(model.arch, n).load(model).step(n)((batch.features,), None)


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
    n = features.shape[0]
    plan = TrainPlan(arch, n)
    np.copyto(plan.values, values)
    (ce,) = plan.step(n)((features,), np.arange(n) * arch.output_dim + labels)
    return ce, plan.grad


def _is_int(n) -> bool:
    """Whether n is an integer: a bool or an integral float is not."""
    return type(n) is int or isinstance(n, np.integer)


class TrainPlan:
    """The one forward/backward kernel, for one architecture and steps of up
    to `rows` rows in up to `segments` segments, on a workspace allocated
    once: engine.train_cohort runs a round's local training on it a segment
    per client, scoring a forward-only step per set, and
    diagnostics.FullBatchPass a segment per dataset of a block. Segment k
    reads lane k's parameters when the plan has a lane per segment
    (lanes == segments), else every segment reads lane 0's. It owns, a row
    per lane, the parameter, momentum and prox-difference vectors (values,
    buf, diff) and a finiteness mask (finite); a gradient per segment
    (grads; grad is grads[0]); a scratch vector (scratch); and for `rows`
    rows the inputs of the stacked products (below), every layer's output
    (which holds the delta there on the way back), a tile (below), and the
    row max, norm, picked logit and loss term.

    step(sizes) is the kernel for consecutive segments of sizes[k] rows (an
    int is one segment), bound once per sizes onto prefix views of the
    workspace; a plan keeps at most MAX_BOUND_STEPS of them. step(features,
    picks) takes a feature matrix per segment, reads the parameters in
    values, overwrites grads[k] with the gradient of segment k's mean
    cross-entropy and returns those losses; picks[i] = i * output_dim +
    label[i] locates row i of the step in the flattened logits. With picks
    None the step runs only the forward part and returns the logits, a view
    of the workspace that the next call overwrites. Inputs are trusted: the
    caller has checked the feature width and the labels.

    The matrix products, the bias gradient reduce, the 1/n scale and the
    loss run per group, all else once over all rows. A group is one
    segment, or on a plan with a lane per segment a run of consecutive
    segments of equal size, whose products are one np.matmul over their
    lanes stacked: that makes, lane by lane, the BLAS call of a 2-D product
    on the lane's rows alone. BLAS may give a row other bits inside a
    taller product (numpy sends one row to gemv), and no other value of a
    row depends on another row, so each segment's loss and gradient are
    bitwise a step's on its rows alone.

    A step writes only into the workspace: ufuncs with a positional out
    (np.maximum and np.minimum by keyword: they deprecate the positional
    one), reduces, and the products of dot_for(segment rows) or np.matmul.
    The logits become the softmax delta in place, sharing one exp(shifted)
    with the loss. On the way back the ReLU mask is ceil(min(act, 1)),
    which is bitwise np.sign(act) because act = max(pre, 0) is never -0.0.
    A call overwrites all it reads, so one on non-finite input leaves it
    usable.
    """

    def __init__(self, arch: ModelArch, rows: int, segments: int = 1, lanes: int = 1) -> None:
        for what, count in (("row", rows), ("segment", segments), ("lane", lanes)):
            if not _is_int(count) or count < 1:
                raise ShapeError(f"a training plan needs an integer {what} count >= 1, got {count!r}")
        if lanes not in (1, segments):
            raise ShapeError(f"a plan has one lane or one per segment, got {lanes} lanes for {segments} segments")
        self.arch, self.rows, self.segments, self.lanes = arch, int(rows), int(segments), int(lanes)
        size, widths = param_count(arch), arch.layer_widths
        self.values, self.buf, self.diff = np.empty((3, lanes, size))
        self.grads, self.scratch = np.empty((segments, size)), np.empty(size)
        self.grad, self.finite = self.grads[0], np.empty((lanes, size), dtype=bool)
        self._layers, self._grad_layers = _stacked(arch, self.values), _stacked(arch, self.grads)
        self._inputs = np.empty((rows, widths[0]))
        self._outs = [np.empty((rows, w)) for w in widths[1:]]
        self._row_vectors = np.empty((4, rows))
        self._sums = np.empty(segments)
        # a layer's bias or a column repeated down its rows, and on the way
        # back its ReLU mask: an operand that broadcasts makes numpy
        # allocate an iteration buffer as large as the output, a tile does not
        self._tile = np.empty(rows * max(widths[1:]))
        self._steps: dict[tuple[int, ...], Step] = {}
        self._param_views: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}

    def load(self, model: ParamVector, lane: int = 0) -> TrainPlan:
        """This plan, with model's parameters copied into lane `lane` of
        values; a model of another architecture is a ShapeError."""
        if model.arch != self.arch:
            raise ShapeError(f"the plan is for layer widths {self.arch.layer_widths}, "
                             f"the model has {model.arch.layer_widths}")
        np.copyto(self.values[lane], model.values)
        return self

    def step(self, sizes: int | Sequence[int]) -> Step:
        sizes = tuple(sizes) if isinstance(sizes, (tuple, list)) else (sizes,)
        # checked on every call: 2.0 and True would find the steps of 2 and 1
        if not all(map(_is_int, sizes)):
            raise ShapeError(f"segment sizes must be integers, got {sizes!r}")
        step = self._steps.get(sizes)
        if step is None:
            if not 1 <= len(sizes) <= self.segments or min(sizes) < 1:
                raise ShapeError(f"a step takes 1 to {self.segments} segments of at least one row, got {sizes}")
            if sum(sizes) > self.rows:
                raise ShapeError(f"a step of {sum(sizes)} rows does not fit a plan of {self.rows} rows")
            if len(self._steps) >= MAX_BOUND_STEPS:
                self._steps.clear()
            step = self._steps[sizes] = self._bind(sizes)
        return step

    def _params(self, a: int, g: int) -> list[tuple[np.ndarray, ...]]:
        """Per layer, the views of segments a..a+g-1's parameters: weight,
        bias (broadcasting down the rows), transposed weight, and the weight
        and bias gradients; for one segment 2-D, for several stacked."""
        views = self._param_views.get((a, g))
        if views is None:
            lane = a if self.lanes > 1 else 0
            at, grad_at = (lane, a) if g == 1 else (slice(lane, lane + g), slice(a, a + g))
            views = self._param_views[a, g] = [
                (weight[at], bias[at] if g == 1 else bias[at, None, :], np.swapaxes(weight[at], -1, -2),
                 g_weight[grad_at], g_bias[grad_at])
                for (weight, bias), (g_weight, g_bias) in zip(self._layers, self._grad_layers)
            ]
        return views

    def _bind(self, sizes: tuple[int, ...]) -> Step:
        r, lanes = sum(sizes), self.lanes
        outs = [out[:r] for out in self._outs]
        tiles = [self._tile[: out.size].reshape(out.shape) for out in outs]
        # (first segment, segment count, rows each, first row) per group
        groups: list[tuple[int, int, int, int]] = []
        for k, (n, end) in enumerate(zip(sizes, accumulate(sizes))):
            if lanes > 1 and groups and groups[-1][2] == n:
                a, g, _n, lo = groups[-1]
                groups[-1] = (a, g + 1, n, lo)
            else:
                groups.append((k, 1, n, end - n))

        def rows_of(array, g, n, lo):
            """A group's rows of a workspace array: 2-D, or (g, n, width)."""
            rows = array[lo : lo + g * n]
            return rows if g == 1 else rows.reshape(g, n, -1)

        # per group: its first segment and product, the reduce axis of its
        # rows, its parameters, its inputs (None: a group of one reads its
        # features[k], and several are copied into inputs) and each
        # layer's rows. The step's tuples hold the index k of features[k]:
        # a zip over the call's features would cost one per call
        per_group = [
            (a, dot_for(n) if g == 1 else np.matmul, 0 if g == 1 else 1, self._params(a, g),
             None if g == 1 else rows_of(self._inputs, g, n, lo), [rows_of(out, g, n, lo) for out in outs])
            for a, g, n, lo in groups
        ]
        # per layer, the (tile rows, bias) pairs that put its biases down its rows
        fills = [
            [(tile, bias)] if lanes == 1 else [
                (rows_of(tile, g, n, lo), params[li][1])
                for (_a, g, n, lo), (_k, _dot, _axis, params, _inputs, _parts) in zip(groups, per_group)
            ]
            for li, (tile, (_weight, bias, *_rest)) in enumerate(zip(tiles, self._params(0, 1)))
        ]
        copies = [(a + j, rows) for a, _dot, _axis, _params, inputs, _parts in per_group
                  if inputs is not None for j, rows in enumerate(inputs)]
        first_products = [(a, inputs, dot, params[0][0], parts[0])
                          for a, dot, _axis, params, inputs, parts in per_group]
        # a hidden layer's bias and ReLU, then the next layer's products
        hidden = [
            (outs[li], tiles[li], fills[li],
             [(dot, parts[li], params[li + 1][0], parts[li + 1])
              for _a, dot, _axis, params, _inputs, parts in per_group])
            for li in range(len(outs) - 1)
        ]
        logits, tile, last_fills = outs[-1], tiles[-1], fills[-1]
        flat = logits.reshape(-1)  # a view: the workspace rows are contiguous
        row_max, norm, picked, terms = self._row_vectors[:, :r]
        max_col, norm_col = row_max[:, None], norm[:, None]
        by_column = r >= COLUMN_MAX_ROWS
        first_column, *columns = [logits[:, c] for c in range(logits.shape[1] if by_column else 1)]
        sums = self._sums[: len(sizes)]
        scale = [(parts[-1], n, terms[lo : lo + g * n].reshape(g, n), sums[a : a + g])
                 for (a, g, n, lo), (*_group, parts) in zip(groups, per_group)]
        # layer li's ReLU mask and delta at its input (the output of layer
        # li - 1, overwritten), and per group its weight gradient, from
        # that input and the delta at its output
        backward = [
            (outs[li - 1], tiles[li - 1],
             [(dot, np.swapaxes(parts[li - 1], -1, -2), parts[li], *params[li][3:], axis, params[li][2],
               parts[li - 1])
              for _a, dot, axis, params, _inputs, parts in per_group])
            for li in range(len(outs) - 1, 0, -1)
        ]
        first = [
            (a, None if inputs is None else np.swapaxes(inputs, -1, -2), dot, parts[0], *params[0][3:], axis)
            for a, dot, axis, params, inputs, parts in per_group
        ]
        copyto, add, subtract, divide, multiply = np.copyto, np.add, np.subtract, np.divide, np.multiply
        maximum, minimum, exp, log, ceil = np.maximum, np.minimum, np.exp, np.log, np.ceil
        add_reduce, max_reduce = np.add.reduce, np.maximum.reduce

        def step(features: Sequence[np.ndarray], picks: np.ndarray) -> list[float]:
            for k, rows in copies:
                copyto(rows, features[k])
            for k, inputs, dot, weight, part in first_products:
                dot(features[k] if inputs is None else inputs, weight, part)
            for out, out_tile, bias_fills, products in hidden:
                for fill, bias in bias_fills:
                    copyto(fill, bias)
                add(out, out_tile, out)
                maximum(out, 0.0, out=out)
                for dot, act, weight, part in products:
                    dot(act, weight, part)
            for fill, bias in last_fills:
                copyto(fill, bias)
            add(logits, tile, logits)
            if picks is None:
                return logits
            # logits become (softmax - onehot) / n; terms[i] is row i's
            # log(sum exp(shifted)) - shifted[label]
            if by_column:
                copyto(row_max, first_column)
                for column in columns:
                    maximum(row_max, column, out=row_max)
            else:
                max_reduce(logits, 1, None, row_max)
            copyto(tile, max_col)
            subtract(logits, tile, logits)
            # picks are in range; mode="raise" would stage the result in a fresh array
            flat.take(picks, None, picked, "clip")
            exp(logits, logits)
            add_reduce(logits, 1, None, norm)
            log(norm, terms)
            subtract(terms, picked, terms)
            copyto(tile, norm_col)
            divide(logits, tile, logits)
            # flat[picks] -= 1.0 through picked; np.subtract.at would allocate
            flat.take(picks, None, picked, "clip")
            subtract(picked, 1.0, picked)
            flat.put(picks, picked, "clip")
            for part, n, part_terms, part_sums in scale:
                divide(part, n, part)
                # np.mean's own arithmetic (pairwise sum, then divide)
                add_reduce(part_terms, 1, None, part_sums)
            losses = [total / n for total, n in zip(sums.tolist(), sizes)]
            for act, mask, grads in backward:
                # act = max(pre, 0) is never -0.0, so ceil(min(act, 1)) is
                # 1.0 where the pre-activation is > 0 and +0.0 elsewhere:
                # the mask (act > 0) as floats, bitwise np.sign(act), in two
                # SIMD loops (sign has none) and without the cast buffer
                # that multiplying by a bool mask allocates
                minimum(act, 1.0, out=mask)
                ceil(mask, mask)
                for dot, act_t, delta, g_weight, g_bias, axis, weight_t, part in grads:
                    dot(act_t, delta, g_weight)
                    add_reduce(delta, axis, None, g_bias)
                    dot(delta, weight_t, part)
                multiply(act, mask, act)
            for k, inputs_t, dot, delta, g_weight, g_bias, axis in first:
                dot(features[k].T if inputs_t is None else inputs_t, delta, g_weight)
                add_reduce(delta, axis, None, g_bias)
            return losses

        return step


def _stacked(arch: ModelArch, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """unpack() of a row per lane: [(W, b), ...] views, W shaped (lanes, in, out)."""
    return [
        (rows[:, w_sl].reshape(-1, w_in, w_out), rows[:, b_sl])
        for w_sl, b_sl, w_in, w_out in _layer_slices(arch)
    ]


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
        logits = (plan or TrainPlan(model.arch, n)).load(model).step(n)((dataset.features,), None)
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
