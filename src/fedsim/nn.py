"""Minimal MLP substrate: forward, cross-entropy, analytic gradients, SGD.

All math runs in float64 and every result is a function of its inputs
alone, so trajectories are reproducible bit for bit. Parameters live in a
single flat vector (per layer: row-major weight matrix, then bias). Local
training runs on a TrainPlan, a workspace allocated once and reused by
every step; loss_and_grad is its one-shot form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import LabeledDataset, checked_arrays
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
# a TrainPlan step: (features, picks) -> mean cross-entropy
Step = Callable[[np.ndarray, np.ndarray], float]


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


def _forward_layers(layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray) -> list[np.ndarray]:
    """[features, hidden activations..., logits] through the unpack() views
    of the parameters; hidden layers use ReLU, applied in place."""
    acts, dot = [features], dot_for(features.shape[0])
    for li, (weight, bias) in enumerate(layers):
        act = dot(acts[-1], weight)
        act += bias
        if li < len(layers) - 1:
            np.maximum(act, 0.0, out=act)
        acts.append(act)
    return acts


def _check_width(arch: ModelArch, features: np.ndarray) -> None:
    if features.shape[1] != arch.input_dim:
        raise ShapeError(
            f"features have {features.shape[1]} columns, architecture expects {arch.input_dim}"
        )


def forward(model: ParamVector, batch: Batch) -> np.ndarray:
    """Logits matrix, shape (batch_size, output_dim)."""
    _check_width(model.arch, batch.features)
    return _forward_layers(unpack(model.arch, model.values), batch.features)[-1]


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
    ce = plan.step(n)(features, np.arange(n) * arch.output_dim + labels)
    return ce, plan.grad


class TrainPlan:
    """Local training's workspace for one architecture and batches of up to
    `rows` rows: allocated once, reused by every step of every client.

    It owns the parameter, gradient, momentum, scratch and prox-difference
    vectors (values, grad, buf, scratch, diff), a finiteness mask (finite),
    the unpack() views of values and grad (layers, grad_layers), and for
    `rows` rows every layer's output (which holds the delta there on the
    way back), a tile (below), and the row max, norm, picked logit and
    loss term.

    step(r) is the kernel for r rows, bound once per r onto prefix views of
    the workspace. step(features, picks) reads the parameters in values,
    overwrites grad with the gradient of the mean cross-entropy and returns
    that loss; picks[i] = i * output_dim + label[i] locates row i's label
    in the flattened logits. Inputs are trusted: the caller has checked the
    feature width and the labels. A step writes only into the workspace:
    ufuncs with a positional out (np.maximum by keyword: it deprecates the
    positional one), ufunc reduces, and the products of dot_for(r). The
    logits become the softmax delta in place, sharing one exp(shifted) with
    the loss. A call overwrites all it reads, so one on non-finite input
    leaves the plan usable.
    """

    def __init__(self, arch: ModelArch, rows: int) -> None:
        if not np.issubdtype(type(rows), np.integer) or rows < 1:
            raise ShapeError(f"a training plan needs an integer row count >= 1, got {rows!r}")
        self.arch, self.rows = arch, int(rows)
        size, widths = param_count(arch), arch.layer_widths
        self.values, self.grad, self.buf, self.scratch, self.diff = np.empty((5, size))
        self.finite = np.empty(size, dtype=bool)
        self.layers, self.grad_layers = unpack(arch, self.values), unpack(arch, self.grad)
        self._outs = [np.empty((rows, w)) for w in widths[1:]]
        self._row_vectors = np.empty((4, rows))
        # a layer's bias or a column repeated down its rows, and on the way
        # back its ReLU mask: an operand that broadcasts makes numpy
        # allocate an iteration buffer as large as the output, a tile does not
        self._tile = np.empty(rows * max(widths[1:]))
        self._steps: dict[int, Step] = {}

    def step(self, r: int) -> Step:
        step = self._steps.get(r)
        if step is None:
            if not 1 <= r <= self.rows:
                raise ShapeError(f"a step of {r} rows does not fit a plan of {self.rows} rows")
            step = self._steps[r] = self._bind(r)
        return step

    def _bind(self, r: int) -> Step:
        layers, grad_layers = self.layers, self.grad_layers
        outs = [out[:r] for out in self._outs]
        tiles = [self._tile[: out.size].reshape(out.shape) for out in outs]
        hidden = list(zip(layers, outs, tiles))[:-1]
        (w_last, b_last), logits, tile = layers[-1], outs[-1], tiles[-1]
        flat = logits.reshape(-1)  # a view: the workspace rows are contiguous
        row_max, norm, picked, terms = self._row_vectors[:, :r]
        max_col, norm_col = row_max[:, None], norm[:, None]
        # layer li's weight gradient, from its input (the output of layer
        # li - 1) and the delta in its output; then the delta at its input,
        # written over that input
        backward = [
            (*grad_layers[li], outs[li - 1].T, outs[li], layers[li][0].T, outs[li - 1], tiles[li - 1])
            for li in range(len(layers) - 1, 0, -1)
        ]
        (g_weight0, g_bias0), delta0 = grad_layers[0], outs[0]
        dot, copyto, add, subtract, divide = dot_for(r), np.copyto, np.add, np.subtract, np.divide
        multiply, maximum, exp, log, sign = np.multiply, np.maximum, np.exp, np.log, np.sign
        add_reduce, max_reduce = np.add.reduce, np.maximum.reduce

        def step(features: np.ndarray, picks: np.ndarray) -> float:
            act = features
            for (weight, bias), out, bias_tile in hidden:
                dot(act, weight, out)
                copyto(bias_tile, bias)
                add(out, bias_tile, out)
                maximum(out, 0.0, out=out)
                act = out
            dot(act, w_last, logits)
            copyto(tile, b_last)
            add(logits, tile, logits)
            # logits become (softmax - onehot) / r; terms[i] is row i's
            # log(sum exp(shifted)) - shifted[label]
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
            divide(logits, r, logits)
            for g_weight, g_bias, act_t, delta, weight_t, act, mask in backward:
                dot(act_t, delta, g_weight)
                add_reduce(delta, 0, None, g_bias)
                # act = max(pre, 0), so sign(act) is 1.0 where the
                # pre-activation is > 0 and +0.0 elsewhere: the mask
                # (act > 0) as floats, without the cast buffer that
                # multiplying by a bool mask allocates
                sign(act, mask)
                dot(delta, weight_t, act)
                multiply(act, mask, act)
            dot(features.T, delta0, g_weight0)
            add_reduce(delta0, 0, None, g_bias0)
            # np.mean's own arithmetic (pairwise sum, then divide)
            return float(add_reduce(terms)) / r

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


def evaluate_accuracy(model: ParamVector, dataset: LabeledDataset) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Ties resolve to the lowest class index, so accuracy is deterministic.
    """
    if len(dataset) == 0:
        raise EvaluationError("cannot evaluate accuracy on an empty dataset")
    check_fits(model.arch, dataset, "evaluation set")
    # a huge but finite model overflows here; report that as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _forward_layers(unpack(model.arch, model.values), dataset.features)[-1]
    if not np.isfinite(logits).all():
        raise DivergenceError("the model's logits are not finite; it has diverged")
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == dataset.labels))


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
    try:
        arch = ModelArch(tuple(int(tok) for tok in header[len(prefix) :].split(",")))
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
