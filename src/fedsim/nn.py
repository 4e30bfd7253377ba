"""Minimal MLP substrate: forward, cross-entropy, analytic gradients, SGD.

All math runs in float64 and every operation is a pure function of its
inputs, so trajectories are reproducible bit for bit. Parameters live in a
single flat vector (per layer: row-major weight matrix, then bias).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import LabeledDataset
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
    """One minibatch of features and integer labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, order="C")
        labs = np.array(self.labels, dtype=np.int64, order="C")
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ShapeError("batch features must be a nonempty 2-d matrix")
        if labs.shape != (feats.shape[0],):
            raise ShapeError("batch labels must match the number of feature rows")
        if not np.all(np.isfinite(feats)):
            raise DataError("batch features must be finite")
        if labs.min() < 0:
            raise DataError("batch labels must be nonnegative")
        feats.setflags(write=False)
        labs.setflags(write=False)
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


def _forward_layers(layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray) -> list[np.ndarray]:
    """[features, hidden activations..., logits] through the unpack() views
    of the parameters; hidden layers use ReLU, applied in place."""
    acts = [features]
    for li, (weight, bias) in enumerate(layers):
        act = acts[-1] @ weight
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
    [0, arch.output_dim).
    """
    grad = np.empty(values.size)
    picks = np.arange(features.shape[0]) * arch.output_dim + labels
    ce = loss_and_grad_into(unpack(arch, values), unpack(arch, grad), features, picks)
    return ce, grad


def loss_and_grad_into(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    features: np.ndarray,
    picks: np.ndarray,
) -> float:
    """The kernel of loss_and_grad: returns the mean cross-entropy and writes
    every entry of the gradient into grad_layers, the unpack() views of a
    caller-owned buffer; layers are the unpack() views of the parameters.
    picks[i] = i * output_dim + label[i] is row i's label entry in the
    flattened (rows, output_dim) logits.

    Each layer's output is one array: the bias, the ReLU, the softmax and
    the ReLU mask of the backward pass are applied to it in place, so a
    step allocates no second temporary of that size. The loss and the
    softmax delta share one exp(shifted).
    """
    *acts, delta = _forward_layers(layers, features)
    n = features.shape[0]
    # np.mean's own arithmetic (pairwise sum, then divide) without its call overhead
    ce = float(_softmax_delta(delta, picks, n).sum()) / n

    for li in range(len(layers) - 1, -1, -1):
        g_weight, g_bias = grad_layers[li]
        np.matmul(acts[li].T, delta, out=g_weight)
        delta.sum(axis=0, out=g_bias)
        if li > 0:
            # acts[li] = max(pre, 0) is > 0 exactly where the pre-activation is
            delta = delta @ layers[li][0].T
            delta *= acts[li] > 0.0
    return ce


def _softmax_delta(logits: np.ndarray, picks: np.ndarray, n: int) -> np.ndarray:
    """Turn logits, a fresh C-ordered array of n rows, into the cross-entropy
    delta (softmax - onehot) / n in place, and return each row's loss term
    log(sum exp(shifted)) - shifted[label], where shifted is logits minus
    its row maximum. picks are the flat label indices of loss_and_grad_into.
    The loss and the delta share one exp(shifted)."""
    logits -= logits.max(axis=1, keepdims=True)
    flat = logits.ravel()  # a view
    picked = flat[picks]
    np.exp(logits, out=logits)
    norm = logits.sum(axis=1, keepdims=True)
    terms = np.log(norm.ravel()) - picked
    logits /= norm
    flat[picks] -= 1.0
    logits /= n
    return terms


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
