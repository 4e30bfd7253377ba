"""Convergence diagnostics: dissimilarity ratios, descent monitoring, speedup.

Two dissimilarity measures are exposed side by side without asserting their
equivalence: the accuracy ratio P/p_k (global over local public-set accuracy)
and the gradient ratio sqrt(E_k ||grad_k||^2) / ||grad||. The descent monitor
tracks the per-round decline of the global objective relative to its squared
gradient norm, which is an in-expectation guarantee: individual rounds may
violate it and are reported, never failed.

The global objective and the gradient ratio both come from FullBatchPass,
the one loop that visits every client's full dataset at a model. Built once
over fixed datasets, it stacks consecutive clients' rows into blocks of
about BLOCK_ROWS rows that share one forward pass and softmax, and each call
reads every client's loss and gradient off its own rows of one reused
workspace. The runner builds one per run; full_batch_pass is the one-shot
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .data import LabeledDataset, read_csv_rows
from .errors import ConfigError, DataError, DiagnosticsError, DivergenceError, ShapeError
from .nn import ModelArch, ParamVector, check_fits, dot_for, param_count, unpack

# perfbench/spans.py traces these names in this module's namespace
from .nn import Batch, backward, cross_entropy, forward  # noqa: F401

GRAD_NORM_TOL = 1e-12
# FullBatchPass stacks consecutive datasets until a block holds at least
# this many rows. On many_clients_diag (100 clients of 13-337 rows, 16-64-8
# MLP, one BLAS thread, 2-core Xeon) the median pass took 4.4-6.8 ms at 512
# rows, 6.1-7.0 at 256, 4.5-6.9 at 1024 and 5.3-7.1 as one block of all
# 7,424 rows (6 repeats each), against 6.2-10.3 ms one client at a time. One
# block would need 3.8 MB of workspace per hidden layer, 512 rows 0.26 MB.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class DissimilarityReport:
    client_ratios: dict[int, float]
    max_ratio: float
    grad_ratio: float | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class DescentRecord:
    round: int
    loss_before: float
    loss_after: float
    grad_sqnorm: float
    lambda_hat: float


@dataclass(frozen=True)
class TheoremConstants:
    """User-supplied smoothness/curvature constants for the descent bound.

    mu_bar stands for mu minus the largest negative-curvature magnitude and
    must be positive; the constants are never estimated from data.
    """

    L: float
    mu: float
    mu_bar: float
    B: float
    K: float

    def __post_init__(self) -> None:
        if self.mu <= 0 or self.K <= 0:
            raise ConfigError("mu and K must be > 0")
        if self.mu_bar <= 0:
            raise ConfigError("mu_bar must be > 0 (curvature margin assumption)")
        if self.L < 0 or self.B < 0:
            raise ConfigError("L and B must be >= 0")


def dissimilarity_B(
    global_acc: float, client_accs: Mapping[int, float], grad_ratio: float | None
) -> DissimilarityReport:
    """Accuracy-ratio dissimilarity P/p_k per client id, beside the gradient
    ratio from full_batch_pass. p_k = 0 yields an infinity sentinel and a
    flag naming the client rather than an error; a None gradient ratio
    (undefined) is flagged after those."""
    if not 0.0 <= global_acc <= 1.0:
        raise DataError("global accuracy must lie in [0, 1]")
    ratios: dict[int, float] = {}
    flags: list[str] = []
    for cid, p_k in client_accs.items():
        if not 0.0 <= p_k <= 1.0:
            raise DataError(f"client accuracy {p_k} out of [0, 1]")
        if p_k == 0.0:
            ratios[cid] = math.inf
            flags.append(f"client_{cid}_zero_accuracy")
        else:
            ratios[cid] = global_acc / p_k
    if grad_ratio is None:
        flags.append("grad_ratio_undefined")
    return DissimilarityReport(
        client_ratios=ratios,
        max_ratio=max(ratios.values()) if ratios else math.nan,
        grad_ratio=grad_ratio,
        flags=tuple(flags),
    )


class FullBatchPass:
    """full_batch_pass over fixed datasets, split into a plan and a call.

    The constructor does all that depends only on the datasets: it checks
    them, stacks consecutive datasets into blocks of at least BLOCK_ROWS
    rows and binds every dataset's views into one workspace sized for the
    tallest block. A call (plan(model) -> (f, grad f, ratio)) then writes
    only into that workspace and allocates no block-sized array.

    Per block, the matrix products run per dataset, everything else once
    for all rows: BLAS may give a row other bits inside a taller product
    (its kernels tile the rows, and numpy sends a single row to gemv). No
    value of a row depends on another row, so each dataset's loss and
    gradient, read off its own rows, are bitwise its own loss_and_grad
    call. A call that raises DivergenceError leaves the plan usable.
    """

    def __init__(self, arch: ModelArch, datasets: Sequence[LabeledDataset]) -> None:
        if len(datasets) == 0:
            raise DiagnosticsError("the full-batch pass needs at least one dataset")
        for k, dataset in enumerate(datasets):
            check_fits(arch, dataset, f"dataset {k}")
        self.arch, self.datasets = arch, tuple(datasets)
        widths, total = arch.layer_widths, float(sum(map(len, datasets)))
        blocks = list(_blocks(datasets))
        tallest = max(sum(map(len, block)) for block in blocks)
        # every layer's output; the delta at every hidden layer's output (the
        # output layer's delta overwrites its logits); the ReLU masks
        outs = [np.empty((tallest, w)) for w in widths[1:]]
        deltas = [np.empty((tallest, w)) for w in widths[1:-1]] + outs[-1:]
        masks = [np.empty((tallest, w), dtype=bool) for w in widths[1:-1]]
        row_max, norm, picked, terms = np.empty((4, tallest))
        self._g_k, self._scaled = np.empty((2, param_count(arch)))
        grad_layers = unpack(arch, self._g_k)
        self._plan = []
        for block in blocks:
            bounds = list(accumulate(map(len, block), initial=0))
            n, spans = bounds[-1], [slice(a, b) for a, b in zip(bounds, bounds[1:])]
            logits, sizes = outs[-1][:n], np.diff(bounds)
            # layer li's input and output, and the delta at its output, per dataset
            acts = [[d.features for d in block]] + [[out[rows] for rows in spans] for out in outs]
            dels = [[delta[rows] for rows in spans] for delta in deltas]
            dots = [dot_for(len(dataset)) for dataset in block]
            forward_steps = [(out[:n], list(zip(dots, a, b))) for out, a, b in zip(outs, acts, acts[1:])]
            backward_steps = [
                (deltas[li - 1][:n], masks[li - 1][:n], outs[li - 1][:n], list(zip(dots, dels[li], dels[li - 1])))
                for li in range(len(deltas) - 1, 0, -1)
            ]
            # logits.reshape(-1) is a view: the workspace rows are contiguous
            softmax = (logits, logits.reshape(-1), [logits[:, c : c + 1] for c in range(widths[-1])],
                       row_max[:n, None], norm[:n, None], picked[:n], terms[:n],
                       np.arange(n) * widths[-1] + np.concatenate([d.labels for d in block]),
                       np.repeat(sizes.astype(np.float64), sizes)[:, None])
            members = [
                ([(dots[k], g_w, g_b, a[k].T, d[k]) for (g_w, g_b), a, d in zip(grad_layers, acts, dels)],
                 terms[rows], len(dataset), len(dataset) / total)
                for k, (dataset, rows) in enumerate(zip(block, spans))
            ]
            self._plan.append((forward_steps, softmax, backward_steps, members))

    def __call__(self, model: ParamVector) -> tuple[float, np.ndarray, float | None]:
        if model.arch != self.arch:
            raise ShapeError(f"model has layer widths {model.arch.layer_widths}, "
                             f"the pass was planned for {self.arch.layer_widths}")
        layers = unpack(self.arch, model.values)
        g_k, scaled = self._g_k, self._scaled
        loss, grad, mean_sq = 0.0, np.zeros(len(model)), 0.0
        # a huge but finite model overflows here; report that as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            for forward_steps, softmax, backward_steps, members in self._plan:
                for li, ((weight, bias), (out, pairs)) in enumerate(zip(layers, forward_steps)):
                    for dot, act, act_out in pairs:
                        dot(act, weight, act_out)
                    out += bias
                    if li < len(layers) - 1:
                        np.maximum(out, 0.0, out=out)
                # the softmax steps of nn.TrainPlan, into the workspace. One
                # maximum per column is cheaper than max(axis=1) on tall
                # arrays; only the sign of a zero maximum can differ, which
                # changes no bit of the delta or the terms
                logits, flat, columns, row_max, norm, picked, terms, picks, divisors = softmax
                np.copyto(row_max, columns[0])
                for column in columns[1:]:
                    np.maximum(row_max, column, out=row_max)
                logits -= row_max
                # picks are in range; mode="raise" would stage the result in a fresh array
                flat.take(picks, out=picked, mode="clip")
                np.exp(logits, out=logits)
                logits.sum(axis=1, keepdims=True, out=norm)
                np.log(norm.ravel(), out=terms)
                terms -= picked
                logits /= norm
                np.subtract.at(flat, picks, 1.0)
                logits /= divisors
                for (weight, _bias), (delta, mask, act, pairs) in zip(layers[:0:-1], backward_steps):
                    weight_t = weight.T
                    for dot, delta_k, prev_k in pairs:
                        dot(delta_k, weight_t, prev_k)
                    # act = max(pre, 0) is > 0 exactly where the pre-activation is
                    np.greater(act, 0.0, out=mask)
                    delta *= mask
                for grads, terms_k, n, share in members:
                    for dot, g_weight, g_bias, act_t, delta in grads:
                        dot(act_t, delta, g_weight)
                        delta.sum(axis=0, out=g_bias)
                    loss += share * (float(terms_k.sum()) / n)
                    grad += np.multiply(g_k, share, out=scaled)
                    mean_sq += share * float(g_k @ g_k)
        if not (math.isfinite(loss) and math.isfinite(mean_sq) and np.isfinite(grad).all()):
            raise DivergenceError("client losses or gradients are not finite at this model: diverged")
        denom = float(np.linalg.norm(grad))
        return loss, grad, (math.sqrt(mean_sq) / denom if denom > GRAD_NORM_TOL else None)


def full_batch_pass(
    model: ParamVector, datasets: Sequence[LabeledDataset]
) -> tuple[float, np.ndarray, float | None]:
    """(f, grad f, sqrt(E_k ||grad_k||^2) / ||grad f||) at model, where f is
    the mean of the clients' full-batch losses, client k weighted by
    len(datasets[k]) / (total samples), reduced in the order given so
    results are reproducible. The ratio is None (undefined) when ||grad f||
    is below GRAD_NORM_TOL; by Jensen's inequality it is otherwise >= 1.
    The one-shot form of FullBatchPass, which the runner builds once per
    run."""
    return FullBatchPass(model.arch, datasets)(model)


def _blocks(datasets: Sequence[LabeledDataset]):
    """Runs of consecutive datasets, each closed as soon as it holds at least
    BLOCK_ROWS rows (the last run may hold fewer)."""
    block: list[LabeledDataset] = []
    rows = 0
    for dataset in datasets:
        block.append(dataset)
        rows += len(dataset)
        if rows >= BLOCK_ROWS:
            yield block
            block, rows = [], 0
    if block:
        yield block


def global_objective(
    model: ParamVector, datasets: Sequence[LabeledDataset]
) -> tuple[float, np.ndarray]:
    """Size-weighted mean of per-client full-batch loss and gradient."""
    return full_batch_pass(model, datasets)[:2]


def gradient_dissimilarity(model: ParamVector, datasets: Sequence[LabeledDataset]) -> float | None:
    """sqrt(E_k ||grad_k||^2) / ||grad|| with size-weighted expectation."""
    return full_batch_pass(model, datasets)[2]


def descent_check(
    losses: Sequence[float], grad_sqnorms: Sequence[float], final_loss: float
) -> list[DescentRecord]:
    """Per-round descent ratios lambda_hat = (f_t - f_{t+1}) / ||grad f_t||^2.

    losses[t] and grad_sqnorms[t] are the global objective and its squared
    gradient norm at the model before round t; f_{t+1} is losses[t+1], and
    final_loss (the objective at the model after the last round) for the
    last round.
    """
    if len(losses) != len(grad_sqnorms):
        raise DiagnosticsError("descent needs a global loss and a squared gradient norm per round")
    losses_after = list(losses[1:]) + [final_loss]
    return [
        DescentRecord(
            round=t,
            loss_before=loss,
            loss_after=loss_after,
            grad_sqnorm=sqnorm,
            lambda_hat=math.nan if sqnorm <= GRAD_NORM_TOL**2 else (loss - loss_after) / sqnorm,
        )
        for t, (loss, sqnorm, loss_after) in enumerate(zip(losses, grad_sqnorms, losses_after))
    ]


def descent_summary(records: Sequence[DescentRecord]) -> tuple[float, float]:
    """(mean lambda_hat, fraction of rounds with lambda_hat > 0), ignoring
    rounds where the ratio was undefined."""
    values = [r.lambda_hat for r in records if not math.isnan(r.lambda_hat)]
    if not values:
        return math.nan, math.nan
    mean = float(np.mean(values))
    positive = sum(1 for v in values if v > 0) / len(values)
    return mean, positive


def theorem_constant(c: TheoremConstants) -> float:
    """Descent coefficient of the convergence bound:

    1/mu - L*B/(mu_bar*mu) - L*B^2/(2*mu_bar^2) - 2*L*B^2/(K*mu_bar^2)
        + (1 + 2*L*B/mu_bar) * sqrt(2)*B/(mu_bar*sqrt(K))

    The bound applies only while this value is positive.
    """
    return (
        1.0 / c.mu
        - c.L * c.B / (c.mu_bar * c.mu)
        - c.L * c.B**2 / (2.0 * c.mu_bar**2)
        - 2.0 * c.L * c.B**2 / (c.K * c.mu_bar**2)
        + (1.0 + 2.0 * c.L * c.B / c.mu_bar) * (math.sqrt(2.0) * c.B) / (c.mu_bar * math.sqrt(c.K))
    )


def read_history_csv(path) -> list[dict[str, str]]:
    """Rows of a per-round metrics CSV as string dicts, header-validated."""
    table = read_csv_rows(path, "history")
    if not table:
        raise DataError(f"{path}: empty history file")
    header = table[0]
    for lineno, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}")
    return [dict(zip(header, row)) for row in table[1:]]


def rounds_to_target(rows, target: float, metric: str = "global_acc_test") -> int | None:
    """Number of rounds (1-based) until the metric first reaches target, in
    rows from read_history_csv; None when the target is never reached."""
    for i, row in enumerate(rows):
        if metric not in row:
            raise DataError(f"history line {i + 2} lacks column {metric!r}")
        cell = row[metric]
        try:
            value = float(cell) if cell != "" else math.nan
        except ValueError:
            raise DataError(f"history line {i + 2}: bad {metric} value {cell!r}") from None
        if not math.isnan(value) and value >= target:
            return i + 1
    return None


def speedup(baseline_rounds: int | None, candidate_rounds: int | None) -> float | None:
    """baseline_rounds / candidate_rounds; None when either side never
    reached the target (rendered as "<1x" by the comparison table)."""
    if baseline_rounds is None or candidate_rounds is None:
        return None
    if candidate_rounds <= 0 or baseline_rounds <= 0:
        raise DataError("round counts must be positive")
    return baseline_rounds / candidate_rounds
