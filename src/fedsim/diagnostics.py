"""Convergence diagnostics: dissimilarity ratios, descent monitoring, speedup.

Two dissimilarity measures are exposed side by side without asserting their
equivalence: the accuracy ratio P/p_k (global over local public-set accuracy)
and the gradient ratio sqrt(E_k ||grad_k||^2) / ||grad||. The descent monitor
tracks the per-round decline of the global objective relative to its squared
gradient norm, which is an in-expectation guarantee: individual rounds may
violate it and are reported, never failed.

The global objective and the gradient ratio both come from FullBatchPass,
the one loop that visits every client's full dataset at a model. Built once
over fixed datasets on a plan (nn.TrainPlan) that its caller sizes, it packs
consecutive clients into blocks that fit that plan, each one step of the
training kernel with a segment per client, and each call copies a block's
rows into the kernel's inputs, runs its step and sums the clients' losses
and gradients that those steps return. A pass takes its architecture from
its plan: the runner builds one per run, on the run's round plan, and
full_batch_pass, the one-shot form, on a plan as tall as its largest
dataset with a lane per dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import LabeledDataset, plain_number, read_csv_rows
from .errors import ConfigError, DataError, DiagnosticsError, DivergenceError
from .nn import ParamVector, TrainPlan, check_fits

# perfbench/spans.py traces these names in this module's namespace
from .nn import Batch, backward, cross_entropy, forward  # noqa: F401

GRAD_NORM_TOL = 1e-12


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
    them (none is a DiagnosticsError, and one that plan's architecture does
    not fit is check_fits's error, named "dataset k"), packs consecutive
    datasets into blocks that fit plan, an nn.TrainPlan whose architecture
    is the pass's (a block takes the next dataset while its rows stay within
    plan.rows and its datasets within plan.lanes), and binds one step per
    block, a segment per dataset, on plan; a dataset taller than plan is
    that step's ShapeError. The runner passes its round plan, so a run
    allocates one workspace, and a smaller plan only packs more blocks. The
    pass holds its bound steps, so the plan letting go of them unbinds
    nothing. A call on a model, returning (f, grad f, ratio), copies it into
    the lanes the blocks read and, block by block, fills the block's rows of
    the plan's inputs with one concatenate of its datasets' features, runs
    the block's step on the block's labels and sums the datasets' losses and
    gradients in order, each gradient scaled into the pass's one
    parameter-sized vector; it allocates no block-sized array. Each segment
    is bitwise its dataset's own loss_and_grad call. A model of another
    architecture is TrainPlan.load's ShapeError, and a call that raises
    DivergenceError leaves the plan usable.
    """

    def __init__(self, plan: TrainPlan, datasets: Sequence[LabeledDataset]) -> None:
        if len(datasets) == 0:
            raise DiagnosticsError("the full-batch pass needs at least one dataset")
        for k, dataset in enumerate(datasets):
            check_fits(plan.arch, dataset, f"dataset {k}")
        blocks = _blocks(datasets, plan.rows, plan.lanes)
        self._lanes = max(map(len, blocks))
        total = float(sum(map(len, datasets)))
        self._plan, self._scaled = plan, np.empty(plan.values.shape[1])
        # per block: its step, its rows of the plan's inputs, its datasets'
        # features, the labels of all its rows, and each dataset's share of
        # all rows
        self._blocks = [
            (plan.step([len(d) for d in block]), plan.inputs[: sum(map(len, block))],
             [d.features for d in block], np.concatenate([d.labels for d in block]),
             [len(d) / total for d in block])
            for block in blocks
        ]

    def __call__(self, model: ParamVector) -> tuple[float, np.ndarray, float | None]:
        grads, scaled = self._plan.load(model, slice(self._lanes)).grads, self._scaled
        loss, grad, mean_sq = 0.0, np.zeros(len(model)), 0.0
        # a huge but finite model overflows here; report that as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            for step, inputs, features, labels, shares in self._blocks:
                np.concatenate(features, out=inputs)
                for ce, share, g_k in zip(step(labels), shares, grads):
                    loss += share * ce
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
    The one-shot form of FullBatchPass, on a plan as tall as the largest
    dataset with a lane per dataset; the runner builds a pass once per run,
    on its round plan. No datasets is a DiagnosticsError."""
    if len(datasets) == 0:
        raise DiagnosticsError("the full-batch pass needs at least one dataset")
    plan = TrainPlan(model.arch, max(map(len, datasets)), len(datasets))
    return FullBatchPass(plan, datasets)(model)


def _blocks(datasets: Sequence[LabeledDataset], rows: int, lanes: int) -> list[list[LabeledDataset]]:
    """Runs of consecutive datasets, each taking the next dataset while its
    rows stay within rows and its datasets within lanes; a dataset taller
    than rows is a run of its own."""
    blocks: list[list[LabeledDataset]] = []
    filled = 0
    for dataset in datasets:
        if not blocks or filled + len(dataset) > rows or len(blocks[-1]) == lanes:
            blocks.append([])
            filled = 0
        blocks[-1].append(dataset)
        filled += len(dataset)
    return blocks


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
            value = float(plain_number(cell)) if cell != "" else math.nan
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
