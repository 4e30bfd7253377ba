"""Convergence diagnostics: dissimilarity ratios, descent monitoring, speedup.

Two dissimilarity measures are exposed side by side without asserting their
equivalence: the accuracy ratio P/p_k (global over local public-set accuracy)
and the gradient ratio sqrt(E_k ||grad_k||^2) / ||grad||. The descent monitor
tracks the per-round decline of the global objective relative to its squared
gradient norm, which is an in-expectation guarantee: individual rounds may
violate it and are reported, never failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError, DataError, DiagnosticsError, DivergenceError
from .nn import Batch, ParamVector, backward, cross_entropy, forward

if TYPE_CHECKING:
    from .engine import RoundRecord

GRAD_NORM_TOL = 1e-12


@dataclass(frozen=True)
class DissimilarityReport:
    round: int
    client_ratios: tuple[float, ...]
    max_ratio: float
    grad_ratio: float | None = None
    flags: tuple[str, ...] = ()


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
    global_acc: float, client_accs: Sequence[float], round_index: int = 0
) -> DissimilarityReport:
    """Accuracy-ratio dissimilarity P/p_k per client; p_k = 0 yields an
    infinity sentinel and a flag rather than an error."""
    if not 0.0 <= global_acc <= 1.0:
        raise DataError("global accuracy must lie in [0, 1]")
    ratios: list[float] = []
    flags: list[str] = []
    for k, p_k in enumerate(client_accs):
        if not 0.0 <= p_k <= 1.0:
            raise DataError(f"client accuracy {p_k} out of [0, 1]")
        if p_k == 0.0:
            ratios.append(math.inf)
            flags.append(f"client_{k}_zero_accuracy")
        else:
            ratios.append(global_acc / p_k)
    return DissimilarityReport(
        round=round_index,
        client_ratios=tuple(ratios),
        max_ratio=max(ratios) if ratios else math.nan,
        flags=tuple(flags),
    )


def global_objective(
    model: ParamVector, datasets: Sequence[LabeledDataset], sizes: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Size-weighted mean of per-client full-batch loss and gradient.

    Reduction runs in ascending client order so results are reproducible.
    """
    if len(datasets) == 0 or len(datasets) != len(sizes):
        raise DiagnosticsError("datasets and sizes must be nonempty and equal length")
    total = float(sum(sizes))
    if total <= 0:
        raise DiagnosticsError("total dataset size must be positive")
    loss = 0.0
    grad = np.zeros(len(model))
    # a huge but finite model overflows here; report that as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for dataset, size in zip(datasets, sizes):
            batch = Batch(dataset.features, dataset.labels)
            weight = size / total
            loss += weight * cross_entropy(forward(model, batch), batch.labels)
            grad += weight * backward(model, batch)
    if not (math.isfinite(loss) and np.isfinite(grad).all()):
        raise DivergenceError("the global objective is not finite at this model; it has diverged")
    return loss, grad


def gradient_dissimilarity(
    model: ParamVector, datasets: Sequence[LabeledDataset], sizes: Sequence[int]
) -> float | None:
    """sqrt(E_k ||grad_k||^2) / ||grad|| with size-weighted expectation.

    Returns None (undefined) when the global gradient norm is below
    GRAD_NORM_TOL; by Jensen's inequality the ratio is always >= 1.
    """
    if len(datasets) == 0 or len(datasets) != len(sizes):
        raise DiagnosticsError("datasets and sizes must be nonempty and equal length")
    total = float(sum(sizes))
    mean_sq = 0.0
    mean_grad = np.zeros(len(model))
    with np.errstate(over="ignore", invalid="ignore"):
        for dataset, size in zip(datasets, sizes):
            batch = Batch(dataset.features, dataset.labels)
            g_k = backward(model, batch)
            weight = size / total
            mean_sq += weight * float(g_k @ g_k)
            mean_grad += weight * g_k
    if not (math.isfinite(mean_sq) and np.isfinite(mean_grad).all()):
        raise DivergenceError("client gradients are not finite at this model; it has diverged")
    denom = float(np.linalg.norm(mean_grad))
    if denom <= GRAD_NORM_TOL:
        return None
    return math.sqrt(mean_sq) / denom


def attach_grad_ratio(report: DissimilarityReport, grad_ratio: float | None) -> DissimilarityReport:
    flags = report.flags
    if grad_ratio is None:
        flags = flags + ("grad_ratio_undefined",)
    return replace(report, grad_ratio=grad_ratio, flags=flags)


def descent_check(records: Sequence["RoundRecord"], final_loss: float) -> list[DescentRecord]:
    """Per-round descent ratios lambda_hat = (f_t - f_{t+1}) / ||grad f_t||^2.

    f_{t+1} is the next round's global_loss, and final_loss (the global
    objective at the model after the last round) for the last round.
    Requires rounds recorded with global-loss instrumentation enabled.
    """
    for rec in records:
        if rec.global_loss is None or rec.global_grad_sqnorm is None:
            raise DiagnosticsError(
                f"round {rec.round} lacks global-loss instrumentation; "
                "run with instrument_global_loss enabled"
            )
    out: list[DescentRecord] = []
    losses_after = [rec.global_loss for rec in records[1:]] + [final_loss]
    for rec, loss_after in zip(records, losses_after):
        sqnorm = rec.global_grad_sqnorm
        if sqnorm <= GRAD_NORM_TOL**2:
            lam = math.nan
        else:
            lam = (rec.global_loss - loss_after) / sqnorm
        out.append(
            DescentRecord(
                round=rec.round,
                loss_before=rec.global_loss,
                loss_after=loss_after,
                grad_sqnorm=sqnorm,
                lambda_hat=lam,
            )
        )
    return out


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
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read history {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty history file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}"
                )
            rows.append(dict(zip(header, row)))
    return rows


def rounds_to_target(
    history, target: float, metric: str = "global_acc_test"
) -> int | None:
    """Number of rounds (1-based) until the metric first reaches target.

    history is a path to a round CSV or rows from read_history_csv; returns
    None when the target is never reached.
    """
    rows = history if isinstance(history, list) else read_history_csv(history)
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
