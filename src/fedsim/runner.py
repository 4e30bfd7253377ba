"""Experiment orchestration: build the problem, run rounds, write artifacts.

Each run owns one directory containing:
  manifest.txt        resolved config pinned to this run's seed (reparseable)
  partition.txt       client id -> sorted sample indices
  rounds.csv          one telemetry row per communication round
  final_model.bin     checkpoint of the aggregated model after the last round
  diagnostics.csv     per-round global loss / gradient instrumentation (optional)
  dissimilarity.csv   per-round dissimilarity measures (optional)

The runner owns the diagnostics: when either is enabled it builds one
FullBatchPass (local training's kernel, a segment per client) per run,
and calls it once per round at the pre-round model, which yields the
global objective, its squared gradient norm and the gradient ratio at once.
The objective after round t is the one measured before round t+1, so only
the final model needs an extra pass. Artifacts are written after the last
round. Reruns reproduce every artifact byte for byte.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig, write_config
from .data import (
    LabeledDataset,
    Partition,
    SyntheticSpec,
    build_server_set,
    dirichlet_partition,
    generate_synthetic,
    load_csv,
    partition_stats,
    write_partition_manifest,
)
from .diagnostics import DescentRecord, FullBatchPass, descent_check, dissimilarity_B

# perfbench/spans.py traces this name in this module's namespace
from .diagnostics import gradient_dissimilarity  # noqa: F401
from .engine import ClientState, RoundRecord, ServerState, round_plan, run_round
from .errors import ConfigError
from .nn import ModelArch, init_model, save_model

ROUND_CSV_HEADER = "round,selected,mean_local_loss,global_acc_server,global_acc_test,agg_weights,flags"


@dataclass(frozen=True)
class Problem:
    """Everything a run needs: data splits, clients, and the initial server."""

    test_set: LabeledDataset | None
    train_pool: LabeledDataset
    partition: Partition
    clients: list[ClientState]
    server: ServerState


@dataclass(frozen=True)
class RunResult:
    run_dir: Path
    records: list[RoundRecord]
    server: ServerState
    descent: list[DescentRecord] | None


def build_problem(cfg: ExperimentConfig, seed: int) -> Problem:
    if cfg.dataset == "synthetic":
        spec = SyntheticSpec(cfg.num_classes, cfg.samples_per_class, cfg.input_dim, cfg.cluster_spread, seed)
        try:
            pool = generate_synthetic(spec)
        except MemoryError:
            raise ConfigError(
                f"samples_per_class = {cfg.samples_per_class} with input_dim = {cfg.input_dim}: "
                "the synthetic data cannot be allocated"
            ) from None
    else:
        pool = load_csv(cfg.dataset)

    server_set, rest = build_server_set(pool, cfg.server_per_class, seed)
    if cfg.test_per_class > 0:
        # seed+1 keeps this draw apart from this seed's server carve, but it is
        # also seed+1's server-carve stream: a known collision, kept because
        # removing it changes every trajectory
        test_holdout, train_pool = build_server_set(rest, cfg.test_per_class, seed + 1)
        test_set: LabeledDataset | None = test_holdout.data
    else:
        test_set, train_pool = None, rest

    partition = dirichlet_partition(train_pool, cfg.clients, cfg.beta, seed)
    clients = [
        ClientState(id=cid, data=train_pool.subset(idxs))
        for cid, idxs in enumerate(partition.client_indices)
    ]
    arch = ModelArch((pool.input_dim, *cfg.hidden, pool.num_classes))
    try:
        model = init_model(arch, seed)
    except (ValueError, MemoryError):  # numpy: "Maximum allowed dimension exceeded"
        raise ConfigError(f"hidden = {','.join(map(str, cfg.hidden))}: the model cannot be allocated") from None
    server = ServerState(model, server_set)
    return Problem(
        test_set=test_set,
        train_pool=train_pool,
        partition=partition,
        clients=clients,
        server=server,
    )


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def _write_table(path: Path, header: str, rows) -> None:
    """A CSV file: the header line, then each row's cells joined by commas."""
    lines = [header] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_rounds_csv(records: list[RoundRecord], path: Path) -> None:
    rows = (
        [
            str(rec.round),
            ";".join(str(c) for c in rec.selected),
            *map(_fmt, (rec.mean_local_loss, rec.global_acc_server, rec.global_acc_test)),
            ";".join(f"{cid}:{_fmt(w)}" for cid, w in rec.agg_weights.items()),
            ";".join(rec.flags),
        ]
        for rec in records
    )
    _write_table(path, ROUND_CSV_HEADER, rows)


def _write_diagnostics_csv(descent: list[DescentRecord], path: Path) -> None:
    rows = (
        [str(r.round), *map(_fmt, (r.loss_before, r.grad_sqnorm, r.loss_after, r.lambda_hat))]
        for r in descent
    )
    _write_table(path, "round,global_loss,global_grad_sqnorm,global_loss_after,lambda_hat", rows)


def _write_dissimilarity_csv(
    records: list[RoundRecord], grad_ratios: list[float | None], path: Path
) -> None:
    rows = []
    for rec, grad_ratio in zip(records, grad_ratios):
        report = dissimilarity_B(rec.global_acc_server, rec.measured_accuracies, grad_ratio)
        rows.append(
            [
                str(rec.round),
                _fmt(report.grad_ratio),
                _fmt(report.max_ratio),
                ";".join(f"{cid}:{_fmt(r)}" for cid, r in report.client_ratios.items()),
                ";".join(report.flags),
            ]
        )
    _write_table(path, "round,grad_ratio,max_acc_ratio,acc_ratios,flags", rows)


def _require_fresh(run_dir: Path) -> None:
    """A run directory must be new or empty: writing into an old run's files
    would leave a directory that mixes two runs."""
    if run_dir.is_file() or (run_dir.is_dir() and any(run_dir.iterdir())):
        raise ConfigError(
            f"run directory {run_dir} already holds files; remove it or choose another output_dir"
        )


def run_experiment(cfg: ExperimentConfig, seed: int, run_dir) -> RunResult:
    """Execute cfg.rounds communication rounds for one seed, writing artifacts
    into run_dir, which must be new or empty."""
    run_dir = Path(run_dir)
    _require_fresh(run_dir)
    # a config whose data cannot be built fails here, before any file exists
    problem = build_problem(cfg, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    run_cfg = cfg.for_seed(seed)

    write_config(run_cfg, run_dir / "manifest.txt")
    write_partition_manifest(problem.partition, run_dir / "partition.txt")

    server = problem.server
    diagnose = cfg.instrument_global_loss or cfg.emit_dissimilarity
    full_pass = FullBatchPass(server.model.arch, [c.data for c in problem.clients]) if diagnose else None
    plan = round_plan(server, problem.clients, run_cfg, problem.test_set)
    records: list[RoundRecord] = []
    losses: list[float] = []
    grad_sqnorms: list[float] = []
    grad_ratios: list[float | None] = []
    for _t in range(cfg.rounds):
        if full_pass is not None:
            loss, grad, ratio = full_pass(server.model)
            losses.append(loss)
            grad_sqnorms.append(float(grad @ grad))
            grad_ratios.append(ratio)
        server, rec = run_round(server, problem.clients, run_cfg, test_data=problem.test_set, plan=plan)
        records.append(rec)

    _write_rounds_csv(records, run_dir / "rounds.csv")
    save_model(server.model, run_dir / "final_model.bin")

    descent = None
    if cfg.instrument_global_loss:
        final_loss = full_pass(server.model)[0]
        descent = descent_check(losses, grad_sqnorms, final_loss)
        _write_diagnostics_csv(descent, run_dir / "diagnostics.csv")
    if cfg.emit_dissimilarity:
        _write_dissimilarity_csv(records, grad_ratios, run_dir / "dissimilarity.csv")

    return RunResult(run_dir=run_dir, records=records, server=server, descent=descent)


def run_sweep(cfg: ExperimentConfig) -> list[RunResult]:
    """One run per configured seed; multi-seed sweeps get a summary CSV.
    Every seed's run directory is checked before any compute or write."""
    root = Path(cfg.output_dir)
    run_dirs = [root / f"{cfg.strategy}-seed{seed}" for seed in cfg.seeds_list()]
    for run_dir in run_dirs:
        _require_fresh(run_dir)
    results = [
        run_experiment(cfg, seed, run_dir) for seed, run_dir in zip(cfg.seeds_list(), run_dirs)
    ]
    if len(results) > 1:
        # (server, test) accuracy after the last round; NaN when never measured
        finals = [
            (r.records[-1].global_acc_server, r.records[-1].global_acc_test)
            if r.records
            else (math.nan, math.nan)
            for r in results
        ]
        rows = [[str(seed), _fmt(s), _fmt(t)] for seed, (s, t) in zip(cfg.seeds_list(), finals)]
        for name, fn in (("mean", statistics.mean), ("stdev", statistics.stdev)):
            # a statistic over a NaN is undefined: blank, like the NaN itself
            cells = [_fmt(math.nan if any(map(math.isnan, col)) else fn(col)) for col in zip(*finals)]
            rows.append([name, *cells])
        _write_table(root / "sweep_summary.csv", "seed,final_acc_server,final_acc_test", rows)
    # written last, so a sweep that fails leaves no file of its own behind
    write_config(cfg, root / "config.resolved.txt")
    return results


def partition_report(cfg: ExperimentConfig, seed: int) -> str:
    """Text table of per-client class counts for the configured partition."""
    problem = build_problem(cfg, seed)
    counts = partition_stats(problem.partition, problem.train_pool)
    header = "client," + ",".join(f"class{c}" for c in range(counts.shape[1]))
    lines = [header]
    for cid, row in enumerate(counts):
        lines.append(f"{cid}," + ",".join(str(int(v)) for v in row))
    totals = counts.sum(axis=0)
    lines.append("total," + ",".join(str(int(v)) for v in totals))
    return "\n".join(lines) + "\n"
