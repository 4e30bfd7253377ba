"""Command line entry point.

Subcommands:
  run <config>              execute the experiment (one run per configured seed)
  partition-stats <config>  print the per-client class-count table
  compare <run_dir>...      rounds-to-target speedup table (first dir = baseline)
  plotdata <run_dir>...     tidy long-format CSV of round metrics
  check                     fast self-test of the core invariants

Exit codes: 0 success, 1 failed check, I/O error or any other fedsim error,
2 config error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics, engine, nn
from .config import ExperimentConfig, parse_config
from .data import (
    LabeledDataset,
    SyntheticSpec,
    build_server_set,
    dirichlet_partition,
    generate_synthetic,
    partition_stats,
    plain_number,
)
from .diagnostics import read_history_csv, rounds_to_target, speedup
from .errors import DataError, FedsimError
from .runner import partition_report, run_sweep


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    results = run_sweep(cfg)
    for res in results:
        print(res.run_dir)
    root = Path(cfg.output_dir)
    print(root / "config.resolved.txt")
    if len(results) > 1:
        print(root / "sweep_summary.csv")
    return 0


def _cmd_partition_stats(args) -> int:
    cfg = parse_config(args.config)
    sys.stdout.write(partition_report(cfg, cfg.seeds_list()[0]))
    return 0


def _fmt_speedup(ratio: float | None) -> str:
    if ratio is None:
        return "<1x"
    text = f"{ratio:.2f}".rstrip("0").rstrip(".")
    return f"{text}x"


def _cmd_compare(args) -> int:
    histories = [read_history_csv(Path(d) / "rounds.csv") for d in args.run_dirs]
    baseline = histories[0]
    if args.target is not None:
        target = args.target
    else:
        if not baseline:
            raise DataError(f"{args.run_dirs[0]}: baseline history has no rounds")
        try:
            target = _plain_float(baseline[-1].get(args.metric, ""))
        except argparse.ArgumentTypeError:
            raise DataError(
                f"{args.run_dirs[0]}: baseline has no final {args.metric!r} value"
            ) from None
    baseline_rounds = rounds_to_target(baseline, target, metric=args.metric)
    print(f"target {args.metric} = {target!r}")
    print(f"{'run':<40} {'#rounds':>8} {'speedup':>8}")
    for name, history in zip(args.run_dirs, histories):
        reached = rounds_to_target(history, target, metric=args.metric)
        ratio = speedup(baseline_rounds, reached)
        rounds_text = str(reached) if reached is not None else "\\"
        print(f"{str(name):<40} {rounds_text:>8} {_fmt_speedup(ratio):>8}")
    return 0


def _cmd_plotdata(args) -> int:
    metrics = ("mean_local_loss", "global_acc_server", "global_acc_test")
    lines = ["round,run,strategy,metric,value"]
    expected_header: list[str] | None = None
    for run_dir in args.run_dirs:
        run_dir = Path(run_dir)
        rows = read_history_csv(run_dir / "rounds.csv")
        header = list(rows[0].keys()) if rows else None
        missing = [column for column in ("round", *metrics) if header and column not in header]
        if missing:
            raise DataError(f"{run_dir / 'rounds.csv'}: no column {missing[0]!r}")
        if rows and expected_header is not None and header != expected_header:
            raise DataError(
                f"{run_dir}: columns {header} do not match {expected_header}"
            )
        if rows and expected_header is None:
            expected_header = header
        strategy = parse_config(run_dir / "manifest.txt").strategy
        for row in rows:
            for metric in metrics:
                # value copied verbatim so plot data is byte-equal to the source
                lines.append(f"{row['round']},{run_dir.name},{strategy},{metric},{row[metric]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        # run names are file names: surrogateescape writes back their bytes
        Path(args.out).write_text(text, encoding="utf-8", errors="surrogateescape")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _check_gradients() -> bool:
    """The gradients of the one kernel, nn.TrainPlan, against central
    differences of its losses: in training, on one batch; in the full-batch
    pass, on datasets over two row blocks, one a single row (np.matmul)."""
    arch = nn.ModelArch((4, 6, 3))
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        values = nn.init_model(arch, seed).values
        features, labels = rng.standard_normal((6, 4)), rng.integers(0, 3, 6)
        datasets = [
            LabeledDataset(rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3)
            for n in (diagnostics.BLOCK_ROWS - 1, 2, 1, 5)
        ]

        def train_pass(v):
            return nn.loss_and_grad(arch, v, features, labels)

        def full_pass(v):
            return diagnostics.full_batch_pass(nn.ParamVector(arch, v), datasets)[:2]

        # a smaller step for the pass: among its 500-odd rows some ReLU input
        # lies within 1e-3 of the kink, where a difference is no derivative
        for loss_and_grad, step in ((train_pass, 1e-3), (full_pass, 1e-5)):
            analytic = loss_and_grad(values)[1]
            numeric = nn.central_difference(lambda v: loss_and_grad(v)[0], values, step)
            denom = max(float(np.max(np.abs(numeric))), 1e-12)
            if float(np.max(np.abs(analytic - numeric))) / denom >= 1e-4:
                return False
    return True


def _check_aggregation() -> bool:
    """FedAvg weights are the size shares, the combined model is the weighted
    sum of the models, and equal accuracies weigh the models equally."""
    rng = np.random.default_rng(7)
    arch = nn.ModelArch((3, 4, 2))
    models = rng.standard_normal((4, nn.param_count(arch)))
    shares = [0.1, 0.2, 0.3, 0.4]
    weights = engine.fedavg_weights([10, 20, 30, 40])
    if not np.allclose(weights, shares, rtol=0, atol=1e-15):
        return False
    loop_sum = sum(share * model for share, model in zip(shares, models))
    if not np.allclose(engine._combine(arch, models, weights).values, loop_sum, rtol=0, atol=1e-12):
        return False
    equal = engine._combine(arch, models, engine.fedpdc_weights([0.5, 0.5, 0.5, 0.5])[0])
    return bool(np.max(np.abs(equal.values - models.mean(axis=0))) < 1e-12)


def _toy_problem():
    """(server set, training rows, their partition over two clients, the
    clients, an initial model): the toy problem of the round checks."""
    pool = generate_synthetic(SyntheticSpec(2, 30, 3, 0.5, seed=1))
    server_set, data = build_server_set(pool, 2, seed=1)
    part = dirichlet_partition(data, 2, 1.0, seed=1)
    clients = [engine.ClientState(i, data.subset(idx)) for i, idx in enumerate(part.client_indices)]
    return server_set, data, part, clients, nn.init_model(nn.ModelArch((3, 5, 2)), 0)


def _two_rounds(server_set, clients, model, cfgs) -> bool:
    """Whether two rounds of each config from model end on one model."""
    finals = []
    for cfg in cfgs:
        server = engine.ServerState(model, server_set)
        for _ in range(2):
            server, _rec = engine.run_round(server, clients, cfg)
        finals.append(server.model.values)
    return bool(np.array_equal(finals[0], finals[1]))


_FEDAVG = ExperimentConfig(strategy="fedavg", local_epochs=2, batch_size=8, seed=3)


def _check_reduction() -> bool:
    server_set, data, part, clients, model = _toy_problem()
    if int(partition_stats(part, data).sum()) != len(data):
        return False
    return _two_rounds(server_set, clients, model, (_FEDAVG, replace(_FEDAVG, strategy="fedprox", mu_prox=0.0)))


def _check_scoring() -> bool:
    """Scores steer fedpdc only: fedavg ends on the same model whether or
    not dissimilarity.csv has its local models scored (and so their p set)."""
    server_set, _data, _part, clients, model = _toy_problem()
    return _two_rounds(server_set, clients, model, (_FEDAVG, replace(_FEDAVG, emit_dissimilarity=True)))


def _cmd_check(_args) -> int:
    checks = [
        ("analytic gradient matches finite differences", _check_gradients),
        ("aggregation weights and identities", _check_aggregation),
        ("zero-prox reduction and partition conservation", _check_reduction),
        ("scoring never steers fedavg", _check_scoring),
    ]
    failed = 0
    for name, fn in checks:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _plain_float(text: str) -> float:
    """A finite number, read by the rule config values and data cells follow
    (data.plain_number); as an option anything else is a usage error (exit
    2). A target of nan is never reached, and one of -inf by every run at once."""
    try:
        value = float(plain_number(text))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite plain ASCII number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_stats = sub.add_parser("partition-stats", help="per-client class counts")
    p_stats.add_argument("config")
    p_stats.set_defaults(fn=_cmd_partition_stats)

    p_cmp = sub.add_parser("compare", help="rounds-to-target speedups vs the first run")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--target", type=_plain_float, default=None)
    p_cmp.add_argument("--metric", default="global_acc_test")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_plot = sub.add_parser("plotdata", help="long-format metric CSV for plotting")
    p_plot.add_argument("run_dirs", nargs="+")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(fn=_cmd_plotdata)

    p_check = sub.add_parser("check", help="fast self-test of core invariants")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FedsimError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
