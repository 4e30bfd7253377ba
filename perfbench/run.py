"""fedsim benchmark: end-to-end run cost per workload, or a traced per-module run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports fedsim from `src/` there and
fails without a result when `src/fedsim` is missing. Every measurement runs
in a fresh interpreter (perfbench/child.py) with one BLAS thread. The
workload's configs are generated from --seed (default 1) and fed to
`fedsim run`; every run is checked (exit code, artifacts, accuracy floor,
byte-identical trajectory across repeats) before its numbers count.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced invocations in turn and prints the per-layer metrics.
The last line of stdout is the JSON result; the lines above it are for
people: machine, trajectory hash, and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150.0
# Times are reported at the host speed at which child.calibrate() takes
# CAL_REF_S: each round's time is scaled by CAL_REF_S / the calibration time
# measured right after it, and set-up and other time by CAL_REF_S / the
# median calibration time of the process. On a shared host whose speed
# drifts by tens of percent within seconds, this is what makes runs
# comparable; the raw medians are printed alongside.
CAL_REF_S = 0.005


@dataclass(frozen=True)
class Workload:
    shared: dict
    variants: tuple  # one fedsim config per entry, merged over `shared`
    acc_floor: float  # final global_acc_test below this counts as a failure


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper_sweep": Workload(
        shared={"clients": 10, "beta": 0.1, "local_epochs": 10, "batch_size": 64,
                "rounds": 25, "instrument_global_loss": "true"},
        variants=({"strategy": "fedavg"}, {"strategy": "fedpdc", "penalty_mode": "literal"}),
        acc_floor=0.7,
    ),
    "prox_small_batch": Workload(
        shared={"strategy": "fedprox", "mu_prox": 0.01, "clients": 10, "beta": 0.1,
                "batch_size": 8, "local_epochs": 2, "rounds": 50},
        variants=({},),
        acc_floor=0.7,
    ),
    "many_clients_diag": Workload(
        shared={"strategy": "fedpdc_adaptive", "penalty_mode": "scaled_ce", "clients": 100,
                "tau": 0.1, "beta": 0.5, "samples_per_class": 1000, "local_epochs": 1,
                "rounds": 60, "instrument_global_loss": "true", "emit_dissimilarity": "true"},
        variants=({},),
        acc_floor=0.5,
    ),
}

SETUP_REPEATS = 7
MIN_RUNS = 3
MIN_TRACE_PAIRS = 2
MAX_FAILURES = 3


class Bench:
    """Starts children, checks their output, and counts attempts and failures."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference_hash: str | None = None
        self._serial = 0
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def settings(self) -> list[dict]:
        return [
            {**self.workload.shared, **variant, "seed": self.seed}
            for variant in self.workload.variants
        ]

    def write_configs(self) -> tuple[Path, list[Path]]:
        """Fresh directory holding one config file per variant, each with its
        own output_dir below it."""
        self._serial += 1
        base = self.workdir / f"inv{self._serial}"
        paths = []
        for k, settings in enumerate(self.settings()):
            out = base / f"out{k}"
            out.mkdir(parents=True)
            text = "".join(f"{key} = {value}\n" for key, value in settings.items())
            path = base / f"cfg{k}.txt"
            path.write_text(text + f"output_dir = {out}\n")
            paths.append(path)
        return base, paths

    def child(self, mode: str, configs: list[Path], base: Path) -> dict | None:
        result_path = base / f"{mode}.json"
        self.attempted += 1
        timeout = max(5.0, CHILD_TIMEOUT_S - self.elapsed())
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(result_path), *map(str, configs)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} child exceeded {timeout:.0f} s")
        if proc.returncode != 0:
            return self.fail(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        if any(code != 0 for code in result.get("exit_codes", ())):
            return self.fail(f"fedsim run exit codes {result['exit_codes']}: {proc.stderr.strip()[-2000:]}")
        result["elapsed_s"] = time.monotonic() - started
        result["scale"] = CAL_REF_S / statistics.median(result["cal_s"])
        if "round_s" in result:
            rounds, cals = result["round_s"], result["cal_s"]
            result["wall_s"] -= sum(cals)  # the program's own time
            rest = result["wall_s"] - sum(rounds)
            result["ref_wall_s"] = result["scale"] * rest + CAL_REF_S * sum(
                r / c for r, c in zip(rounds, cals)
            )
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED [{self.name} seed {self.seed}]: {message}", file=sys.stderr)
        return None

    def warm_up(self) -> None:
        """One untimed, uncounted set-up, so that the bytecode cache and the
        file cache are filled before anything is timed."""
        self.setup()
        self.attempted = self.failed = 0
        self.started = time.monotonic()

    def setup(self) -> dict | None:
        base, configs = self.write_configs()
        return self.child("setup", configs, base)

    def invoke(self, mode: str) -> dict | None:
        """One workload invocation: run the configs, check every artifact,
        return timings plus the checked trajectory facts."""
        base, configs = self.write_configs()
        result = self.child(mode, configs, base)
        if result is None:
            return None
        facts = check_outputs(base, self.settings(), self.workload.acc_floor)
        if isinstance(facts, str):
            return self.fail(facts)
        if self.reference_hash is None:
            self.reference_hash = facts["hash"]
        elif facts["hash"] != self.reference_hash:
            return self.fail(f"{mode} trajectory {facts['hash']} != first run {self.reference_hash}")
        result.update(facts)
        if mode == "trace":
            # the last traced run's spans stay for inspection
            spans = base / "trace.json.spans"
            result["trace"] = json.loads(spans.read_text())
            spans.replace(self.workdir.parent / f"spans-{self.name}-seed{self.seed}.json")
        shutil.rmtree(base)
        return result


def check_outputs(base: Path, settings: list[dict], acc_floor: float) -> dict | str:
    """Trajectory hash, final test accuracy and local-training sample count of
    one invocation, or a message naming the first check that failed."""
    digest = hashlib.sha256()
    accs, samples = [], 0
    for k, cfg in enumerate(settings):
        out = base / f"out{k}"
        run_dir = out / f"{cfg['strategy']}-seed{cfg['seed']}"
        expected = ["manifest.txt", "partition.txt", "rounds.csv", "final_model.bin"]
        if cfg.get("instrument_global_loss") == "true":
            expected.append("diagnostics.csv")
        if cfg.get("emit_dissimilarity") == "true":
            expected.append("dissimilarity.csv")
        missing = [n for n in expected if not (run_dir / n).is_file()]
        if not (out / "config.resolved.txt").is_file():
            missing.append("config.resolved.txt")
        if missing:
            return f"{run_dir} lacks {missing}"
        rounds = (run_dir / "rounds.csv").read_bytes()
        digest.update(rounds)
        digest.update((run_dir / "final_model.bin").read_bytes())
        rows = [line.split(",") for line in rounds.decode().splitlines()[1:]]
        if len(rows) != cfg["rounds"]:
            return f"{run_dir}/rounds.csv has {len(rows)} rounds, expected {cfg['rounds']}"
        acc = float(rows[-1][4])
        if not acc >= acc_floor:
            return f"{run_dir}: final global_acc_test {acc} below floor {acc_floor}"
        accs.append(acc)
        sizes = {}
        for line in (run_dir / "partition.txt").read_text().splitlines():
            cid, _, idxs = line.partition(":")
            sizes[cid.strip()] = len(idxs.split(","))
        manifest = dict(
            line.split(" = ", 1) for line in (run_dir / "manifest.txt").read_text().splitlines()
        )
        epochs = int(manifest["local_epochs"])
        samples += sum(epochs * sizes[cid] for row in rows for cid in row[1].split(";"))
        widths = [int(manifest["input_dim"]), *map(int, manifest["hidden"].split(",")),
                  int(manifest["num_classes"])]
    return {
        "hash": digest.hexdigest(),
        "final_acc_test": statistics.fmean(accs),
        "train_samples": samples,
        "macs_per_row": sum(a * b for a, b in zip(widths, widths[1:])),
    }


def layer_table(trace: dict, macs_per_row: int, scale: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced invocation, with every time multiplied
    by scale, plus the exact counts the traced-run self-check compares."""
    names, spans, counters = trace["names"], trace["spans"], trace["counters"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    rounds_ms = []
    for i, (name_id, start, end, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        total[name] += scale * (end - start)
        self_s[name] += scale * (end - start - covered[i])
        if name == "engine.run_round":
            rounds_ms.append(scale * (end - start) * 1e3)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = calls["nn.train.sgd_step"]
    fwd, bwd = calls["nn.train.forward"], calls["nn.train.backward"]
    rows = counters.get("nn.train.rows", 0)
    # computed, not measured: 2 FLOPs per multiply-add of the matrix
    # products; a backward pass counts as three forward passes
    flops = 2.0 * macs_per_row * rows * ratio(fwd + 3 * bwd, bwd)
    grads = counters.get("diagnostics.client_grads", 0)
    counts = {f"{name}.calls": n for name, n in calls.items()}
    counts.update(counters)
    counts.update({
        "nn.train.forward_passes_per_step": ratio(fwd + bwd, steps),
        "diagnostics.client_grads_per_round": ratio(calls["nn.full.backward"], calls["engine.run_round"]),
        "diagnostics.distinct_grad_share": ratio(counters.get("diagnostics.distinct_client_grads", 0), grads),
        "data.partition_attempts": ratio(counters.get("data.partition_attempts", 0), calls["data.dirichlet_partition"]),
        "nn.score.evaluate_accuracy.rows": counters.get("nn.score.rows", 0),
        "seeding.stream.calls": counters.get("seeding.stream.calls", 0),
    })
    metrics = {key: counts[key] for key in (
        "nn.train.forward_passes_per_step", "diagnostics.client_grads_per_round",
        "diagnostics.distinct_grad_share", "data.partition_attempts",
        "nn.score.evaluate_accuracy.rows", "seeding.stream.calls",
    )}
    for layer in ("forward", "backward", "cross_entropy", "sgd_step", "batch"):
        metrics[f"nn.train.{layer}.calls"] = calls[f"nn.train.{layer}"]
        metrics[f"nn.train.{layer}.self_s"] = self_s[f"nn.train.{layer}"]
    for name in ("nn.full.forward", "nn.full.backward", "nn.full.cross_entropy", "nn.full.batch",
                 "diagnostics.global_objective", "diagnostics.gradient_dissimilarity",
                 "nn.score.evaluate_accuracy"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name in ("engine.local_train", "engine.local_loss", "engine.run_round", "engine.aggregate",
                 "engine.sample_clients", "data.generate_synthetic", "data.build_server_set",
                 "data.dirichlet_partition", "runner.build_problem", "config.parse_config",
                 "runner.run_experiment", "cli.main"):
        metrics[f"{name}.self_s"] = self_s[name]
    # run_sweep's own time is writing config.resolved.txt and the sweep summary
    metrics["runner.artifacts.self_s"] = self_s["runner.artifacts"] + self_s["runner.run_sweep"]
    local_train_s = total["engine.local_train"]
    metrics["nn.train.us_per_step"] = ratio(local_train_s, steps) * 1e6
    metrics["nn.train.gflops"] = ratio(flops, local_train_s) / 1e9
    metrics["engine.round_ms.p50"] = statistics.median(rounds_ms)
    metrics["engine.round_ms.p90"] = statistics.quantiles(rounds_ms, n=10)[8]
    return metrics, counts


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "child_threads": "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1",
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def run_end_to_end(bench: Bench, seconds: int) -> dict | None:
    setups = [r for r in (bench.setup() for _ in range(SETUP_REPEATS)) if r is not None]
    runs = []
    while bench.failed < MAX_FAILURES and bench.elapsed() < CHILD_TIMEOUT_S:
        result = bench.invoke("run")
        if result is not None:
            runs.append(result)
        if len(runs) >= MIN_RUNS and bench.elapsed() + statistics.median(
            r["elapsed_s"] for r in runs
        ) > seconds:
            break
    if not setups or not runs:
        return None
    setup_s = [r["setup_s"] * r["scale"] for r in setups]
    walls = [r["ref_wall_s"] for r in runs]
    samples = [r["train_samples"] / wall for r, wall in zip(runs, walls)]
    rss = [r["peak_rss_mb"] for r in runs]
    ok = (bench.attempted - bench.failed) / bench.attempted
    raw = statistics.median(r["wall_s"] for r in runs)
    print(f"setup_s {statistics.median(setup_s):.6g} s (median; {quartiles(setup_s)}; "
          f"raw median {statistics.median(r['setup_s'] for r in setups):.6g} s)")
    print(f"wall_s {statistics.median(walls):.6g} s (median; {quartiles(walls)}; raw median {raw:.6g} s)")
    print(f"train_samples_per_s {statistics.median(samples):.6g} samples/s "
          f"(median; {quartiles(samples)}; {runs[0]['train_samples']} samples per run)")
    print(f"peak_rss_mb {statistics.median(rss):.6g} MiB (median; {quartiles(rss)})")
    print(f"final_acc_test {runs[0]['final_acc_test']:.6g} (mean over {len(bench.workload.variants)} configs)")
    print(f"ok_share {ok:.6g} ({bench.attempted - bench.failed} of {bench.attempted} children passed)")
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "train_samples_per_s": statistics.median(samples),
        "peak_rss_mb": statistics.median(rss),
        "final_acc_test": runs[0]["final_acc_test"],
        "ok_share": ok,
    }


def run_traced(bench: Bench, seconds: int) -> dict | None:
    plain, traced, tables, reference_counts = [], [], [], None
    while bench.failed < MAX_FAILURES and bench.elapsed() < CHILD_TIMEOUT_S:
        untraced_run = bench.invoke("run")
        traced_run = bench.invoke("trace")
        if untraced_run is not None and traced_run is not None:
            metrics, counts = layer_table(
                traced_run.pop("trace"), traced_run["macs_per_row"], traced_run["scale"]
            )
            if reference_counts is None:
                reference_counts = counts
            if counts["engine.local_train.samples"] != traced_run["train_samples"]:
                bench.fail(f"traced sample count {counts['engine.local_train.samples']} "
                           f"!= {traced_run['train_samples']} counted from rounds.csv")
            elif counts == reference_counts:
                plain.append(untraced_run)
                traced.append(traced_run)
                tables.append(metrics)
            else:
                changed = sorted(k for k in counts if counts[k] != reference_counts.get(k))
                bench.fail(f"counts differ between traced runs: {changed}")
        if len(tables) >= MIN_TRACE_PAIRS and bench.elapsed() + statistics.median(
            r["elapsed_s"] + p["elapsed_s"] for r, p in zip(traced, plain)
        ) > seconds:
            break
    if not tables:
        return None
    result = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
    result["trace.overhead_s"] = statistics.median(
        r["ref_wall_s"] for r in traced
    ) - statistics.median(r["ref_wall_s"] for r in plain)
    print(f"traced runs: {len(traced)} (metrics are medians over them), untraced runs: {len(plain)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources at {ROOT / 'src' / 'fedsim'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print("machine:", json.dumps(machine(), sort_keys=True))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        bench.warm_up()
        values = (run_traced if args.trace else run_end_to_end)(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if values is None:
        print("error: no run of the workload passed its checks", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: trajectory sha256 {bench.reference_hash}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
