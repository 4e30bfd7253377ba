"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The directional-replication runs (criteria 8-10) share a single
module-scoped set of experiments: the 8-class Gaussian task (dim 16,
200 samples/class, spread 0.6) split across 10 clients at beta=0.1 with a
32-per-class server set, 50 rounds, seeds 0..4.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import random_model, train_alone
from fedsim import engine, nn
from fedsim.config import ExperimentConfig
from fedsim.data import LabeledDataset, SyntheticSpec, dirichlet_partition, generate_synthetic, partition_stats
from fedsim.diagnostics import (
    TheoremConstants,
    descent_summary,
    dissimilarity_B,
    global_objective,
    gradient_dissimilarity,
    read_history_csv,
    rounds_to_target,
    speedup,
    theorem_constant,
)
from fedsim.runner import run_experiment

SEEDS = (0, 1, 2, 3, 4)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def directional_config(strategy: str) -> ExperimentConfig:
    return ExperimentConfig(
        strategy=strategy,
        penalty_mode="literal",
        num_classes=8,
        samples_per_class=200,
        input_dim=16,
        cluster_spread=0.6,
        clients=10,
        beta=0.1,
        server_per_class=32,
        test_per_class=40,
        rounds=50,
        instrument_global_loss=True,
    )


@pytest.fixture(scope="module")
def directional_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("directional")
    start = time.perf_counter()
    runs = {}
    for strategy in ("fedavg", "fedpdc"):
        cfg = directional_config(strategy)
        runs[strategy] = [
            run_experiment(cfg, seed, root / f"{strategy}-seed{seed}") for seed in SEEDS
        ]
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        arch = nn.ModelArch((5, 8, 4))
        model = nn.init_model(arch, seed)
        batch = nn.Batch(rng.standard_normal((7, 5)), rng.integers(0, 4, 7))
        analytic = nn.backward(model, batch)
        numeric = nn.central_difference(
            lambda v: reference.loss_and_grad(arch, v, batch.features, batch.labels)[0],
            model.values,
            step=1e-5,
        )
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        "gradient oracle",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_aggregation_identities():
    rng = np.random.default_rng(42)
    arch = nn.ModelArch((3, 4, 2))
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 7))
        sizes = rng.integers(1, 500, k)
        accs = rng.uniform(0.0, 1.0, k)
        w_avg = engine.fedavg_weights(sizes)
        w_pdc, _ = engine.fedpdc_weights(accs)
        ok &= abs(float(w_avg.sum()) - 1.0) < 1e-12
        ok &= abs(float(w_pdc.sum()) - 1.0) < 1e-12
        models = [
            nn.ParamVector(arch, rng.standard_normal(nn.param_count(arch))) for _ in range(k)
        ]
        stacked = np.stack([m.values for m in models])
        combined = engine._combine(models, engine.fedavg_weights(sizes))
        ok &= bool(np.all(combined.values >= stacked.min(axis=0) - 1e-12))
        ok &= bool(np.all(combined.values <= stacked.max(axis=0) + 1e-12))
    models = [nn.ParamVector(arch, rng.standard_normal(nn.param_count(arch))) for _ in range(5)]
    equal = engine._combine(models, engine.fedpdc_weights([0.6] * 5)[0])
    mean = np.mean(np.stack([m.values for m in models]), axis=0)
    ok &= bool(np.max(np.abs(equal.values - mean)) < 1e-12)
    report(2, "aggregation identities", ok)


def _toy_federation(seed=2):
    pool = generate_synthetic(SyntheticSpec(4, 60, 6, 0.5, seed=seed))
    from fedsim.data import build_server_set

    server_set, rest = build_server_set(pool, 8, seed=seed)
    partition = dirichlet_partition(rest, 4, 0.5, seed=seed)
    clients = [
        engine.ClientState(cid, rest.subset(idxs))
        for cid, idxs in enumerate(partition.client_indices)
    ]
    model = nn.init_model(nn.ModelArch((6, 10, 4)), seed)
    return server_set, clients, model


def test_criterion_3_reduction_equivalences():
    server_set, clients, model = _toy_federation()
    fedavg = ExperimentConfig(strategy="fedavg", local_epochs=2, batch_size=16, seed=5)
    trajectories = []
    for cfg in (fedavg, replace(fedavg, strategy="fedprox", mu_prox=0.0)):
        server = engine.ServerState(model, server_set)
        history = []
        for _ in range(10):
            server, _ = engine.run_round(server, clients, cfg)
            history.append(server.model.values)
        trajectories.append(history)
    bitwise = all(np.array_equal(a, b) for a, b in zip(*trajectories))

    full = max(len(c.data) for c in clients)
    full_batch = ExperimentConfig(
        strategy="fedavg",
        local_epochs=1,
        batch_size=full,
        eta=0.05,
        momentum=0.0,
        weight_decay=0.0,
        seed=5,
    )
    server = engine.ServerState(model, server_set)
    stepped, _ = engine.run_round(server, clients, full_batch)
    _, grad = global_objective(model, [c.data for c in clients])
    central_diff = float(np.max(np.abs(stepped.model.values - (model.values - 0.05 * grad))))
    report(
        3,
        "reduction equivalences",
        bitwise and central_diff < 1e-9,
        f"central-step diff {central_diff:.1e}",
    )


def test_criterion_4_literal_penalty_neutrality():
    _server_set, clients, model = _toy_federation(seed=3)
    cfg = ExperimentConfig(strategy="fedpdc", local_epochs=3, batch_size=16, seed=7)
    p = 0.3
    m0, losses0 = train_alone(clients[0], model, p, replace(cfg, lam=0.0), 1)
    m10, losses10 = train_alone(clients[0], model, p, replace(cfg, lam=10.0), 1)
    shift = 10.0 * (1.0 - p)
    ok = np.array_equal(m0.values, m10.values)
    ok &= len(losses0) == len(losses10) > 0
    ok &= all(b == a + shift for a, b in zip(losses0, losses10))
    report(4, "literal-penalty neutrality", bool(ok))


def test_criterion_5_partition_statistics():
    pool = generate_synthetic(SyntheticSpec(8, 120, 4, 0.5, seed=0))
    global_props = pool.class_histogram() / len(pool)
    ok = True
    for seed in range(5):
        part = dirichlet_partition(pool, 10, 1e6, seed)
        stats = partition_stats(part, pool)
        props = stats / stats.sum(axis=1, keepdims=True)
        ok &= bool(np.max(np.abs(props - global_props) / global_props) < 0.05)
        flat = sorted(i for idxs in part.client_indices for i in idxs)
        ok &= flat == list(range(len(pool)))
        ok &= bool(np.array_equal(stats.sum(axis=0), pool.class_histogram()))

    def mean_entropy(beta, seed):
        stats = partition_stats(dirichlet_partition(pool, 10, beta, seed), pool)
        props = stats / stats.sum(axis=1, keepdims=True)
        terms = np.where(props > 0, -props * np.log(np.where(props > 0, props, 1.0)), 0.0)
        return terms.sum(axis=1).mean()

    low = float(np.mean([mean_entropy(0.1, s) for s in range(5)]))
    high = float(np.mean([mean_entropy(10.0, s) for s in range(5)]))
    ok &= low < high
    report(5, "partition statistics", ok, f"entropy {low:.2f} < {high:.2f}")


def test_criterion_6_dissimilarity_sanity():
    # identical clients: run one accuracy-weighted round end to end
    server_set, clients, model = _toy_federation(seed=4)
    shared = clients[0].data
    twins = [engine.ClientState(0, shared), engine.ClientState(1, shared)]
    server = engine.ServerState(model, server_set)
    cfg = ExperimentConfig(strategy="fedpdc", local_epochs=1, batch_size=16, seed=0)
    _new, rec = engine.run_round(server, twins, cfg)
    b_same = gradient_dissimilarity(model, [shared, shared])
    acc_report = dissimilarity_B(rec.global_acc_server, rec.measured_accuracies, b_same)
    ok = all(r == 1.0 for r in acc_report.client_ratios.values())
    ok &= abs(b_same - 1.0) < 1e-9

    rng = np.random.default_rng(6)
    arch = nn.ModelArch((5, 6, 4))
    for i in range(50):
        m = random_model(arch, seed=i)
        datasets = [
            LabeledDataset(rng.standard_normal((12, 5)), rng.integers(0, 4, 12), 4)
            for _ in range(3)
        ]
        ratio = gradient_dissimilarity(m, datasets)
        ok &= ratio is None or ratio >= 1.0 - 1e-9

    model16 = random_model(nn.ModelArch((16, 32, 8)), seed=0)

    def b_for(beta, seed):
        pool = generate_synthetic(SyntheticSpec(8, 120, 16, 0.6, seed=seed))
        part = dirichlet_partition(pool, 10, beta, seed)
        datasets = [pool.subset(idx) for idx in part.client_indices]
        return gradient_dissimilarity(model16, datasets)

    low_mean = float(np.mean([b_for(0.1, s) for s in range(5)]))
    high_mean = float(np.mean([b_for(1e6, s) for s in range(5)]))
    ok &= low_mean > high_mean
    report(6, "dissimilarity sanity", bool(ok), f"B_grad {low_mean:.2f} > {high_mean:.2f}")


def test_criterion_7_theorem_constant():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(100):
        L = float(rng.uniform(0.0, 5.0))
        mu = float(rng.uniform(0.1, 5.0))
        mu_bar = float(rng.uniform(0.05, mu))
        B = float(rng.uniform(0.0, 10.0))
        K = float(rng.uniform(1.0, 100.0))
        got = theorem_constant(TheoremConstants(L=L, mu=mu, mu_bar=mu_bar, B=B, K=K))
        want = reference.theorem_constant(L, mu, mu_bar, B, K)
        ok &= abs(got - want) <= 1e-12 * max(1.0, abs(want))
    exact = theorem_constant(TheoremConstants(L=0.0, mu=2.0, mu_bar=1.5, B=4.0, K=9.0))
    ok &= exact == 1.0 / 2.0 + math.sqrt(2.0) * 4.0 / (1.5 * math.sqrt(9.0))
    report(7, "convergence constant", bool(ok))


def test_criterion_8_directional_replication(directional_runs):
    runs, elapsed = directional_runs
    finals_avg = [r.records[-1].global_acc_test for r in runs["fedavg"]]
    finals_pdc = [r.records[-1].global_acc_test for r in runs["fedpdc"]]
    mean_avg, mean_pdc = float(np.mean(finals_avg)), float(np.mean(finals_pdc))

    reached = 0
    ratios = []
    for res_avg, res_pdc in zip(runs["fedavg"], runs["fedpdc"]):
        target = res_avg.records[-1].global_acc_test
        rows = read_history_csv(res_pdc.run_dir / "rounds.csv")
        rounds_pdc = rounds_to_target(rows, target)
        if rounds_pdc is not None and rounds_pdc <= 50:
            reached += 1
        rows_avg = read_history_csv(res_avg.run_dir / "rounds.csv")
        ratios.append(speedup(rounds_to_target(rows_avg, target), rounds_pdc))
    observed = [r for r in ratios if r is not None]
    speedup_note = (
        f"speedups {['%.2f' % r if r is not None else '<1' for r in ratios]}"
        if ratios
        else "no speedups"
    )
    ok = mean_pdc >= mean_avg and reached >= 4 and elapsed < 600.0
    report(
        8,
        "directional replication",
        ok,
        f"final {mean_pdc:.4f} vs {mean_avg:.4f}, reached {reached}/5, "
        f"{elapsed:.0f}s, {speedup_note} (reported, not asserted)",
    )
    assert observed  # the ratio is computable for at least one seed


def test_criterion_9_descent_monitoring(directional_runs):
    runs, _ = directional_runs
    means = []
    violations = 0
    total = 0
    for res in runs["fedpdc"]:
        mean, positive = descent_summary(res.descent)
        means.append(mean)
        violations += sum(1 for d in res.descent if not math.isnan(d.lambda_hat) and d.lambda_hat <= 0)
        total += len(res.descent)
    seed_mean = float(np.mean(means))
    report(
        9,
        "descent monitoring",
        seed_mean > 0,
        f"mean ratio {seed_mean:.3f}, per-round violations {violations}/{total} (reported only)",
    )


def test_criterion_10_end_to_end_determinism(directional_runs, tmp_path):
    runs, _ = directional_runs
    ok = True
    for strategy in ("fedavg", "fedpdc"):
        cfg = directional_config(strategy)
        rerun = run_experiment(cfg, 0, tmp_path / f"{strategy}-rerun")
        first_dir = runs[strategy][0].run_dir
        for name in ("rounds.csv", "diagnostics.csv", "final_model.bin", "partition.txt", "manifest.txt"):
            ok &= (first_dir / name).read_bytes() == (rerun.run_dir / name).read_bytes()
    report(10, "end-to-end determinism", bool(ok))
