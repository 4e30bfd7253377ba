"""Trajectory fingerprint: SHA-256 of every deterministic run artifact.

One small config per strategy and penalty mode, with partial participation
(tau < 1, so clients are skipped and re-selected) and both diagnostics on.
A refactor that keeps the paper semantics must keep these hashes; a change
that alters a trajectory on purpose re-pins them and says so.

The hashes depend on the floating-point results of the BLAS numpy links
against (they were taken with numpy 2.4 on scipy-openblas 0.3.31, x86-64).
On another BLAS build they may differ without any change to fedsim; re-take
them there from a known-good commit before trusting a mismatch.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from fedsim.config import ExperimentConfig
from fedsim.runner import run_experiment, run_sweep

BASE = dict(
    num_classes=3,
    samples_per_class=60,
    input_dim=4,
    cluster_spread=0.4,
    hidden=(8,),
    clients=6,
    beta=0.3,
    server_per_class=8,
    test_per_class=8,
    tau=0.5,
    local_epochs=2,
    batch_size=16,
    rounds=6,
    instrument_global_loss=True,
    emit_dissimilarity=True,
)

CASES = {
    "fedavg": dict(strategy="fedavg"),
    "fedprox": dict(strategy="fedprox", mu_prox=0.1),
    "fedpdc_literal": dict(strategy="fedpdc", lam=2.0, penalty_mode="literal"),
    "fedpdc_scaled_ce": dict(strategy="fedpdc", lam=2.0, penalty_mode="scaled_ce"),
    "fedpdc_adaptive_scaled_ce": dict(strategy="fedpdc_adaptive", penalty_mode="scaled_ce"),
}

ARTIFACTS = (
    "rounds.csv",
    "final_model.bin",
    "diagnostics.csv",
    "dissimilarity.csv",
    "manifest.txt",
    "partition.txt",
)

EXPECTED = {
    "fedavg": (
        "2a81f48430eced1b7181ead3dd743a6b7344017dbc051d83370d2f74fa2e7b53",
        "bb54f82c69b7e90810775dff98e825cc88257e6e99acc86ceef083a80d544bb6",
        "50bd2987f84d082893965407ead5d644b2318ff6d09c076a062b5c509603ad03",
        "9a0450867d939b83fd4dd2a4b2c60c671a997d436f5f44683efaf99d64cc1e3b",
        "d210871ce286797264d82f3f9db33bae3d3edac81d0c0cc28907ca76981902c9",
        "119b5c3fd8a275cd07f6215dd3d812c81bf4aba1a34f8577e3bc5c4d713b0cd6",
    ),
    "fedprox": (
        "c84a153d32bdd824289057e40201b9662d9f3753c63e6414ee16f55c3a5d8be6",
        "52ce9b24af41c8da42d38ef7000ba53760fea01f8c9e866dcbe94c6a83a9074d",
        "07ed245a2daa1cd4595800bd782793cd91b08c9b614d3f114f60019a6f20404d",
        "2bfdfad4294eb214d442b3b560b7cb74179eae88ded4aa7aea59cd7d966e7d67",
        "c1087f0303ed5ae9c43a0a40ccaea3c1bda6506001dc1f8d80955fef4db2ae72",
        "119b5c3fd8a275cd07f6215dd3d812c81bf4aba1a34f8577e3bc5c4d713b0cd6",
    ),
    "fedpdc_literal": (
        "be129b208e5c3aa801dff7f9c36e17924e1d578ee4767e8eb1c39745ac846307",
        "dca36e3c5e5dfe78b6dc50496c74f1779309699c15fa2943b8a2f9ef4ab7af36",
        "af955fc1748eb45dc26971121d79805249c99ef5d1b69e8f79ad9fb862ceb812",
        "d3c9bdca469a1880f1810991bac00954a7673c22a30c02e912e2898d580fdbf0",
        "2ed58ef025c83898e650e5c30efbc320380a1ac71838d9d8324a50f7adba342d",
        "119b5c3fd8a275cd07f6215dd3d812c81bf4aba1a34f8577e3bc5c4d713b0cd6",
    ),
    "fedpdc_scaled_ce": (
        "cca10e47e20897c7a008afd583744a2398783b5bda9739e15d2a300eefe10749",
        "5d0afd4c4c663608a8e3bbf75d5bd0449f1cb3cb8f50e29db577f5b29cb54360",
        "f8f44a7c71620f2a2cb1920a81c276e019b8aa3aa16f27b41ba746de78a6c5fa",
        "67227e2c5d7cfac600bdd28854af5dd2965e18627983aab66fd48c18ed7068e4",
        "5494b3df2872f19ce6a9e4c9f63fb62472a7ec7e48f0a8d11bcd94f82843b5bf",
        "119b5c3fd8a275cd07f6215dd3d812c81bf4aba1a34f8577e3bc5c4d713b0cd6",
    ),
    "fedpdc_adaptive_scaled_ce": (
        "c69eda0aedf936cf61ea0dafbc1d2d01fa2384f66ebb8110cd81566b1189d54e",
        "eedf24de0a139131f808fe6285e9ad08c4f785cab3528c675e509cec9b9d312e",
        "451593a00acc1824931c3828f9e46041c9e586f8ccb81698a87930ae3030c273",
        "482d019e9817122489e3dab58ca70d3d44081efda2bdf2c4bdce0637c961a228",
        "05d6d6cb3ac4a484aea8ee26a35ed39c4780c00f162a52b352f317cbedfc49b7",
        "119b5c3fd8a275cd07f6215dd3d812c81bf4aba1a34f8577e3bc5c4d713b0cd6",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_sha256(name, tmp_path):
    run_experiment(ExperimentConfig(**BASE, **CASES[name]), 3, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, EXPECTED[name]))


# A 2-seed sweep of the fedpdc_literal case, with a test split and without
# one (test_per_class = 0 leaves the test column of sweep_summary.csv blank).
SWEEP_EXPECTED = {
    8: (
        "3851a89762d063cd2b167c51a955598d68a9cde4d6c2fe037407fa0c13d9bb95",
        "ff1b7535100756777d203ce5b315ae6cbe8d2724d6ec0d98d8438c35ef52056f",
    ),
    0: (
        "429595d5aeb021cc7554e9b9504abe377b8969f8cacae1b2a6593e7c9c23e453",
        "61399a29289d31ed7ea4e0dc01c667d4c05e8082390ff245e502a6bc9ddd8637",
    ),
}


@pytest.mark.parametrize("test_per_class", sorted(SWEEP_EXPECTED))
def test_sweep_artifacts_match_pinned_sha256(test_per_class, tmp_path, monkeypatch):
    # a relative output_dir keeps the path written to config.resolved.txt fixed
    monkeypatch.chdir(tmp_path)
    settings = {**BASE, **CASES["fedpdc_literal"], "test_per_class": test_per_class}
    run_sweep(ExperimentConfig(**settings, seeds=(0, 1), output_dir="out"))
    files = ("sweep_summary.csv", "config.resolved.txt")
    got = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in files)
    assert dict(zip(files, got)) == dict(zip(files, SWEEP_EXPECTED[test_per_class]))


# The benchmark's own trajectory hash (rounds.csv and final_model.bin of every
# config) of each perfbench workload at seed 1, as `perfbench/run.py` prints
# it. Configs, child process and hash are perfbench's own, imported here.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK_EXPECTED = {
    "paper_sweep": "8bf5f630e987ae01f65a8fadf34e70b33c00a56750b7cbde0a266dcb6d63f22b",
    "prox_small_batch": "a37f90d27e40c318c399e05b7acc627b2a12cbfd5721f528d52e4d8022f0ddf1",
    "many_clients_diag": "c341095957849c0841b7723fd77e27e8313fe8552a266992047144e02244c760",
}


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(BENCHMARK_EXPECTED))
def test_benchmark_trajectory_matches_pinned_sha256(workload, tmp_path):
    run = _perfbench_run()
    bench = run.Bench(workload, 1, tmp_path)
    base, configs = bench.write_configs()
    proc = subprocess.run(
        [sys.executable, str(run.CHILD), "run", str(base / "run.json"), *map(str, configs)],
        cwd=run.ROOT, env=bench.env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    facts = run.check_outputs(base, bench.settings(), bench.workload.acc_floor)
    assert not isinstance(facts, str), facts
    assert facts["hash"] == BENCHMARK_EXPECTED[workload]
