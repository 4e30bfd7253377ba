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

import pytest

from fedsim.config import ExperimentConfig
from fedsim.runner import run_experiment

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

ARTIFACTS = ("rounds.csv", "final_model.bin", "diagnostics.csv", "dissimilarity.csv")

EXPECTED = {
    "fedavg": (
        "2a81f48430eced1b7181ead3dd743a6b7344017dbc051d83370d2f74fa2e7b53",
        "bb54f82c69b7e90810775dff98e825cc88257e6e99acc86ceef083a80d544bb6",
        "50bd2987f84d082893965407ead5d644b2318ff6d09c076a062b5c509603ad03",
        "9a0450867d939b83fd4dd2a4b2c60c671a997d436f5f44683efaf99d64cc1e3b",
    ),
    "fedprox": (
        "c84a153d32bdd824289057e40201b9662d9f3753c63e6414ee16f55c3a5d8be6",
        "52ce9b24af41c8da42d38ef7000ba53760fea01f8c9e866dcbe94c6a83a9074d",
        "07ed245a2daa1cd4595800bd782793cd91b08c9b614d3f114f60019a6f20404d",
        "2bfdfad4294eb214d442b3b560b7cb74179eae88ded4aa7aea59cd7d966e7d67",
    ),
    "fedpdc_literal": (
        "be129b208e5c3aa801dff7f9c36e17924e1d578ee4767e8eb1c39745ac846307",
        "dca36e3c5e5dfe78b6dc50496c74f1779309699c15fa2943b8a2f9ef4ab7af36",
        "af955fc1748eb45dc26971121d79805249c99ef5d1b69e8f79ad9fb862ceb812",
        "d3c9bdca469a1880f1810991bac00954a7673c22a30c02e912e2898d580fdbf0",
    ),
    "fedpdc_scaled_ce": (
        "cca10e47e20897c7a008afd583744a2398783b5bda9739e15d2a300eefe10749",
        "5d0afd4c4c663608a8e3bbf75d5bd0449f1cb3cb8f50e29db577f5b29cb54360",
        "f8f44a7c71620f2a2cb1920a81c276e019b8aa3aa16f27b41ba746de78a6c5fa",
        "67227e2c5d7cfac600bdd28854af5dd2965e18627983aab66fd48c18ed7068e4",
    ),
    "fedpdc_adaptive_scaled_ce": (
        "c69eda0aedf936cf61ea0dafbc1d2d01fa2384f66ebb8110cd81566b1189d54e",
        "eedf24de0a139131f808fe6285e9ad08c4f785cab3528c675e509cec9b9d312e",
        "451593a00acc1824931c3828f9e46041c9e586f8ccb81698a87930ae3030c273",
        "482d019e9817122489e3dab58ca70d3d44081efda2bdf2c4bdce0637c961a228",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_sha256(name, tmp_path):
    run_experiment(ExperimentConfig(**BASE, **CASES[name]), 3, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, EXPECTED[name]))
