"""Whole runs against the plain-numpy oracle in tests/reference.py.

The oracle is only a second implementation if it shares no arithmetic with
fedsim, so its fedsim imports are pinned to the contracts that fix the
random draws and the data layout. Every run_experiment over a tiny config
must then equal the oracle's run exactly: the round records, the final
model's bytes, the descent records and the gradient ratios.
"""

import ast
import tempfile
from dataclasses import asdict, astuple
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.config import PENALTY_MODES, STRATEGIES, ExperimentConfig
from fedsim.runner import run_experiment
from reference import reference_run

REFERENCE_PY = Path(__file__).with_name("reference.py")

# module -> names the oracle may import from it (None: any name)
ALLOWED_IMPORTS = {
    "fedsim.seeding": None,
    "fedsim.config": None,
    "fedsim.data": {"LabeledDataset", "Partition", "ServerSet", "SyntheticSpec"},
    "fedsim.engine": {"sample_clients"},
    "fedsim.runner": {"build_problem"},
    "fedsim.nn": {"unpack", "ModelArch", "ParamVector"},
}


def disallowed_fedsim_imports(source: str) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [alias.name for alias in node.names if alias.name.split(".")[0] == "fedsim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedsim":
            allowed = ALLOWED_IMPORTS.get(node.module, set())
            bad += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if allowed is not None and alias.name not in allowed
            ]
    return bad


def test_reference_imports_only_the_rng_and_layout_contracts():
    assert disallowed_fedsim_imports(REFERENCE_PY.read_text()) == []


def test_import_guard_rejects_arithmetic_and_whole_modules():
    source = (
        "from fedsim.nn import unpack, loss_and_grad\n"
        "from fedsim import nn\n"
        "import fedsim.diagnostics\n"
        "from fedsim.seeding import stream\n"
    )
    assert disallowed_fedsim_imports(source) == [
        "fedsim.nn.loss_and_grad",
        "fedsim.nn",
        "fedsim.diagnostics",
    ]


CONFIGS = st.builds(
    ExperimentConfig,
    strategy=st.sampled_from(STRATEGIES),
    penalty_mode=st.sampled_from(PENALTY_MODES),
    lam=st.sampled_from([0.0, 0.7, 2.0]),
    mu_prox=st.sampled_from([0.0, 0.3]),
    num_classes=st.integers(2, 4),
    samples_per_class=st.integers(10, 20),
    input_dim=st.integers(1, 5),
    cluster_spread=st.sampled_from([0.5, 1.5]),
    hidden=st.lists(st.integers(1, 6), max_size=2).map(tuple),
    clients=st.integers(1, 5),
    beta=st.sampled_from([0.3, 1.0, 10.0]),
    server_per_class=st.integers(1, 3),
    test_per_class=st.integers(0, 2),
    tau=st.sampled_from([0.3, 0.6, 1.0]),
    local_epochs=st.integers(0, 2),
    batch_size=st.integers(1, 9),
    eta=st.sampled_from([0.0, 0.05, 0.1]),
    momentum=st.sampled_from([0.0, 0.9]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    rounds=st.integers(0, 3),
    seed=st.integers(0, 1000),
    instrument_global_loss=st.booleans(),
    emit_dissimilarity=st.booleans(),
)

SMALL = dict(
    num_classes=3, samples_per_class=14, input_dim=3, hidden=(5,), clients=4, server_per_class=2,
    test_per_class=1, tau=0.6, local_epochs=2, batch_size=4, eta=0.1, rounds=3, seed=2,
)


@settings(max_examples=100, deadline=None)
@given(cfg=CONFIGS)
# partial participation over three rounds, so clients are scored, skipped
# and selected again: each strategy's p, lambda and weights all matter
@example(cfg=ExperimentConfig(strategy="fedpdc_adaptive", penalty_mode="scaled_ce", **SMALL))
@example(cfg=ExperimentConfig(strategy="fedpdc", lam=2.0, emit_dissimilarity=True, **SMALL))
@example(cfg=ExperimentConfig(strategy="fedprox", mu_prox=0.3, instrument_global_loss=True, **SMALL))
def test_run_experiment_equals_the_reference_run(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        result = run_experiment(cfg, cfg.seed, run_dir)
        records, values, descent, ratios = reference_run(cfg, cfg.seed)

        # repr tells every float apart, -0.0 from 0.0 included, and NaN equals NaN
        assert repr([asdict(rec) for rec in result.records]) == repr(records)
        arch = ",".join(map(str, (cfg.input_dim, *cfg.hidden, cfg.num_classes)))
        model_bytes = f"fedsim-model v1; arch={arch}\n".encode() + values.astype("<f8").tobytes()
        assert (run_dir / "final_model.bin").read_bytes() == model_bytes
        got_descent = None if result.descent is None else [astuple(d) for d in result.descent]
        assert repr(got_descent) == repr(descent)
        dissimilarity = run_dir / "dissimilarity.csv"
        if ratios is None:
            assert not dissimilarity.exists()
        else:
            rows = dissimilarity.read_text().splitlines()[1:]
            want = ["" if ratio is None else repr(ratio) for ratio in ratios]
            assert [row.split(",")[1] for row in rows] == want
