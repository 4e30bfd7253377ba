"""The benchmark tracer patches fedsim names by (module, attribute) and counts
work at their call boundaries; a change in fedsim that breaks either must
fail here, not inside a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fedsim  # noqa: F401  (SPANS must resolve once the package is imported)

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "perfbench" / "spans.py"
CHILD_PY = ROOT / "perfbench" / "child.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _name in spans.SPANS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_sample_count_equals_rounds_csv(tmp_path):
    """The tracer counts local-training samples at each per-client
    engine.local_train call; perfbench/run.py --trace 1 checks that count
    against rounds.csv and partition.txt, as this test does on two tiny runs.
    It counts scored rows at each engine.evaluate_accuracy call: per round,
    the new global model on the server set (3 classes x 4 rows) and on the
    test set (3 x 4), and each selected local model on the server set only
    when the scores are read: fedpdc weighs by them, fedprox does not."""
    configs = []
    for strategy in ("fedprox", "fedpdc"):
        config = tmp_path / f"{strategy}.cfg"
        config.write_text(
            "num_classes = 3\nsamples_per_class = 30\ninput_dim = 4\nhidden = 8\n"
            "clients = 5\ntau = 0.6\nbeta = 0.5\nserver_per_class = 4\ntest_per_class = 4\n"
            f"strategy = {strategy}\nlocal_epochs = 3\nbatch_size = 8\nrounds = 3\nseed = 1\n"
            f"output_dir = {tmp_path / strategy}\n"
        )
        configs.append(str(config))
    result = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(CHILD_PY), "trace", str(result), *configs],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["exit_codes"] == [0, 0]
    counters = json.loads(Path(f"{result}.spans").read_text())["counters"]

    samples = scored = 0
    server_rows, test_rows = 3 * 4, 3 * 4
    for strategy in ("fedprox", "fedpdc"):
        run_dir = tmp_path / strategy / f"{strategy}-seed1"
        sizes = {}
        for line in (run_dir / "partition.txt").read_text().splitlines():
            cid, _, idxs = line.partition(":")
            sizes[int(cid)] = len(idxs.split(","))
        rows = [line.split(",") for line in (run_dir / "rounds.csv").read_text().splitlines()[1:]]
        selected = [[int(cid) for cid in row[1].split(";")] for row in rows]
        assert len(rows) == 3 and sum(map(len, selected)) == 3 * 3
        samples += sum(3 * sizes[cid] for cids in selected for cid in cids)
        locals_scored = strategy == "fedpdc"
        scored += sum((len(cids) if locals_scored else 0) * server_rows + server_rows + test_rows for cids in selected)
    assert counters["engine.local_train.samples"] == samples
    assert counters["nn.score.rows"] == scored
