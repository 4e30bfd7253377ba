"""A ledger of the kernel's step cache: exact counts per benchmark workload.

Each configuration of each perfbench workload (perfbench/run.py's own
settings) runs in-process at seed 1 for all its rounds, about 1.5 s in
total, counted through wrappers set up here, with no counter in src/:

- binds: nn.TrainPlan steps bound over the run;
- shapes: the distinct segment sizes among them;
- held: the most steps the run's plan holds after any step() call;
- alive: the most bound steps alive at once, the full-batch pass's own
  among them, at any bind.

The counts repeat exactly from run to run. A change that raises one edits
this table and says why; one that lowers one states the saving exactly.
"""

import importlib.util
import sys
import weakref
from pathlib import Path

import pytest

from fedsim import nn
from fedsim.config import parse_config_text
from fedsim.runner import run_experiment

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# per workload, per configuration: (binds, shapes, held, alive). Under a plan
# that kept 32 steps and then forgot them all, many_clients_diag read
# (179, 149, 32, 46): it meets new lock-step shapes every round, and the plan
# now lets go of them a round after their last use
LEDGER = {
    "paper_sweep": [(21, 21, 21, 21), (21, 21, 21, 21)],
    "prox_small_batch": [(25, 25, 25, 25)],
    "many_clients_diag": [(183, 149, 18, 24)],
}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _counted_run(cfg, run_dir, monkeypatch) -> tuple[int, int, int, int]:
    """(binds, shapes, held, alive) of one run of cfg at seed 1."""
    bound: list[tuple[int, ...]] = []
    steps: list[weakref.ref] = []
    most = {"held": 0, "alive": 0}
    bind, step = nn.TrainPlan._bind, nn.TrainPlan.step

    def binding(plan, sizes):
        new = bind(plan, sizes)
        bound.append(sizes)
        steps.append(weakref.ref(new))
        most["alive"] = max(most["alive"], sum(ref() is not None for ref in steps))
        return new

    def stepping(plan, sizes):
        found = step(plan, sizes)
        most["held"] = max(most["held"], len(plan._steps) + len(plan._previous))
        return found

    monkeypatch.setattr(nn.TrainPlan, "_bind", binding)
    monkeypatch.setattr(nn.TrainPlan, "step", stepping)
    try:
        run_experiment(cfg, 1, run_dir)
    finally:
        monkeypatch.undo()
    return len(bound), len(set(bound)), most["held"], most["alive"]


@pytest.mark.parametrize("workload", sorted(LEDGER))
def test_a_workload_binds_and_holds_the_steps_of_its_ledger(workload, tmp_path, monkeypatch):
    bench = _workloads()[workload]
    counts = []
    for k, variant in enumerate(bench.variants):
        settings = {**bench.shared, **variant}
        cfg = parse_config_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        counts.append(_counted_run(cfg, tmp_path / f"run{k}", monkeypatch))
    assert counts == LEDGER[workload]
