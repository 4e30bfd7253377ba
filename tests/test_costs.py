"""A ledger of the kernel's work: exact counts per benchmark workload.

Each configuration of each perfbench workload (perfbench/run.py's own
settings) runs in-process at seed 1 for all its rounds, about 1.5 s in
total, once per module, counted through wrappers set up here, with no
counter in src/. The step cache:

- binds: nn.TrainPlan steps bound over the run;
- shapes: the distinct segment sizes among them;
- held: the most steps the run's plan holds after any step() call;
- alive: the most bound steps alive at once, the full-batch pass's own
  among them, at any bind.

The work, per caller of a bound step (engine.train_cohort, the full-batch
pass diagnostics.FullBatchPass, scoring nn.evaluate_accuracy):

- steps: calls of a bound step;
- numpy: numpy calls those steps ran, each the length of the step's forward
  call list, plus its loss and backward lists when given labels;
- loads: nn.TrainPlan.load calls, each copying a model into the plan's lanes;

and over the run:

- scores: engine.evaluate_accuracy calls;
- vectors: nn.ParamVector constructions;
- streams: seeding.stream calls by tag.

Apart from those counts, one run of each configuration stops after its
warm round WARM_ROUND and reads the tracemalloc peak of that round alone,
taken through a wrapper of runner.run_round, with nothing else wrapped,
all in one fresh interpreter (about 0.5 s more).

The counts repeat exactly from run to run. A change that raises one edits
this table and says why; one that lowers one states the saving exactly.
"""

import gc
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from fedsim import data, engine, nn, runner, seeding
from fedsim.config import parse_config_text
from fedsim.runner import run_experiment

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
CALLERS = {"train_cohort": "cohort", "FullBatchPass.__call__": "pass", "evaluate_accuracy": "score"}
TAGS = {value: name[4:].lower() for name, value in vars(seeding).items() if name.startswith("TAG_")}

# per workload, per configuration: (binds, shapes, held, alive). Under a plan
# that kept 32 steps and then forgot them all, many_clients_diag read
# (179, 149, 32, 46): it meets new lock-step shapes every round, and the plan
# now lets go of them a round after their last use
LEDGER = {
    "paper_sweep": [(21, 21, 21, 21), (21, 21, 21, 21)],
    "prox_small_batch": [(25, 25, 25, 25)],
    "many_clients_diag": [(183, 149, 18, 24)],
}
# per workload, per configuration: steps and numpy calls by caller, then
# scores, vectors and streams by tag. A round scores the new global model on
# the server and test sets, and fedpdc each local model first; it builds a
# vector for the new global model and one per scored local model. seed 1
# retries its partition (ROADMAP item 4) on the ten-client workloads. A round
# that selects every client (tau = 1) draws no sample stream
WORK = {
    "paper_sweep": [
        ({"cohort": 1250, "pass": 52, "score": 50}, {"cohort": 72050, "pass": 4212, "score": 350}, 50, 26,
         {"synth": 1, "split": 2, "partition": 2, "init": 1, "local": 25}),
        ({"cohort": 1250, "pass": 52, "score": 300}, {"cohort": 72050, "pass": 4212, "score": 2100}, 300, 276,
         {"synth": 1, "split": 2, "partition": 2, "init": 1, "local": 25}),
    ],
    "prox_small_batch": [
        ({"cohort": 3300, "score": 100}, {"cohort": 120950, "score": 700}, 100, 51,
         {"synth": 1, "split": 2, "partition": 2, "init": 1, "local": 50}),
    ],
    "many_clients_diag": [
        ({"cohort": 176, "pass": 854, "score": 720}, {"cohort": 12263, "pass": 88633, "score": 5040}, 720, 661,
         {"synth": 1, "split": 2, "partition": 1, "init": 1, "sample": 60, "local": 60}),
    ],
}
# per workload, per configuration: plan loads by caller. A round's cohort
# loads the global model into all its lanes at once, a pass loads each model
# it measures (every round's and the final one), and a score loads its model
LOADS = {
    "paper_sweep": [{"cohort": 25, "pass": 26, "score": 50}, {"cohort": 25, "pass": 26, "score": 300}],
    "prox_small_batch": [{"cohort": 50, "score": 100}],
    "many_clients_diag": [{"cohort": 60, "pass": 61, "score": 720}],
}
# per workload, per configuration: the tracemalloc peak in bytes of round
# WARM_ROUND (0-based), in one fresh interpreter (measured_peaks). A cohort
# without a proximal term allocates no difference lanes (128,640 B at 10
# lanes of 1,608 parameters)
WARM_ROUND = 3
WARM_PEAK = {
    "paper_sweep": [687551, 687791],
    "prox_small_batch": [766095],
    "many_clients_diag": [466888],
}


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _counted_run(cfg, run_dir) -> tuple[tuple, tuple, dict]:
    """The step-cache entries, the work entries and the plan loads of one
    run of cfg at seed 1."""
    bound: list[tuple[int, ...]] = []
    steps: list[weakref.ref] = []
    most = {"held": 0, "alive": 0}
    calls, numpy_calls, loads, tags = Counter(), Counter(), Counter(), Counter()
    scores, vectors = [0], [0]
    bind, step, load = nn.TrainPlan._bind, nn.TrainPlan.step, nn.TrainPlan.load
    post_init = nn.ParamVector.__post_init__
    evaluate, stream = engine.evaluate_accuracy, seeding.stream

    def binding(plan, sizes):
        new = bind(plan, sizes)
        lists = inspect.getclosurevars(new).nonlocals
        forward, labeled = len(lists["forward"]), len(lists["loss"]) + len(lists["backward"])

        def counted(labels):
            caller = CALLERS[sys._getframe(1).f_code.co_qualname]
            calls[caller] += 1
            numpy_calls[caller] += forward if labels is None else forward + labeled
            return new(labels)

        bound.append(sizes)
        steps.append(weakref.ref(counted))
        most["alive"] = max(most["alive"], sum(ref() is not None for ref in steps))
        return counted

    def stepping(plan, sizes):
        found = step(plan, sizes)
        most["held"] = max(most["held"], len(plan._steps) + len(plan._previous))
        return found

    def loading(plan, *args):
        loads[CALLERS[sys._getframe(1).f_code.co_qualname]] += 1
        return load(plan, *args)

    def scoring(*args):
        scores[0] += 1
        return evaluate(*args)

    def building(vector):
        vectors[0] += 1
        post_init(vector)

    def drawing(*key):
        tags[TAGS[key[0]]] += 1
        return stream(*key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn.TrainPlan, "_bind", binding)
        patch.setattr(nn.TrainPlan, "step", stepping)
        patch.setattr(nn.TrainPlan, "load", loading)
        patch.setattr(nn.ParamVector, "__post_init__", building)
        patch.setattr(engine, "evaluate_accuracy", scoring)
        for module in (data, engine, nn):
            patch.setattr(module, "stream", drawing)
        run_experiment(cfg, 1, run_dir)
    cache = (len(bound), len(set(bound)), most["held"], most["alive"])
    return cache, (dict(calls), dict(numpy_calls), scores[0], vectors[0], dict(tags)), dict(loads)


class _Stop(Exception):
    """Ends a run once its warm round is measured."""


def _warm_peak(cfg, run_dir) -> int:
    """The tracemalloc peak of round WARM_ROUND of a run of cfg at seed 1."""
    rounds, peak, run_round = [0], [0], runner.run_round

    def measured(*args, **kwargs):
        if rounds[0] < WARM_ROUND:
            rounds[0] += 1
            return run_round(*args, **kwargs)
        gc.collect()
        tracemalloc.start()
        try:
            run_round(*args, **kwargs)
            peak[0] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_round", measured)
        with pytest.raises(_Stop):
            run_experiment(cfg, 1, run_dir)
    return peak[0]


def _configs(workload: str) -> list:
    """The workload's configurations, as perfbench/run.py merges them."""
    bench = _workloads()[workload]
    settings = [{**bench.shared, **variant} for variant in bench.variants]
    return [parse_config_text("".join(f"{key} = {value}\n" for key, value in s.items())) for s in settings]


def warm_peaks(root) -> dict:
    """WARM_PEAK as measured, every configuration in turn under root."""
    return {
        workload: [_warm_peak(cfg, Path(root) / f"{workload}-{k}") for k, cfg in enumerate(_configs(workload))]
        for workload in sorted(WARM_PEAK)
    }


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """The counted runs of a workload, by name, each made once per module."""
    runs: dict[str, list] = {}

    def counted(workload: str) -> list:
        if workload not in runs:
            runs[workload] = [_counted_run(cfg, tmp_path_factory.mktemp(workload)) for cfg in _configs(workload)]
        return runs[workload]

    return counted


@pytest.fixture(scope="module")
def measured_peaks(tmp_path_factory) -> dict:
    """warm_peaks in a fresh interpreter: numpy keeps freed small buffers and
    shape arrays for reuse, so in a process that ran other work first the
    same round reads a few hundred bytes apart (256 B after test_diagnostics)."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    code = "import json, sys, test_costs; print(json.dumps(test_costs.warm_peaks(sys.argv[1])))"
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path_factory.mktemp("peaks"))],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", sorted(LEDGER))
def test_a_workload_binds_and_holds_the_steps_of_its_ledger(workload, ledger):
    assert [cache for cache, _work, _loads in ledger(workload)] == LEDGER[workload]


@pytest.mark.parametrize("workload", sorted(WORK))
def test_a_workload_does_the_work_of_its_ledger(workload, ledger):
    assert [work for _cache, work, _loads in ledger(workload)] == WORK[workload]


@pytest.mark.parametrize("workload", sorted(LOADS))
def test_a_workload_loads_its_plan_as_its_ledger(workload, ledger):
    assert [loads for _cache, _work, loads in ledger(workload)] == LOADS[workload]


@pytest.mark.parametrize("workload", sorted(WARM_PEAK))
def test_a_warm_round_allocates_its_ledger_peak(workload, measured_peaks):
    assert measured_peaks[workload] == WARM_PEAK[workload]
