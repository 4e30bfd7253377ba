"""In-memory span tracer that wraps fedsim's public functions from outside.

Each wrapper is installed in the namespace of the module that *calls* the
function, so one function gets a different span name per caller: the
`backward` that `fedsim.engine` calls during local training is
`nn.train.backward`, while the one `fedsim.diagnostics` calls on a whole
client dataset is `nn.full.backward`. No file of the program changes.

A span is `[name_id, start, end, parent]` with `perf_counter` seconds and
`parent` the index of the enclosing span (-1 at top level). Spans stay in
memory until `dump` writes them out after the run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter

# (module whose namespace is patched, attribute, span name)
SPANS = (
    ("fedsim.cli", "main", "cli.main"),
    ("fedsim.cli", "parse_config", "config.parse_config"),
    ("fedsim.cli", "run_sweep", "runner.run_sweep"),
    ("fedsim.runner", "run_experiment", "runner.run_experiment"),
    ("fedsim.runner", "build_problem", "runner.build_problem"),
    ("fedsim.runner", "generate_synthetic", "data.generate_synthetic"),
    ("fedsim.runner", "build_server_set", "data.build_server_set"),
    ("fedsim.runner", "dirichlet_partition", "data.dirichlet_partition"),
    ("fedsim.runner", "write_config", "runner.artifacts"),
    ("fedsim.runner", "write_partition_manifest", "runner.artifacts"),
    ("fedsim.runner", "_write_rounds_csv", "runner.artifacts"),
    ("fedsim.runner", "save_model", "runner.artifacts"),
    ("fedsim.runner", "_write_diagnostics_csv", "runner.artifacts"),
    ("fedsim.runner", "run_round", "engine.run_round"),
    ("fedsim.runner", "gradient_dissimilarity", "diagnostics.gradient_dissimilarity"),
    ("fedsim.engine", "global_objective", "diagnostics.global_objective"),
    ("fedsim.engine", "sample_clients", "engine.sample_clients"),
    ("fedsim.engine", "local_train", "engine.local_train"),
    ("fedsim.engine", "local_loss", "engine.local_loss"),
    ("fedsim.engine", "_combine", "engine.aggregate"),
    ("fedsim.engine", "fedavg_weights", "engine.aggregate"),
    ("fedsim.engine", "fedpdc_weights", "engine.aggregate"),
    ("fedsim.engine", "evaluate_accuracy", "nn.score.evaluate_accuracy"),
    ("fedsim.engine", "Batch", "nn.train.batch"),
    ("fedsim.engine", "forward", "nn.train.forward"),
    ("fedsim.engine", "cross_entropy", "nn.train.cross_entropy"),
    ("fedsim.engine", "backward", "nn.train.backward"),
    ("fedsim.engine", "sgd_step", "nn.train.sgd_step"),
    ("fedsim.diagnostics", "Batch", "nn.full.batch"),
    ("fedsim.diagnostics", "forward", "nn.full.forward"),
    ("fedsim.diagnostics", "cross_entropy", "nn.full.cross_entropy"),
    ("fedsim.diagnostics", "backward", "nn.full.backward"),
)


class Tracer:
    """Records spans and work counts for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._distinct_grads: set = set()
        self._run_index = 0
        self._hooks = {
            "runner.run_experiment": self._on_run_experiment,
            "engine.local_train": self._on_local_train,
            "nn.train.backward": self._on_train_backward,
            "nn.score.evaluate_accuracy": self._on_evaluate_accuracy,
            "diagnostics.global_objective": self._on_client_grads,
            "diagnostics.gradient_dissimilarity": self._on_client_grads,
        }

    # -- counters taken from the call arguments, at the span boundary --------

    def _on_run_experiment(self, args) -> None:
        self._run_index += 1

    def _on_local_train(self, args) -> None:
        client, train = args[0], args[3]
        self.counters["engine.local_train.samples"] += len(client.data) * train.local_epochs

    def _on_train_backward(self, args) -> None:
        self.counters["nn.train.rows"] += args[1].features.shape[0]

    def _on_evaluate_accuracy(self, args) -> None:
        self.counters["nn.score.rows"] += len(args[1])

    def _on_client_grads(self, args) -> None:
        # one full-batch gradient per client at this model; a repeat of an
        # earlier (run, model bytes, client) triple is recomputed work
        model, datasets = args[0], args[1]
        digest = hashlib.blake2b(model.values.tobytes(), digest_size=16).digest()
        self.counters["diagnostics.client_grads"] += len(datasets)
        self._distinct_grads.update((self._run_index, digest, k) for k in range(len(datasets)))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in SPANS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), span_name))
        seeding = importlib.import_module("fedsim.seeding")
        stream = seeding.stream
        counted = self._count_streams(stream, seeding.TAG_PARTITION)
        for name, module in list(sys.modules.items()):
            if name.startswith("fedsim.") and getattr(module, "stream", None) is stream:
                setattr(module, "stream", counted)

    def _count_streams(self, stream, partition_tag: int):
        counters = self.counters

        def counted(*key):
            counters["seeding.stream.calls"] += 1
            if key and key[0] == partition_tag:
                counters["data.partition_attempts"] += 1
            return stream(*key)

        return counted

    def wrap(self, fn, span_name: str):
        """fn wrapped in a span named span_name."""
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        hook = self._hooks.get(span_name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        counters = dict(self.counters)
        counters["diagnostics.distinct_client_grads"] = len(self._distinct_grads)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": counters}, fh)
