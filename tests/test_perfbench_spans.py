"""The benchmark tracer patches fedsim names by (module, attribute); a rename
in fedsim must fail here, not inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import fedsim  # noqa: F401  (SPANS must resolve once the package is imported)

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
