"""Every module-level import of a fedsim module is a name the module uses.

The one exception is a name the benchmark tracer wraps in a module's
namespace, which only the tracer reads: its import line ends in
`# noqa: F401` and sits under a `# perfbench/spans.py traces ...` comment,
with only such marked imports in between, and the tracer's SPANS (read from
perfbench/spans.py) wraps that name in that module. So a marked import
goes stale, and fails here, as soon as the tracer stops wrapping it.
`fedsim/__init__.py` imports exactly the names of its `__all__`, each once.

A single-seed synthetic `fedsim run` loads none of the modules that only a
multi-seed summary or a CSV file reads (DEFERRED): each costs resident
memory in every run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsim"
SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
TRACER_COMMENT = "# perfbench/spans.py traces"
MARK = "# noqa: F401"
# statistics, with the decimal and fractions it imports, only for
# sweep_summary.csv; csv only for a CSV dataset or a history file
DEFERRED = ("statistics", "decimal", "fractions", "csv")


def _traced(lines: list[str], lineno: int) -> bool:
    """Whether the import on 1-based line lineno is a marked tracer import."""
    line = lineno - 1
    if not lines[line].endswith(MARK):
        return False
    line -= 1
    while line >= 0 and lines[line].startswith(("from ", "import ")) and lines[line].endswith(MARK):
        line -= 1
    return line >= 0 and lines[line].startswith(TRACER_COMMENT)


def traced_names() -> dict[str, set[str]]:
    """The names perfbench/spans.py's SPANS wraps, by fedsim module file."""
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["SPANS"]
    ]
    names: dict[str, set[str]] = {}
    for module, attr, _span in spans:
        names.setdefault(module.rpartition(".")[2] + ".py", set()).add(attr)
    return names


def unused_imports(source: str, traced: set[str]) -> list[str]:
    """The names source imports at module level and never reads, in import
    order, but for marked tracer imports of names in traced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not (name in traced and _traced(lines, node.lineno)):
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8"), traced_names().get(module, set())) == []


def test_the_package_imports_exactly_its_exports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    (exports,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["__all__"]
    ]
    assert len(set(imported)) == len(imported) and len(set(exports)) == len(exports)
    assert sorted(imported) == sorted(exports)


def test_the_gate_exempts_only_marked_tracer_imports():
    source = (
        "import math\n"
        "import os.path\n"
        "from numpy import array as arr, zeros\n"
        "# perfbench/spans.py traces these names in this module's namespace\n"
        "from .nn import forward  # noqa: F401\n"
        "from .nn import backward  # noqa: F401\n"
        "from .nn import sgd_step\n"
        "from .data import plain_number  # noqa: F401\n"
        "\n"
        "def f(x: arr) -> None:\n"
        "    return os.path.join(x)\n"
    )
    traced = {"forward", "backward", "sgd_step", "plain_number"}
    assert unused_imports(source, traced) == ["math", "zeros", "sgd_step", "plain_number"]


def test_the_gate_exempts_only_imports_the_tracer_wraps():
    # a marked import of a name that SPANS does not wrap in this module is
    # a stale keep-alive; the real SPANS wraps local_train in engine only
    source = (
        "# perfbench/spans.py traces these names in this module's namespace\n"
        "from .nn import forward  # noqa: F401\n"
        "from .nn import Batch  # noqa: F401\n"
    )
    assert unused_imports(source, {"forward"}) == ["Batch"]
    names = traced_names()
    assert "local_train" in names["engine.py"] and "local_train" not in names["runner.py"]


def test_a_single_seed_run_loads_only_what_it_reads(tmp_path):
    # a fresh interpreter that imports only fedsim, as perfbench/child.py
    # does: pytest's own process already holds these modules
    shared = "".join(
        f"{key} = {value}\n"
        for key, value in (("num_classes", 3), ("samples_per_class", 40), ("input_dim", 4), ("hidden", 8),
                           ("server_per_class", 8), ("test_per_class", 8), ("clients", 3),
                           ("local_epochs", 1), ("rounds", 2))
    )
    for name, seeds in (("one", "seed = 1"), ("two", "seeds = 0,1")):
        (tmp_path / f"{name}.txt").write_text(f"{shared}{seeds}\noutput_dir = {tmp_path / name}\n")
    code = (
        "import json, sys\n"
        "from fedsim import cli\n"
        "codes = [cli.main(['run', sys.argv[1]])]\n"
        "loaded = [name for name in sys.argv[3:] if name in sys.modules]\n"
        "codes.append(cli.main(['run', sys.argv[2]]))\n"
        "print(json.dumps([codes, loaded, 'statistics' in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "one.txt"), str(tmp_path / "two.txt"), *DEFERRED],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    codes, loaded, summarized = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0] and loaded == []
    # a multi-seed sweep then loads statistics for its summary and writes it
    assert summarized and (tmp_path / "two" / "sweep_summary.csv").is_file()
