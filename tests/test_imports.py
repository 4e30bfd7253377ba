"""Every module-level import of a fedsim module is a name the module uses.

The one exception is a name the benchmark tracer wraps in a module's
namespace, which only the tracer reads: its import line ends in
`# noqa: F401` and sits under a `# perfbench/spans.py traces ...` comment,
with only such marked imports in between. `fedsim/__init__.py` re-exports
what it imports and is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsim"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
TRACER_COMMENT = "# perfbench/spans.py traces"
MARK = "# noqa: F401"


def _traced(lines: list[str], lineno: int) -> bool:
    """Whether the import on 1-based line lineno is a marked tracer import."""
    line = lineno - 1
    if not lines[line].endswith(MARK):
        return False
    line -= 1
    while line >= 0 and lines[line].startswith(("from ", "import ")) and lines[line].endswith(MARK):
        line -= 1
    return line >= 0 and lines[line].startswith(TRACER_COMMENT)


def unused_imports(source: str) -> list[str]:
    """The names source imports at module level and never reads, tracer
    imports aside, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not _traced(lines, node.lineno):
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


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
    assert unused_imports(source) == ["math", "zeros", "sgd_step", "plain_number"]
