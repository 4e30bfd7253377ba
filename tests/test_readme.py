"""README's Python examples run as written, and its export list is the API.

Every ```python block of README.md is executed on its own, in a fresh
namespace and a temporary working directory, so the relative paths an
example writes (runs/demo, ...) land there. The bullet list that opens
"Library use" names exactly `fedsim.__all__`, and the kernel's names appear
only in the paragraph after it, which points to the module docstrings.
"""

import re
from pathlib import Path

import pytest

import fedsim

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
LIBRARY = TEXT[TEXT.index("## Library use\n") :].split("\n\n")
KERNEL = ("TrainPlan", "train_cohort", "FullBatchPass", "COLUMN_MAX_ROWS", "MAX_BOUND_STEPS", "dot_for")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__main__"})


def test_readme_lists_what_fedsim_exports():
    # the paragraphs after the heading: the lead-in, the list, the pointer
    lead, listed, pointer = LIBRARY[1:4]
    assert "`fedsim.__all__`" in lead
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == len(set(names)) == 30
    assert sorted(names) == sorted(fedsim.__all__)
    kernel = [name for name in KERNEL if re.search(rf"\b{name}\b", TEXT)]
    assert kernel == list(KERNEL) and all(TEXT.count(name) == pointer.count(name) for name in KERNEL)
