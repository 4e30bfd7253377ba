"""Dataset fuzz through the CLI: `fedsim run` on a config whose `dataset`
is a CSV of valid rows, some of them carrying a rejected cell (an
underscore, another script's digits, nan or inf, a missing or extra cell),
in any mix of quoted cells and LF or CRLF line ends. The run exits 0, or 3
with a message naming the first rejected row; no raw exception or warning
escapes; a refused dataset leaves no run directory behind; and label texts
that name different integers train as different classes."""

import tempfile
import warnings
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.cli import main

# a label value's accepted texts, and features that load_csv reads
LABEL_FORMS = ("{v}", "{sign}0{size}", "{v}.0", "{v}e0", " {v} ", '"{v}"')
FEATURES = ("0.5", "-1", ".25", "1e-1", " 2 ", '"-0.75"', "3.0E0")
# cells that int() or float() read but load_csv refuses
BAD_LABELS = ("1_0", "١", "nan", "inf", "1.5", '"2_0"')
BAD_FEATURES = ("1_5", "２", "nan", "-inf", "٠.٥", '"inf"')
REPEATS = 3  # rows per label value: a server row per class leaves two to train on


@st.composite
def datasets(draw):
    """(CSV text, the label integers it names, the first rejected row or None)."""
    values = draw(st.lists(st.integers(-3, 12), min_size=1, max_size=3, unique=True))
    width = draw(st.integers(1, 3))
    rows = []
    for value in values * REPEATS:
        label = draw(st.sampled_from(LABEL_FORMS)).format(v=value, sign="-+"[value >= 0], size=abs(value))
        rows.append([label, *draw(st.lists(st.sampled_from(FEATURES), min_size=width, max_size=width))])
    rows = draw(st.permutations(rows))
    # at most one fault a row (a cell dropped and one added would cancel),
    # and none in row 1: a row-1 width change shows in row 2
    faults = draw(st.lists(
        st.tuples(st.integers(1, len(rows) - 1), st.sampled_from(["label", "feature", "short", "long"])),
        max_size=2, unique_by=lambda fault: fault[0],
    ))
    for index, kind in faults:
        row = rows[index]
        if kind == "label":
            row[0] = draw(st.sampled_from(BAD_LABELS))
        elif kind == "feature":
            row[draw(st.integers(1, width))] = draw(st.sampled_from(BAD_FEATURES))
        elif kind == "short":
            del row[-1]
        else:
            row.append("0.5")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    first_bad = min((index + 1 for index, _kind in faults), default=None)
    return end.join(",".join(row) for row in rows) + end, set(values), first_bad


RUN = "hidden = 3\nclients = 1\nserver_per_class = 1\ntest_per_class = 0\nlocal_epochs = 1\nbatch_size = 4\nrounds = 1\n"


@settings(max_examples=60, deadline=None)
@given(datasets())
@example(("0,1\n١,2\n0,3\n١,4\n0,5\n١,6\n", {0}, 2))
@example(("1,0.5\r\n1_0,1_5\r\n1,2\r\n", {1}, 2))
@example(('"1",0.5\n+01,1\n1.0,"2"\n10,-1\n1e1,1\n"10",3\n', {1, 10}, None))
def test_a_dataset_run_exits_0_or_names_the_row(dataset):
    text, values, first_bad = dataset
    with tempfile.TemporaryDirectory() as tmp:
        csv, config, out = Path(tmp) / "data.csv", Path(tmp) / "run.cfg", Path(tmp) / "runs"
        csv.write_bytes(text.encode("utf-8"))
        config.write_text(RUN + f"dataset = {csv}\noutput_dir = {out}\n", encoding="utf-8")
        stderr = StringIO()
        # scoped to the run so Hypothesis' own reporting is unaffected
        with warnings.catch_warnings(), redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["run", str(config)])
        if first_bad is not None:
            assert code == 3, stderr.getvalue()
            assert f"row {first_bad} " in stderr.getvalue()
            assert not out.exists()
            return
        assert code == 0, stderr.getvalue()
        header = (out / "fedavg-seed0" / "final_model.bin").read_bytes().split(b"\n", 1)[0]
        # one output per class, and a class per distinct integer
        assert int(header.rsplit(b",", 1)[1]) == len(values)
