"""Checkpoint and history-CSV fuzz.

A checkpoint with any header variant (another magic, spaces, signs, leading
zeros, underscores, other scripts' digits in `arch=`), a truncated or
padded payload, or NaN/inf bytes either loads as the model saved, bit for
bit, or is a DataError. A run's history (`rounds.csv`, with `manifest.txt`
beside it) with edge cells, missing or extra columns, ragged rows, a BOM,
CRLF line ends or undecodable bytes makes `compare` and `plotdata` exit 0
or a documented code, never with a raw exception or warning (pytest turns
every warning into an error).
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.cli import main
from fedsim.config import ExperimentConfig, config_text
from fedsim.errors import DataError
from fedsim.runner import ROUND_CSV_HEADER

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def width_text(draw, width):
    """(width's text in a header, whether load_model reads it as width)."""
    text = str(width)
    return draw(st.sampled_from([
        (text, True), ("0" + text, True), (" " + text, False), (text + " ", False), ("+" + text, False),
        ("-" + text, False), ("1_" + text, False), (text + ".0", False), ("", False),
        (text.translate(ARABIC_INDIC), False), (text.translate(FULLWIDTH), False),
    ]))


@st.composite
def checkpoints(draw):
    """(saved model, checkpoint bytes, whether they hold that model)."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    arch = nn.ModelArch(tuple(widths))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(nn.param_count(arch))
    model = nn.ParamVector(arch, values)
    cells = [draw(width_text(w)) for w in widths]
    prefix, prefix_ok = draw(st.sampled_from([
        ("fedsim-model v1; arch=", True), ("fedsim-model v2; arch=", False), ("fedsim-model v1;arch=", False),
        ("Fedsim-model v1; arch=", False), (" fedsim-model v1; arch=", False), ("", False),
    ]))
    header = (prefix + ",".join(text for text, _ok in cells)).encode("utf-8")
    payload = bytearray(values.astype("<f8").tobytes())
    payload_ok = True
    change = draw(st.sampled_from(["none", "truncate", "pad", "non_finite"]))
    if change == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
        payload_ok = False
    elif change == "pad":
        payload += bytes(draw(st.integers(1, 9)))
        payload_ok = False
    elif change == "non_finite":
        # NaNs of both signs and other payload bits, and the infinities
        bad = draw(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))
        raw = bytearray(np.array([bad], dtype="<f8").tobytes())
        if bad != bad:
            raw[0] |= draw(st.integers(0, 255))
        at = 8 * draw(st.integers(0, len(payload) // 8 - 1))
        payload[at : at + 8] = raw
        payload_ok = False
    ok = prefix_ok and all(cell_ok for _text, cell_ok in cells) and payload_ok
    return model, header + b"\n" + bytes(payload), ok


@settings(max_examples=150, deadline=None)
@given(checkpoints())
@example((nn.ParamVector(nn.ModelArch((1, 1)), [0.5, 0.25]),
          b"fedsim-model v1; arch=1,\xd9\xa1\n" + np.array([0.5, 0.25]).astype("<f8").tobytes(), False))
def test_a_checkpoint_loads_as_saved_or_is_a_data_error(case):
    model, blob, ok = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(blob)
        if ok:
            loaded = nn.load_model(path)
            assert loaded.arch == model.arch and loaded.values.tobytes() == model.values.tobytes()
        else:
            with pytest.raises(DataError, match="model.bin"):
                nn.load_model(path)


CELLS = st.sampled_from([
    "", "0.5", "1", "0", "1e-3", "-0.0", "nan", "inf", "-inf", "1e400", "0_5", "١", "０.５", " 0.5 ", '"0.5"',
    '"a,b"', "x", "é", "\x00",
])
COLUMNS = ROUND_CSV_HEADER.split(",")


@st.composite
def histories(draw):
    """The bytes of a rounds.csv: its header (all columns, or some dropped,
    added or swapped), rows of edge cells (some ragged), a BOM, CRLF line
    ends, empty lines or bytes that are not UTF-8."""
    header = list(COLUMNS)
    edit = draw(st.sampled_from(["none", "drop", "extra", "swap"]))
    if edit == "drop":
        del header[draw(st.integers(0, len(header) - 1))]
    elif edit == "extra":
        header.append("extra")
    elif edit == "swap":
        header[2], header[3] = header[3], header[2]
    rows = [[str(r), *draw(st.lists(CELLS, min_size=len(header) - 1, max_size=len(header) - 1))]
            for r in range(draw(st.integers(0, 4)))]
    if rows and draw(st.integers(0, 4)) == 0:
        rows[-1].append("ragged")
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    text = newline.join(",".join(row) for row in [header, *rows]) + newline
    blob = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        blob = b"\xef\xbb\xbf" + blob
    if draw(st.integers(0, 7)) == 0:
        blob = blob + b"\xff\n"
    return blob


RUN_CONFIG = config_text(ExperimentConfig(strategy="fedpdc", rounds=3)).encode("utf-8")
TARGETS = st.sampled_from([[], ["--target", "0.5"], ["--target", "nan"], ["--target", "-1"]])
MANIFESTS = st.sampled_from([RUN_CONFIG, RUN_CONFIG + b"rounds = x\n", None])


@settings(max_examples=80, deadline=None)
@given(runs=st.lists(st.tuples(histories(), MANIFESTS), min_size=1, max_size=3), target=TARGETS)
@example(runs=[(b"round\n0\n", RUN_CONFIG)], target=[])
@example(runs=[(b"\xef\xbb\xbf" + ROUND_CSV_HEADER.encode() + b"\n0,1,0.5,0.5,0.5,1:1.0,\n", RUN_CONFIG)],
         target=[])
def test_compare_and_plotdata_exit_with_a_documented_code(runs, target):
    with tempfile.TemporaryDirectory() as tmp:
        run_dirs = []
        for k, (history, manifest) in enumerate(runs):
            run_dir = Path(tmp) / f"run{k}"
            run_dir.mkdir()
            (run_dir / "rounds.csv").write_bytes(history)
            if manifest is not None:
                (run_dir / "manifest.txt").write_bytes(manifest)
            run_dirs.append(str(run_dir))
        # 0 success, 1 I/O or other error, 2 config error, 3 data error;
        # --target nan alone is a usage error, which argparse exits with as 2
        try:
            code = main(["compare", *run_dirs, *target])
        except SystemExit as exited:
            code = exited.code if target == ["--target", "nan"] else None
        assert code in (0, 1, 2, 3)
        assert main(["plotdata", *run_dirs, "--out", str(Path(tmp) / "plot.csv")]) in (0, 1, 2, 3)
