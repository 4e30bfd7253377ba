"""Dataset-CSV fuzz: for every CSV that load_csv accepts,
load_csv(save_csv(load_csv(f))) equals load_csv(f) bit for bit, and label
texts that name different integers get different classes (in the
integers' order), whatever their form: signs, leading zeros, exponents,
surrounding whitespace, quoted cells, empty lines, CRLF line ends and
integers beyond 2**53."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.data import load_csv, save_csv

PAD = st.sampled_from(["", " ", "  ", "\t", " \t "])
# around 2**53, where a float stops naming one integer, and the int64 ends
HUGE = st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**62 + 1, 2**63 - 1, -(2**63), -(2**53) - 1])
LABELS = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1) | HUGE


def quoted(draw, cell):
    """cell, or cell in the CSV quotes that the reader strips."""
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def label_cell(draw):
    """(the integer a label names, one accepted text for it)."""
    value = draw(LABELS)
    forms = [str(value), f"{'-' if value < 0 else '+'}0{abs(value)}"]
    if abs(value) < 2**53:
        # float text names the integer exactly below 2**53
        forms += [f"{value}.0", f"{value}e0", f"{value * 10}E-1", f"{value}.000e+00"]
    if value == 0:
        forms += ["-0", "-0.0", "+0e5"]
    return value, quoted(draw, draw(PAD) + draw(st.sampled_from(forms)) + draw(PAD))


@st.composite
def feature_cell(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    forms = [repr(x), format(x, ".17g"), format(x, "+.17G")]
    if abs(x) < 1e300:  # rounding up must not overflow to inf
        forms += [format(x, ".3e"), format(x, "E"), format(x, "f")[:40]]
    text = draw(st.sampled_from(forms) | st.integers(-(10**30), 10**30).map(str))
    return quoted(draw, draw(PAD) + text + draw(PAD))


@st.composite
def csv_rows(draw):
    width = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(label_cell(), st.lists(feature_cell(), min_size=width, max_size=width)),
                         min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(rows=csv_rows(), newline=st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"]), trailing=st.booleans())
@example(
    rows=[((2**53 + 1, "9007199254740993"), ["1"]), ((2**53 - 1, " 9007199254740991.0"), ["2"]),
          ((2**53, "+9007199254740992"), ["3"])],
    newline="\r\n",
    trailing=True,
)
@example(rows=[((0, "-0.0"), ["-0"]), ((0, "+00"), ["-0.0"]), ((-1, "-1e0"), [" 1e308 "])],
         newline="\n", trailing=False)
def test_an_accepted_csv_round_trips_bitwise(rows, newline, trailing):
    text = newline.join(",".join([label, *features]) for (_value, label), features in rows)
    with tempfile.TemporaryDirectory() as tmp:
        source, copy = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        source.write_bytes((text + (newline if trailing else "")).encode("ascii"))
        first = load_csv(source)
        save_csv(first, copy)
        again = load_csv(copy)
    assert again.features.tobytes() == first.features.tobytes()
    assert again.labels.tobytes() == first.labels.tobytes() and again.num_classes == first.num_classes
    values = [value for (value, _label), _features in rows]
    assert first.labels.tolist() == np.searchsorted(np.unique(values), values).tolist()
