"""Config-space fuzz: every small config, valid or not, ends `fedsim run`
with a documented exit code (0 ok, 2 config, 3 data, 4 divergence) and
never with an uncaught exception or a numpy warning; number text that is
not plain ASCII is a config error."""

import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.cli import main

# number text that int() and float() read but a config must not (an
# underscore, other scripts' digits): a config holding one exits 2
UNREADABLE = {"eta": ["0_1", "０.１"], "rounds": ["١٠"], "hidden": ["6_4"]}
CONFIGS = st.fixed_dictionaries(
    {
        "strategy": st.sampled_from(["fedavg", "fedprox", "fedpdc", "fedpdc_adaptive"]),
        "penalty_mode": st.sampled_from(["literal", "scaled_ce"]),
        "num_classes": st.integers(1, 3),
        "samples_per_class": st.integers(3, 16),
        "input_dim": st.integers(1, 3),
        "cluster_spread": st.floats(0.0, 2.0),
        "hidden": st.sampled_from(["4", "3,2", *UNREADABLE["hidden"]]),
        "clients": st.integers(1, 4),
        "beta": st.floats(1e-3, 1e3),
        "server_per_class": st.integers(1, 3),
        "test_per_class": st.integers(0, 2),
        "lambda": st.floats(0.0, 5.0),
        "mu_prox": st.floats(0.0, 1.0),
        "tau": st.floats(0.05, 1.0),
        "local_epochs": st.integers(0, 2),
        "batch_size": st.integers(1, 8),
        "eta": st.one_of(st.floats(0.0, 0.5), st.just(1e150), st.sampled_from(UNREADABLE["eta"])),
        "momentum": st.sampled_from([0.0, 0.5, 0.9]),
        "weight_decay": st.floats(0.0, 1e-2),
        "rounds": st.one_of(st.integers(0, 2), st.sampled_from(UNREADABLE["rounds"])),
        "seeds": st.sampled_from(["", "1", "1,2", "0,3,5"]),
        "instrument_global_loss": st.sampled_from(["true", "false"]),
        "emit_dissimilarity": st.sampled_from(["true", "false"]),
    }
)
FLOAT_KEYS = ["cluster_spread", "beta", "lambda", "mu_prox", "tau", "eta", "weight_decay"]
# at most one float key set to a non-finite value, so most configs are valid
POISON = st.one_of(
    st.none(),
    st.sampled_from([(key, v) for key in FLOAT_KEYS for v in (math.nan, math.inf, -math.inf)]),
)
# a small valid config that trains, for the pinned cases below
BASE = dict(
    num_classes=2, samples_per_class=12, input_dim=2, hidden="4", clients=2,
    server_per_class=2, test_per_class=2, local_epochs=1, batch_size=4, rounds=2,
)


@settings(max_examples=60, deadline=None)
@given(CONFIGS, POISON)
# multi-seed sweeps whose final test accuracy is NaN (no test set / no round)
@example({**BASE, "seeds": "1,2", "test_per_class": 0}, None)
@example({**BASE, "seeds": "1,2", "rounds": 0}, None)
# non-finite floats that reach partitioning or training unless rejected
@example(BASE, ("beta", math.nan))
@example(BASE, ("beta", math.inf))
@example({**BASE, "strategy": "fedpdc"}, ("lambda", math.nan))
@example({**BASE, "strategy": "fedprox"}, ("mu_prox", math.nan))
@example(BASE, ("weight_decay", math.nan))
@example(BASE, ("eta", "0_1"))
@example(BASE, ("rounds", "١٠"))
def test_any_config_exits_with_a_documented_code(values, poison):
    if poison is not None:
        values = {**values, poison[0]: poison[1]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        lines = [f"{key} = {value}" for key, value in values.items()]
        lines.append(f"output_dir = {Path(tmp) / 'runs'}")
        path.write_text("\n".join(lines) + "\n")
        # scoped to the run so Hypothesis' own reporting is unaffected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(path)])
    unreadable = any(str(values.get(key)) in cells for key, cells in UNREADABLE.items())
    assert code == 2 if unreadable else code in (0, 2, 3, 4)
