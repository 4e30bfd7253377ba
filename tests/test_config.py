import re
from dataclasses import fields
from pathlib import Path

import pytest

from fedsim.config import ExperimentConfig, config_text, parse_config, parse_config_text
from fedsim.errors import ConfigError


class TestDefaults:
    def test_empty_file_yields_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.eta == 0.01
        assert cfg.batch_size == 64
        assert cfg.local_epochs == 10
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-5
        assert cfg.clients == 10
        assert cfg.beta == 0.5
        assert cfg.tau == 1.0
        assert cfg.strategy == "fedavg"
        assert cfg.penalty_mode == "literal"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# a comment\n\nrounds = 3\n")
        assert cfg.rounds == 3


class TestValidation:
    def test_zero_tau_names_key(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config_text("tau = 0\n")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'learning_rate'"):
            parse_config_text("rounds = 5\nlearning_rate = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_type_mismatch_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*'rounds'"):
            parse_config_text("rounds = soon\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    @pytest.mark.parametrize(
        "line",
        [
            "beta = 0",
            "strategy = moon",
            "penalty_mode = other",
            "momentum = 1.0",
            "batch_size = 0",
            "clients = 0",
            "seed = -1",
            "hidden = 64,0",
            "tau = 1.5",
            "rounds = -1",
            "seeds = 0,0",
            "beta = nan",
            "beta = inf",
            "lambda = nan",
            "mu_prox = nan",
            "weight_decay = nan",
            "eta = inf",
            "cluster_spread = inf",
            "lambda = -1",
            "mu_prox = -1",
            "tau = 0",
            "local_epochs = -1",
            "eta = -1",
            "momentum = -0.1",
            "weight_decay = -1",
        ],
    )
    def test_constraints_enforced_at_parse_time(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line + "\n")

    # each value used to get past validation: 2.5 rounds died in training
    # after two artifacts were written, the next three wrote a manifest that
    # reparses to another config, and a seed of 2**64 + 1 ran as seed 1
    @pytest.mark.parametrize(
        "key, value",
        [
            ("rounds", 2.5),
            ("batch_size", True),
            ("hidden", [8]),
            ("instrument_global_loss", "no"),
            ("seed", 2**64 + 1),
            ("seeds", (1, 2**63)),
            ("hidden", (8, 2.0)),
            ("beta", True),
        ],
    )
    def test_values_must_hold_the_field_type(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be of type"):
            ExperimentConfig(**{key: value})

    def test_an_int_float_value_is_held_as_a_float(self):
        cfg = ExperimentConfig(beta=1, eta=0)
        assert (type(cfg.beta), type(cfg.eta)) == (float, float)
        assert config_text(cfg) == config_text(ExperimentConfig(beta=1.0, eta=0.0))

    # int() and float() read each of these: eta 0_1 trained at 1.0, rounds
    # ١٠ ran 10 rounds, hidden 6_4 built 64 units and eta ０.１ read 0.1
    @pytest.mark.parametrize(
        "line", ["eta = 0_1", "rounds = ١٠", "hidden = 6_4", "eta = ０.１", "seeds = 1,٢", "tau = 1e-0_1"]
    )
    def test_numbers_are_plain_ascii_without_underscores(self, line):
        with pytest.raises(ConfigError, match=rf"line 1: bad value for '{line.split()[0]}'"):
            parse_config_text(line + "\n")

    def test_paths_stay_free_text(self):
        cfg = parse_config_text("dataset = data/run_１.csv\noutput_dir = runs/é_1\n")
        assert (cfg.dataset, cfg.output_dir) == ("data/run_１.csv", "runs/é_1")

    @pytest.mark.parametrize("key", ["eta", "lambda"])
    def test_negative_eta_and_lambda_errors_name_the_key(self, key):
        with pytest.raises(ConfigError, match=rf"\b{key}\b.* must be >= 0"):
            parse_config_text(f"{key} = -1\n")


class TestRoundTrip:
    def test_echo_reparses_to_equal_config(self):
        cfg = ExperimentConfig(
            strategy="fedpdc_adaptive",
            lam=2.5,
            tau=0.3,
            hidden=(32, 16),
            seeds=(1, 2, 3),
            cluster_spread=0.6,
            emit_dissimilarity=True,
        )
        assert parse_config_text(config_text(cfg)) == cfg

    def test_every_field_round_trips(self):
        cfg = ExperimentConfig(
            dataset="data/points.csv",
            num_classes=5,
            samples_per_class=30,
            input_dim=3,
            cluster_spread=0.125,
            hidden=(),
            clients=7,
            beta=0.1,
            server_per_class=4,
            test_per_class=0,
            strategy="fedpdc_adaptive",
            lam=0.3,
            mu_prox=0.2,
            penalty_mode="scaled_ce",
            tau=0.5,
            local_epochs=2,
            batch_size=8,
            eta=0.1,
            momentum=0.5,
            weight_decay=0.0,
            rounds=0,
            seed=3,
            seeds=(4, 1),
            output_dir="out dir",
            instrument_global_loss=True,
            emit_dissimilarity=True,
        )
        unchanged = [f.name for f in fields(cfg) if getattr(cfg, f.name) == f.default]
        assert unchanged == []
        assert parse_config_text(config_text(cfg)) == cfg

    def test_key_value_layout(self):
        text = config_text(ExperimentConfig())
        assert "eta = 0.01" in text
        assert "instrument_global_loss = false" in text
        assert "hidden = 64" in text


def test_seeds_list_falls_back_to_seed():
    assert ExperimentConfig(seed=4).seeds_list() == (4,)
    assert ExperimentConfig(seeds=(7, 8)).seeds_list() == (7, 8)


def test_readme_table_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {}
    for row in re.findall(r"^\| (`.+?) \| (.+?) \|", readme, flags=re.M):
        keys = [k.strip("` ") for k in row[0].split(",")]
        defaults = [d.strip("` ") for d in row[1].split(",")]
        assert len(keys) == len(defaults), row
        documented.update(zip(keys, ("" if d == "empty" else d for d in defaults)))
    emitted = dict(line.split(" = ") for line in config_text(ExperimentConfig()).splitlines())
    assert documented == emitted
