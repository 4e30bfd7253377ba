import re
from pathlib import Path

import numpy as np
import pytest

from fedsim import cli, diagnostics, engine, errors, nn
from fedsim.cli import main
from fedsim.config import ExperimentConfig, config_text, parse_config
from fedsim.diagnostics import read_history_csv
from fedsim.engine import RoundRecord
from fedsim.errors import ConfigError
from fedsim.runner import (
    ROUND_CSV_HEADER,
    _write_dissimilarity_csv,
    build_problem,
    run_experiment,
    run_sweep,
)

QUICK = dict(
    num_classes=3,
    samples_per_class=60,
    input_dim=4,
    cluster_spread=0.4,
    hidden=(8,),
    clients=4,
    server_per_class=8,
    test_per_class=8,
    local_epochs=2,
    batch_size=16,
    rounds=4,
)


def quick_cfg(**overrides):
    merged = {**QUICK, **overrides}
    return ExperimentConfig(**merged)


class TestBuildProblem:
    def test_splits_are_disjoint_and_balanced(self):
        cfg = quick_cfg()
        problem = build_problem(cfg, seed=0)
        server_set = problem.server.server_set
        total = len(server_set) + len(problem.test_set) + len(problem.train_pool)
        assert total == cfg.num_classes * cfg.samples_per_class
        assert np.all(server_set.data.class_histogram() == 8)
        assert sum(len(c.data) for c in problem.clients) == len(problem.train_pool)

    def test_strategy_does_not_affect_data_or_init(self):
        a = build_problem(quick_cfg(strategy="fedavg"), seed=3)
        b = build_problem(quick_cfg(strategy="fedpdc"), seed=3)
        assert np.array_equal(a.server.model.values, b.server.model.values)
        assert a.partition == b.partition


class TestRunExperiment:
    def test_zero_rounds_writes_header_only_and_initial_model(self, tmp_path):
        cfg = quick_cfg(rounds=0)
        res = run_experiment(cfg, 1, tmp_path / "r")
        assert (tmp_path / "r" / "rounds.csv").read_text() == ROUND_CSV_HEADER + "\n"
        saved = nn.load_model(tmp_path / "r" / "final_model.bin")
        init = nn.init_model(saved.arch, 1)
        assert np.array_equal(saved.values, init.values)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = quick_cfg(strategy="fedpdc", instrument_global_loss=True, emit_dissimilarity=True)
        run_experiment(cfg, 2, tmp_path / "a")
        run_experiment(cfg, 2, tmp_path / "b")
        for name in ("rounds.csv", "final_model.bin", "partition.txt", "diagnostics.csv", "dissimilarity.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_instrumentation_fields(self, tmp_path):
        res = run_experiment(quick_cfg(eta=0.0, instrument_global_loss=True), 0, tmp_path / "r")
        assert len(res.descent) == 4
        # lr = 0: the model cannot move, so every round sees the same objective
        assert len({d.loss_before for d in res.descent} | {d.loss_after for d in res.descent}) == 1
        assert all(d.grad_sqnorm > 0 and d.lambda_hat == 0.0 for d in res.descent)

    @pytest.mark.parametrize(
        "instrument, dissimilarity, passes",
        [(True, True, 5), (True, False, 5), (False, True, 4), (False, False, 0)],
    )
    def test_one_full_batch_pass_per_round(self, tmp_path, monkeypatch, instrument, dissimilarity, passes):
        # 4 rounds: one pass per round when a diagnostic is on, one more for
        # the final loss; every pass visits every client row once
        rows_seen = []
        call = diagnostics.FullBatchPass.__call__

        def counting(plan, model):
            rows_seen.extend(tuple(row) for dataset in plan.datasets for row in dataset.features)
            return call(plan, model)

        monkeypatch.setattr(diagnostics.FullBatchPass, "__call__", counting)
        cfg = quick_cfg(instrument_global_loss=instrument, emit_dissimilarity=dissimilarity)
        run_experiment(cfg, 0, tmp_path / "r")
        client_rows = [tuple(row) for c in build_problem(cfg, 0).clients for row in c.data.features]
        assert sorted(rows_seen) == sorted(client_rows * passes)

    def test_manifest_reparses_to_the_run_config(self, tmp_path):
        cfg = quick_cfg(seeds=(5, 6))
        run_experiment(cfg, 5, tmp_path / "r")
        manifest = parse_config(tmp_path / "r" / "manifest.txt")
        assert manifest == cfg.for_seed(5)

    def test_round_csv_schema_and_weights(self, tmp_path):
        res = run_experiment(quick_cfg(strategy="fedpdc"), 0, tmp_path / "r")
        rows = read_history_csv(tmp_path / "r" / "rounds.csv")
        assert list(rows[0].keys()) == ROUND_CSV_HEADER.split(",")
        assert [int(r["round"]) for r in rows] == list(range(4))
        for row in rows:
            weights = [float(tok.split(":")[1]) for tok in row["agg_weights"].split(";")]
            assert abs(sum(weights) - 1.0) < 1e-12
            assert 0.0 <= float(row["global_acc_server"]) <= 1.0

    def test_easy_near_iid_task_reaches_high_accuracy(self, tmp_path):
        cfg = ExperimentConfig(
            strategy="fedavg",
            num_classes=2,
            samples_per_class=120,
            input_dim=2,
            cluster_spread=0.1,
            beta=1e6,
            rounds=30,
            server_per_class=16,
            test_per_class=20,
            hidden=(8,),
        )
        res = run_experiment(cfg, 0, tmp_path / "easy")
        assert res.records[-1].global_acc_test > 0.9


def test_dissimilarity_flags_name_client_ids(tmp_path):
    # tau < 1: client 5 is the second selected client, not client 1
    rec = RoundRecord(
        round=3,
        selected=(2, 5),
        sent_accuracies={2: 1.0, 5: 1.0},
        measured_accuracies={2: 0.5, 5: 0.0},
        agg_weights={2: 1.0, 5: 0.0},
        mean_local_loss=0.7,
        global_acc_server=0.25,
        global_acc_test=0.25,
    )
    path = tmp_path / "dissimilarity.csv"
    _write_dissimilarity_csv([rec], [None], path)
    assert path.read_text().splitlines()[1] == (
        "3,,inf,2:0.5;5:inf,client_5_zero_accuracy;grad_ratio_undefined"
    )


class TestSweep:
    def test_single_seed_sweep_equals_direct_run(self, tmp_path):
        cfg = quick_cfg(seed=3, output_dir=str(tmp_path / "sweep"))
        results = run_sweep(cfg)
        assert len(results) == 1
        direct = tmp_path / "direct"
        run_experiment(cfg, 3, direct)
        assert (results[0].run_dir / "rounds.csv").read_bytes() == (direct / "rounds.csv").read_bytes()

    def test_summary_statistics_match_hand_recount(self, tmp_path):
        cfg = quick_cfg(seeds=(0, 1, 2), output_dir=str(tmp_path / "sweep"))
        results = run_sweep(cfg)
        summary = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
        finals = [res.records[-1].global_acc_test for res in results]
        mean_row = next(line for line in summary if line.startswith("mean,"))
        assert float(mean_row.split(",")[2]) == pytest.approx(np.mean(finals), rel=1e-12)
        stdev_row = next(line for line in summary if line.startswith("stdev,"))
        assert float(stdev_row.split(",")[2]) == pytest.approx(np.std(finals, ddof=1), rel=1e-12)

    @pytest.mark.parametrize("overrides", [dict(test_per_class=0), dict(rounds=0)])
    def test_summary_blank_where_a_final_accuracy_is_nan(self, tmp_path, capsys, overrides):
        out = tmp_path / "sweep"
        path = tmp_path / "exp.cfg"
        path.write_text(config_text(quick_cfg(seeds=(1, 2), output_dir=str(out), **overrides)))
        assert main(["run", str(path)]) == 0
        rows = [line.split(",") for line in (out / "sweep_summary.csv").read_text().splitlines()]
        assert [r[0] for r in rows] == ["seed", "1", "2", "mean", "stdev"]
        # the test set (or every round) is missing: no test accuracy, so blank cells
        assert all(r[2] == "" for r in rows[1:])
        server_measured = overrides.get("rounds", 4) > 0
        assert all((r[1] != "") == server_measured for r in rows[1:])


class TestUsedRunDirectory:
    def test_rerun_into_a_used_output_dir_is_refused_and_changes_nothing(self, tmp_path, capsys):
        out = tmp_path / "runs"
        first = tmp_path / "first.cfg"
        first.write_text(
            config_text(
                quick_cfg(rounds=3, seeds=(1, 2), instrument_global_loss=True, output_dir=str(out))
            )
        )
        assert main(["run", str(first)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        second = tmp_path / "second.cfg"
        second.write_text(config_text(quick_cfg(rounds=1, seed=1, output_dir=str(out))))
        capsys.readouterr()
        assert main(["run", str(second)]) == 2
        assert str(out / "fedavg-seed1") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_sweep_checks_every_seed_before_any_compute(self, tmp_path):
        out = tmp_path / "runs"
        (out / "fedavg-seed2").mkdir(parents=True)
        (out / "fedavg-seed2" / "notes.txt").write_text("kept\n")
        with pytest.raises(ConfigError, match="fedavg-seed2"):
            run_sweep(quick_cfg(seeds=(1, 2), output_dir=str(out)))
        assert sorted(p.name for p in out.iterdir()) == ["fedavg-seed2"]

    def test_run_experiment_refuses_a_used_directory(self, tmp_path):
        (tmp_path / "old.txt").write_text("")
        with pytest.raises(ConfigError, match="already holds files"):
            run_experiment(quick_cfg(rounds=0), 1, tmp_path)

    def test_existing_empty_directory_is_allowed(self, tmp_path):
        run_experiment(quick_cfg(rounds=1), 1, tmp_path)
        assert (tmp_path / "rounds.csv").is_file()

    def test_failure_before_round_one_leaves_no_file(self, tmp_path, capsys):
        # 6 samples per class cannot give the server set its 8 per class
        out = tmp_path / "runs"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_text(quick_cfg(samples_per_class=6, rounds=1, output_dir=str(out))))
        assert main(["run", str(cfg)]) == 3
        assert not out.exists() or not any(out.rglob("*"))
        cfg.write_text(config_text(quick_cfg(rounds=1, output_dir=str(out))))
        assert main(["run", str(cfg)]) == 0
        assert (out / "fedavg-seed0" / "rounds.csv").is_file()
        assert (out / "config.resolved.txt").is_file()


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        cfg = quick_cfg(**overrides)
        path = tmp_path / "exp.cfg"
        path.write_text(config_text(cfg))
        return path

    def test_run_and_compare_and_plotdata(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg_avg = self.write_cfg(tmp_path, strategy="fedavg", output_dir=str(out))
        assert main(["run", str(cfg_avg)]) == 0
        printed = capsys.readouterr().out
        assert str(out / "fedavg-seed0") in printed
        assert str(out / "config.resolved.txt") in printed
        assert (out / "config.resolved.txt").exists()
        cfg_pdc = tmp_path / "pdc.cfg"
        cfg_pdc.write_text(config_text(quick_cfg(strategy="fedpdc", output_dir=str(out))))
        assert main(["run", str(cfg_pdc)]) == 0
        capsys.readouterr()

        avg_dir = out / "fedavg-seed0"
        pdc_dir = out / "fedpdc-seed0"
        assert main(["compare", str(avg_dir), str(pdc_dir)]) == 0
        table = capsys.readouterr().out
        assert "#rounds" in table and "speedup" in table

        assert main(["plotdata", str(avg_dir), str(pdc_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "round,run,strategy,metric,value"
        # rounds x 3 metrics x 2 runs
        assert len(lines) - 1 == 4 * 3 * 2
        source = read_history_csv(avg_dir / "rounds.csv")
        plotted = [l for l in lines[1:] if ",fedavg-seed0,fedavg,global_acc_test," in l]
        assert [l.rsplit(",", 1)[1] for l in plotted] == [r["global_acc_test"] for r in source]

    def test_partition_stats_prints_counts(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["partition-stats", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("client,class0")
        assert out[-1].startswith("total,")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        cases = (
            ("tau = 0", "tau"),
            ("seeds = 0,0", "seeds"),
            # beyond int64: the batch size overflowed in local training after
            # two artifacts were written, and the seed ran as seed 1
            ("batch_size = 100000000000000000000000000000", "batch_size"),
            ("seed = 18446744073709551617", "seed"),
            # sizes beyond the address space, so numpy fails before touching
            # memory: a raw MemoryError and "Maximum allowed dimension exceeded"
            ("samples_per_class = 1000000000000000", "samples_per_class"),
            ("hidden = 4611686018427387904", "hidden"),
        )
        for line, key in cases:
            bad.write_text(f"{line}\noutput_dir = {tmp_path / 'runs'}\n")
            assert main(["run", str(bad)]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path, dataset=str(tmp_path / "missing.csv"), output_dir=str(tmp_path / "runs")
        )
        code = main(["run", str(cfg)])
        assert code == 3

    @pytest.mark.filterwarnings("error")
    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, eta=1e150, momentum=0.0, output_dir=str(tmp_path / "runs"))
        assert main(["run", str(cfg)]) == 4

    def test_check_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 3

    def test_check_fails_on_a_wrong_training_gradient(self, monkeypatch, capsys):
        exact = nn.loss_and_grad

        def skewed(*args):
            ce, grad = exact(*args)
            return ce, grad * 1.01

        monkeypatch.setattr(nn, "loss_and_grad", skewed)
        assert main(["check"]) == 1
        assert "FAIL  analytic gradient" in capsys.readouterr().out

    def test_check_fails_on_a_wrong_full_batch_gradient(self, monkeypatch, capsys):
        exact = diagnostics.full_batch_pass

        def skewed(model, datasets):
            loss, grad, ratio = exact(model, datasets)
            return loss, grad * 1.01, ratio

        monkeypatch.setattr(diagnostics, "full_batch_pass", skewed)
        assert main(["check"]) == 1
        assert "FAIL  analytic gradient" in capsys.readouterr().out

    def test_check_fails_on_size_blind_fedavg_weights(self, monkeypatch, capsys):
        def uniform(sizes):
            return np.full(len(sizes), 1.0 / len(sizes))

        monkeypatch.setattr(engine, "fedavg_weights", uniform)
        assert main(["check"]) == 1
        assert "FAIL  aggregation" in capsys.readouterr().out

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_csv_label_exit_code(self, tmp_path, capsys, label):
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{i % 2},{i},{-i}\n" for i in range(40)) + f"{label},0,0\n")
        cfg = self.write_cfg(tmp_path, dataset=str(data), output_dir=str(tmp_path / "runs"))
        assert main(["run", str(cfg)]) == 3
        assert f"row 41 label '{label}'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_feature_names_path_and_row(self, tmp_path, capsys, cell):
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{i % 2},{i},{-i}\n" for i in range(40)) + f"1,0,{cell}\n")
        cfg = self.write_cfg(tmp_path, dataset=str(data), output_dir=str(tmp_path / "runs"))
        assert main(["run", str(cfg)]) == 3
        assert f"{data}: row 41 has a non-finite feature cell" in capsys.readouterr().err

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_bytes(b"rounds = 2\n# caf\xff\n")
        assert main(["run", str(bad_cfg)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    # a byte that is not UTF-8, and a cell beyond the csv module's field limit
    @pytest.mark.parametrize("cell", [b"\xff", b"1" * 200_000], ids=["not_utf8", "over_limit"])
    def test_unreadable_csv_exit_codes(self, tmp_path, capsys, cell):
        data = tmp_path / "d.csv"
        data.write_bytes(b"0,1.0\n1," + cell + b"\n")
        cfg = self.write_cfg(tmp_path, dataset=str(data), output_dir=str(tmp_path / "runs"))
        assert main(["run", str(cfg)]) == 3
        assert "cannot read dataset" in capsys.readouterr().err

        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "rounds.csv").write_bytes(ROUND_CSV_HEADER.encode() + b"\n0," + cell + b"\n")
        for command in ("compare", "plotdata"):
            assert main([command, str(run_dir)]) == 3
            assert "cannot read history" in capsys.readouterr().err

    def test_compare_rejects_a_final_value_that_is_not_plain_ascii(self, tmp_path, capsys):
        # float() read "0_5" as 5.0: a target no run reaches
        out = tmp_path / "runs"
        assert main(["run", str(self.write_cfg(tmp_path, output_dir=str(out)))]) == 0
        history = out / "fedavg-seed0" / "rounds.csv"
        header, *rows = history.read_text().splitlines()
        cells = rows[-1].split(",")
        cells[header.split(",").index("global_acc_test")] = "0_5"
        history.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n")
        capsys.readouterr()
        assert main(["compare", str(history.parent)]) == 3
        assert "baseline has no final 'global_acc_test' value" in capsys.readouterr().err

    def test_compare_missing_run_dir(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "ghost")]) == 3

    def test_compare_unreached_target_renders_backslash(self, tmp_path, capsys):
        out = tmp_path / "runs"
        cfg = self.write_cfg(tmp_path, output_dir=str(out))
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        run_dir = out / "fedavg-seed0"
        assert main(["compare", str(run_dir), str(run_dir), "--target", "2.0"]) == 0
        table = capsys.readouterr().out
        assert "\\" in table and "<1x" in table



# the exit code and label README and the cli docstring document for each
# error class; a subclass exits like its nearest documented ancestor
DOCUMENTED_EXITS = {
    errors.FedsimError: (1, "error"),
    errors.ConfigError: (2, "config error"),
    errors.DataError: (3, "data error"),
    errors.DivergenceError: (4, "divergence"),
}
FEDSIM_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.FedsimError)
]


@pytest.mark.parametrize("cls", FEDSIM_ERRORS, ids=lambda cls: cls.__name__)
def test_every_fedsim_error_exits_with_its_documented_code(cls, monkeypatch, capsys):
    code, label = next(DOCUMENTED_EXITS[base] for base in cls.__mro__ if base in DOCUMENTED_EXITS)
    assert (cls.exit_code, cls.label) == (code, label)

    def fail(_args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    assert main(["check"]) == code
    assert capsys.readouterr().err == f"{label}: boom\n"


@pytest.mark.parametrize("source", ["README.md", "cli docstring"])
def test_documented_exit_codes_are_exactly_the_error_codes(source):
    if source == "README.md":
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    else:
        text = cli.__doc__
    sentence = re.search(r"^Exit codes: (.*?)\.\s", text, flags=re.M | re.S).group(1)
    # "0 success, 1 failed check, I/O error or ..., 2 config error, ..."
    meanings = dict(item.split(" ", 1) for item in re.split(r",\s*(?=\d\b)", sentence))
    assert [int(code) for code in meanings] == sorted({0} | {c.exit_code for c in FEDSIM_ERRORS})
    for cls in FEDSIM_ERRORS:
        assert cls.label in meanings[str(cls.exit_code)], cls
    assert "I/O error" in meanings["1"]
