import os
import types

import numpy as np
import pytest

import adaptdae.gp as gp
import adaptdae.harness as harness
from adaptdae.cli import main
from adaptdae.harness import read_trace, replay_summary

GOOD_CONFIG = """
policy = sdae
seed = 1
summary_last = 4
test_fraction = 0.2
stream.classes = 3
stream.dims = 6
stream.batch_size = 15
stream.batches = 8
stream.per_class = 30
nn.widths = 6
pool.capacity = 45
pool.distance_threshold = 0.2
rl.warmup_batches = 2
rl.greedy_after = 4
rl.ema_window = 4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestRun:
    def test_happy_path_writes_trace(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = main(["run", "--config", config_path, "--seed", "7", "--out", out])
        assert code == 0
        assert os.path.exists(out)
        assert len(read_trace(out)) == 8
        assert "seed=7" in capsys.readouterr().out

    def test_multi_policy_multi_seed_suffixes(self, config_path, tmp_path):
        out = str(tmp_path / "t.csv")
        code = main(
            ["run", "--config", config_path, "--seed", "1", "2", "--policy", "sdae", "radae", "--out", out]
        )
        assert code == 0
        for policy in ("sdae", "radae"):
            for seed in (1, 2):
                assert os.path.exists(str(tmp_path / f"t_{policy}_s{seed}.csv"))

    @pytest.mark.parametrize(
        "out, written",
        [
            ("runs.v2/trace", "runs.v2/trace_sdae_s{}"),
            ("trace.csv", "trace_sdae_s{}.csv"),
            ("trace", "trace_sdae_s{}"),
            ("out/.trace", "out/.trace_sdae_s{}"),
        ],
    )
    def test_multi_run_suffix_goes_before_the_extension(self, config_path, tmp_path, out, written):
        # a dot in a directory name or a leading dot is not an extension
        for directory in ("runs.v2", "out"):
            (tmp_path / directory).mkdir()
        argv = ["run", "--config", config_path, "--seed", "1", "2", "--policy", "sdae", "--out", str(tmp_path / out)]
        assert main(argv) == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*_s*")) == [
            written.format(seed) for seed in (1, 2)
        ]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nwat = 9\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_a_later_bad_run_stops_every_run_before_it_starts(self, config_path, tmp_path, capsys):
        # seed 1 is fine and seed -3 is not: exit 2 means that nothing ran
        out = tmp_path / "o.csv"
        assert main(["run", "--config", config_path, "--seed", "1", "-3", "--out", str(out)]) == 2
        assert "seed must be in [0, inf), got -3" in capsys.readouterr().err
        assert list(tmp_path.glob("o*")) == []

    @pytest.mark.parametrize(
        "flags",
        [["--seed", "1", "1"], ["--policy", "sdae", "sdae"], ["--seed", "1", "2", "1", "--policy", "sdae", "radae"]],
        ids=["seed", "policy", "seed-of-two-policies"],
    )
    def test_a_repeated_run_exits_2_before_anything_runs(self, config_path, tmp_path, capsys, flags):
        # the runs are deterministic: a repeat would run and write a trace twice
        out = tmp_path / "o.csv"
        assert main(["run", "--config", config_path, *flags, "--out", str(out)]) == 2
        assert "seed=1 is asked for more than once" in capsys.readouterr().err
        assert list(tmp_path.glob("o*")) == []

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("policy = nonsense\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2

    def test_unknown_flag_exits_2(self, config_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", config_path, "--frobnicate"])
        assert err.value.code == 2


class TestRuntimeFailures:
    """A run that fails after its config passed validation exits 1."""

    def test_gp_factorisation_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "radae.cfg"
        path.write_text(GOOD_CONFIG.replace("policy = sdae", "policy = radae"))

        lapack = gp._flapack()

        def not_positive_definite(a, **kwargs):
            return a, 1

        monkeypatch.setattr(
            gp, "_flapack", lambda: types.SimpleNamespace(dpotrf=not_positive_definite, dpotrs=lapack.dpotrs)
        )
        assert main(["run", "--config", str(path), "--out", ""]) == 1
        assert capsys.readouterr().err.startswith("runtime failure: LinAlgError: Gram matrix stayed non positive")

    def test_numerical_breakdown_exits_1(self, config_path, monkeypatch, capsys):
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            net.layers[0].W[:] = np.nan
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        assert main(["run", "--config", config_path, "--out", ""]) == 1
        assert capsys.readouterr().err.startswith("runtime failure: NumericalBreakdown: batch 1: ")


class TestValidate:
    def test_good_config(self, config_path, capsys):
        assert main(["validate", "--config", config_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_cross_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("pool.capacity = 10\nstream.batch_size = 100\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "pool.capacity" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "lines", ["rl.refit_interval = 0", "rl.ema_window = -5\nrl.ema_alpha = 0.5", "rl.max_observations = 0"]
    )
    def test_controller_counts_below_one_exit_2(self, tmp_path, capsys, lines):
        path = tmp_path / "radae.cfg"
        path.write_text(GOOD_CONFIG.replace("policy = sdae", "policy = radae") + lines + "\n")
        key = lines.split()[0].removeprefix("rl.")
        assert main(["validate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", ""]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_meaningless_gp_noise_exits_2(self, tmp_path, capsys, noise):
        path = tmp_path / "radae.cfg"
        path.write_text(GOOD_CONFIG.replace("policy = sdae", "policy = radae") + f"rl.gp_noise = {noise}\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "gp_noise" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", ""]) == 2
        assert "gp_noise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "nn.learning_rate = nan",
            "nn.learning_rate = -0.1",
            "nn.learning_rate = 0",
            "nn.hybrid_weight = inf",
            "nn.hybrid_weight = -0.5",
            "nn.pretrain_batches = -1",
            "nn.pretrain_epochs = -1",
            "nn.pretrain_batches = 500",
        ],
    )
    def test_meaningless_network_settings_exit_2(self, config_path, capsys, line):
        # each used to pass validation and then fail, train wrongly or be ignored
        with open(config_path, "a") as f:
            f.write(line + "\n")
        key = line.split()[0]
        assert main(["validate", "--config", config_path]) == 2
        assert key in capsys.readouterr().err
        assert main(["run", "--config", config_path, "--out", ""]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "stream.dims = 0",
            "stream.switch_at = -5",
            "stream.gp_length_scale = 0",
            "stream.gp_length_scale = -3",
            "stream.gp_length_scale = nan",
            "rl.size_width = 0",
            "rl.size_width = -0.5",
            "rl.size_target = nan",
            "rl.size_target = inf",
            "rl.delta_scale = nan",
            "rl.delta_scale = inf",
            "rl.size_low = nan",
            "rl.size_low = -0.5",
            "rl.size_high = inf",
            "rl.size_high = nan",
            "rl.q_lr = nan",
            "rl.q_lr = -1",
            "rl.q_lr = 1.5",
            "stream.spread = nan",
            "stream.spread = -0.3",
            "stream.spread = inf",
            "midae.merge_ratio = nan",
            "midae.merge_ratio = inf",
            "midae.merge_ratio = -1",
            "midae.grow_step = -5",
            "midae.pool_threshold = -1",
            "stream.per_class = 1",
            "stream.per_class = 2\ntest_fraction = 0.9",
            "seed = -1",
        ],
    )
    def test_settings_that_break_the_run_exit_2(self, config_path, capsys, line):
        # each used to pass validation and then fail at run time or run
        # without meaning: a division by zero, a NaN node count, a negative
        # slice index, a length scale silently replaced or mirrored, a NaN
        # or infinite corridor, utilities blended away from their targets,
        # a NaN or negative spread silently read as 0, a class left without
        # a test or a training example, a seed the generators refuse
        policy = {"rl": "radae", "midae": "midae"}.get(line.split(".")[0], "sdae")
        with open(config_path, "a") as f:
            f.write(f"policy = {policy}\n{line}\n")
        attr = line.split()[0].split(".")[-1]
        assert main(["validate", "--config", config_path]) == 2
        assert attr in capsys.readouterr().err
        assert main(["run", "--config", config_path, "--out", ""]) == 2
        assert attr in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [["-3"], ["1", "-3"]])
    def test_negative_seed_flag_exits_2(self, config_path, capsys, seeds):
        # used to pass validation and fail in the random generator, exit 1
        assert main(["run", "--config", config_path, "--seed", *seeds, "--out", ""]) == 2
        assert "seed must be in [0, inf), got -3" in capsys.readouterr().err

    def test_negative_midae_step_exits_2(self, tmp_path, capsys):
        path = tmp_path / "midae.cfg"
        path.write_text(GOOD_CONFIG.replace("policy = sdae", "policy = midae") + "midae.delta_init = -1\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "midae.delta_init" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", ""]) == 2
        assert "midae.delta_init" in capsys.readouterr().err


class TestReplay:
    def test_replay_matches_run(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        run_line = capsys.readouterr().out.strip().splitlines()[-1].split(" -> ")[0]
        assert main(["replay", out, "--last", "4"]) == 0
        replay_line = capsys.readouterr().out.strip()
        # identical statistics in both printouts
        assert run_line.split("e_lcl=")[1] == replay_line.split("e_lcl=")[1]
        summary = replay_summary(out, 4)
        assert summary.window == 4

    def test_replay_defaults_to_the_runs_own_window(self, tmp_path, capsys):
        path = tmp_path / "default_window.cfg"
        path.write_text(GOOD_CONFIG.replace("summary_last = 4\n", ""))
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", str(path), "--out", out]) == 0
        run_line = capsys.readouterr().out.strip().splitlines()[-1].split(" -> ")[0]
        assert main(["replay", out]) == 0
        replay_line = capsys.readouterr().out.strip()
        assert replay_line[replay_line.index(" last=") :] == run_line[run_line.index(" last=") :]

    @pytest.mark.parametrize("last", ["0", "-5"])
    def test_non_positive_last_exits_2(self, config_path, tmp_path, capsys, last):
        out = str(tmp_path / "trace.csv")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        with pytest.raises(SystemExit) as err:
            main(["replay", out, "--last", last])
        assert err.value.code == 2
        assert "--last" in capsys.readouterr().err

    def test_bad_cell_names_file_row_and_column(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        lines[3] = "one" + lines[3][lines[3].index(","):]
        out.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ValueError: ")
        assert f"{out}: row 3, column batch: 'one'" in err

    def test_missing_trace_exits_nonzero(self, tmp_path):
        code = main(["replay", str(tmp_path / "nope.csv")])
        assert code == 1
