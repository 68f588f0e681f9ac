"""Config parsing, the pulsectl subcommands, and run artifacts."""

import dataclasses
import hashlib
import json
import math
import re
import typing

import numpy as np
import pytest
import yaml

from dotgate import cli, nn
from dotgate.agents import IterationStats, PpoConfig, TdConfig, train_ppo, train_td
from dotgate.config import (
    ALGORITHMS,
    ExperimentConfig,
    canonical_bytes,
    config_digest,
    config_from_dict,
    parse_config,
)
from dotgate.env import EnvConfig, GateEnv
from helpers import assert_pinned

# The plot-data files export_plots writes into a run directory.
PLOT_FILES = (
    "fidelity_vs_episode.tsv",
    "tunnel_vs_time.tsv",
    "detuning_vs_time.tsv",
    "bias0_vs_time.tsv",
    "bias1_vs_time.tsv",
)


def write_config(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


@pytest.fixture
def smoke_config(tmp_path):
    return write_config(
        tmp_path / "cfg.yaml",
        {
            "algorithm": "qlearning",
            "seed": 5,
            "output_dir": str(tmp_path / "run"),
            "td": {"episodes_max": 5, "target_mean_fidelity": 0.999999},
        },
    )


class TestParseConfig:
    def test_missing_algorithm_named(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 1})
        with pytest.raises(ValueError, match="algorithm"):
            parse_config(path)

    def test_minimal_config_gets_paper_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1})
        cfg = parse_config(path)
        assert cfg.ppo.gamma == 0.9
        assert cfg.ppo.clip_eps == 0.2
        assert cfg.env.u == (845.2, 845.2)
        assert cfg.env.ez == (18.4, 19.7)
        assert cfg.env.eps_init == (170.0, 70.0)

    def test_round_trip_digest_stable(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            {"algorithm": "sarsa", "seed": 2, "td": {"gamma": 0.8}},
        )
        cfg = parse_config(path)
        again = config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        # tuples round-trip as lists; digest is over the canonical dict
        assert config_digest(again) == config_digest(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1,
                                                  "ppo": {"gama": 0.9}})
        with pytest.raises(ValueError, match="gama"):
            parse_config(path)
        # Keys of the removed replay buffer, target network and state-dependent std.
        for section, key, value in [
            ("td", "replay_capacity", 100), ("td", "replay_batch", 32),
            ("td", "target_sync_every", 10), ("ppo", "state_dependent_std", True),
        ]:
            path = write_config(tmp_path / "c.yaml", {"algorithm": "qlearning", "seed": 1,
                                                      section: {key: value}})
            with pytest.raises(ValueError, match=rf"^unknown key {section}\.{key}$"):
                parse_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("td", "episodes_max", 2.5, "must be an integer"),
        ("ppo", "horizon", 2.5, "must be an integer"),
        ("td", "trailing_window", "3", "must be an integer"),
        ("ppo", "n_envs", True, "must be an integer"),
        ("env", "max_steps", 200.0, "must be an integer"),
        ("ppo", "lr", "1e-3", "must be a number"),
        ("td", "gamma", None, "must be a number"),
        ("env", "dt", False, "must be a number"),
        ("ppo", "stop_on_target", "no", "must be true or false"),
        ("physics", "tun_init", "2.5", "must be a number"),
    ])
    def test_scalar_of_the_wrong_type_named(self, tmp_path, section, key, value, message):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1,
                                                  section: {key: value}})
        with pytest.raises(ValueError, match=rf"^{section}\.{key}={value!r} {message}$"):
            parse_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("env", "step_sizes", [1.0, 0.1], "must be a list of 3 numbers"),
        ("physics", "ez", [18.4], "must be a list of 2 numbers"),
        ("env", "eps_init", [170, 70, 5], "must be a list of 2 numbers"),
        ("env", "u", [845.2, 845.2, 1.0], "must be a list of 2 numbers"),
        ("env", "step_thresholds", [0.99], "must be a list of 2 numbers"),
        ("env", "u", "ab", "must be a list of 2 numbers"),
        ("physics", "eps_bounds", 5.0, "must be a list of 2 numbers"),
        ("env", "step_sizes", [1.0, True, 0.01], "must be a list of 3 numbers"),
        ("env", "tun_bounds", [0.0, "40"], "must be a list of 2 numbers"),
    ])
    def test_tuple_of_the_wrong_length_or_entries_named(
        self, tmp_path, section, key, value, message
    ):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1,
                                                  section: {key: value}})
        with pytest.raises(ValueError, match=rf"^{section}\.{key}={re.escape(repr(value))} {message}$"):
            parse_config(path)

    def test_tuple_of_integers_accepted(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1,
                                                  "env": {"eps_init": [170, 70]}})
        assert parse_config(path).env.eps_init == (170, 70)

    @pytest.mark.parametrize("value, message", [
        (2.7, "seed=2.7 must be an integer"),
        (True, "seed=True must be an integer"),
        ("x", "seed='x' must be an integer"),
        (-1, "seed=-1 must be >= 0"),
    ])
    def test_bad_seed_named(self, tmp_path, value, message):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": value})
        with pytest.raises(ValueError, match=rf"^{message}$"):
            parse_config(path)

    def test_seed_zero_accepted(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 0})
        assert parse_config(path).seed == 0

    def test_integer_accepted_for_a_float_field(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "ppo", "seed": 1,
                                                  "ppo": {"target_duration": 40}})
        assert parse_config(path).ppo.target_duration == 40

    def test_physics_section_lands_on_env(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            {"algorithm": "ppo", "seed": 1, "physics": {"u": [800.0, 800.0]}},
        )
        assert parse_config(path).env.u == (800.0, 800.0)

    def test_key_set_in_physics_and_env_named(self, tmp_path):
        raw = {"algorithm": "ppo", "seed": 1,
               "env": {"u": [800.0, 800.0], "dt": 0.5}, "physics": {"ez": [18.0, 19.0]}}
        env = parse_config(write_config(tmp_path / "c.yaml", raw)).env
        assert (env.u, env.dt, env.ez) == ((800.0, 800.0), 0.5, (18.0, 19.0))
        raw["physics"]["u"] = [845.2, 845.2]
        with pytest.raises(ValueError, match=r"^physics\.u and env\.u both set$"):
            parse_config(write_config(tmp_path / "c.yaml", raw))

    def test_bad_algorithm(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"algorithm": "cmaes", "seed": 1})
        with pytest.raises(ValueError, match="algorithm"):
            parse_config(path)

    def test_lambda_alias(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            {"algorithm": "ppo", "seed": 1, "ppo": {"lambda": 0.9}},
        )
        assert parse_config(path).ppo.lam == 0.9


SECTIONS = {"env": EnvConfig, "td": TdConfig, "ppo": PpoConfig}


def float_fields():
    """(section, key, index) of every float field of the env, td and ppo
    sections, and of every float entry of a tuple field (index None for a
    scalar field)."""
    params = []
    for section, cls in SECTIONS.items():
        for key, kind in typing.get_type_hints(cls).items():
            if kind is float:
                entries = [None]
            elif typing.get_origin(kind) is tuple:
                entries = [i for i, k in enumerate(typing.get_args(kind)) if k is float]
            else:
                continue
            params += [
                pytest.param(section, key, i, id=f"{section}.{key}" + ("" if i is None else f"[{i}]"))
                for i in entries
            ]
    return params


# Fields that admit an infinite value by design: a target duration of inf
# stops PPO on fidelity alone.
INF_ALLOWED = {("ppo", "target_duration")}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key, index", float_fields())
def test_non_finite_float_field_rejected_by_name(section, key, index, value):
    if index is None:
        entry = value
    else:
        entry = list(getattr(SECTIONS[section](), key))
        entry[index] = value
    raw = {"algorithm": "ppo", "seed": 0, section: {key: entry}}
    if value == math.inf and (section, key) in INF_ALLOWED:
        config_from_dict(raw)
        return
    with pytest.raises(ValueError) as exc:
        config_from_dict(raw)
    assert re.search(rf"(?<![\w.]){key}\b", str(exc.value)), str(exc.value)


class TestTrain:
    def test_smoke_run_artifacts(self, smoke_config, tmp_path):
        assert cli.main(["train", smoke_config]) == 0
        run = tmp_path / "run"
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert record["seed"] == 5 and record["episode"] == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert (run / "best_schedule.csv").exists()
        assert (run / "checkpoint.npz").exists()
        assert (run / "config.json").exists()
        assert cli.verify_manifest(run)

    def test_same_seed_identical_metrics(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            path = write_config(
                tmp_path / f"{name}.yaml",
                {
                    "algorithm": "sarsa",
                    "seed": 11,
                    "output_dir": str(tmp_path / name),
                    "td": {"episodes_max": 4, "target_mean_fidelity": 0.999999},
                },
            )
            assert cli.main(["train", path]) == 0
            outs.append((tmp_path / name / "metrics.jsonl").read_bytes())
        assert outs[0] == outs[1]

    # The build the metrics digests below were recorded on (helpers.build).
    METRICS_BUILD = (
        "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, "
        "blas scipy-openblas 0.3.31.188.0, core SkylakeX"
    )

    @pytest.mark.witness
    @pytest.mark.parametrize("raw, digest", [
        ({"algorithm": "qlearning", "seed": 7,
          "td": {"episodes_max": 12, "target_mean_fidelity": 1.0}},
         "4873a937bfaacb61b2382a6103cd21b1ea08ed6bac8c1a87645f0563b0907579"),
        ({"algorithm": "sarsa", "seed": 8, "env": {"obs_mode": "full16"},
          "td": {"episodes_max": 6, "target_mean_fidelity": 1.0}},
         "5abf7fc671c76e2dd266dad375d6816e4f3878527f3226061b51310ebe92636c"),
        ({"algorithm": "ppo", "seed": 9,
          "ppo": {"iterations_max": 2, "n_envs": 3, "horizon": 30, "stop_on_target": False}},
         "812f6412753fa63a586ec9bb8c140c9c52d95ae40a5df281242b41249b39556f"),
    ], ids=["qlearning", "sarsa_full16", "ppo"])
    def test_metrics_bytes_pinned(self, tmp_path, raw, digest):
        # sha256 of metrics.jsonl, recorded while each record's keys were
        # still listed by hand; a change to a record's keys or values, or to
        # the numbers of training, changes it.  The bytes depend on the numpy
        # and BLAS build.
        cli.run_train(config_from_dict({**raw, "output_dir": str(tmp_path)}))
        metrics = (tmp_path / "metrics.jsonl").read_bytes()
        assert_pinned(hashlib.sha256(metrics).hexdigest(), digest, self.METRICS_BUILD)

    def test_metrics_lines_are_strict_json(self, tmp_path):
        # 20 steps of two rows end no episode, so the best duration is inf.
        raw = {"algorithm": "ppo", "seed": 3, "output_dir": str(tmp_path),
               "ppo": {"horizon": 20, "n_envs": 2, "iterations_max": 2}}
        cli.run_train(config_from_dict(raw))

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert [r["gate_duration_ns"] for r in records] == [None, None]
        assert [r["episodes"] for r in records] == [0, 0]

    def test_nan_stat_named(self):
        stats = IterationStats(
            iteration=0, episodes=1, mean_return=-3.0, mean_final_fidelity=0.5,
            best_fidelity=0.5, best_duration=3.0, policy_loss=math.nan,
            value_loss=1.0, entropy=2.0, wall_ms=1.0,
        )
        with pytest.raises(ValueError, match=r"^metrics stats \['policy_loss'\] are not finite$"):
            cli._metrics_line(stats, seed=0)

    def test_rerun_without_best_schedule_leaves_none_behind(self, tmp_path):
        run = tmp_path / "run"
        first = {"algorithm": "qlearning", "seed": 5, "output_dir": str(run),
                 "td": {"episodes_max": 2}}
        assert cli.main(["train", write_config(tmp_path / "a.yaml", first)]) == 0
        assert all((run / name).exists() for name in ("best_schedule.csv", *PLOT_FILES))
        # Three steps of one row end no episode, so this run has no best schedule.
        second = {"algorithm": "ppo", "seed": 5, "output_dir": str(run),
                  "ppo": {"horizon": 3, "n_envs": 1, "iterations_max": 1}}
        assert cli.main(["train", write_config(tmp_path / "b.yaml", second)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["result"]["best_fidelity"] == 0.0
        assert not (run / "best_schedule.csv").exists()
        assert [name for name in PLOT_FILES if (run / name).exists()] == [PLOT_FILES[0]]

    def test_manifest_digest_detects_tampering(self, smoke_config, tmp_path):
        cli.main(["train", smoke_config])
        run = tmp_path / "run"
        data = (run / "config.json").read_bytes()
        (run / "config.json").write_bytes(data.replace(b"5", b"6", 1))
        assert not cli.verify_manifest(run)

    def test_output_dir_override(self, smoke_config, tmp_path):
        override = tmp_path / "elsewhere"
        assert cli.main(["train", smoke_config, "--output-dir", str(override)]) == 0
        assert (override / "manifest.json").exists()

    def test_output_dir_env_var(self, smoke_config, tmp_path, monkeypatch):
        override = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV_VAR, str(override))
        assert cli.main(["train", smoke_config]) == 0
        assert (override / "manifest.json").exists()

    def test_replay_closes_the_loop(self, tmp_path):
        path = write_config(
            tmp_path / "ppo.yaml",
            {
                "algorithm": "ppo",
                "seed": 3,
                "output_dir": str(tmp_path / "run"),
                "ppo": {"n_envs": 2, "horizon": 60, "iterations_max": 10,
                        "epochs_per_iter": 2},
            },
        )
        assert cli.main(["train", path]) == 0
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        out = cli.run_replay(run / "best_schedule.csv", EnvConfig())
        assert out["final_fidelity"] == pytest.approx(
            manifest["result"]["best_fidelity"], abs=1e-9
        )

    def test_invalid_config_exits_nonzero_without_output(self, tmp_path):
        out_dir = tmp_path / "never"
        path = write_config(
            tmp_path / "bad.yaml",
            {"algorithm": "qlearning", "seed": 1, "output_dir": str(out_dir),
             "env": {"tun_init": 9.0}},
        )
        assert cli.main(["train", path]) == 1
        assert not out_dir.exists()


class TestValidate:
    def test_good_config(self, smoke_config):
        assert cli.main(["validate", smoke_config]) == 0

    def test_bad_config(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 1})
        assert cli.main(["validate", path]) == 1

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.yaml")]) == 1

    @pytest.mark.parametrize("physics, message", [
        ({"eps_bounds": [-1000.0, 1000.0]},
         "eps_bounds=(-1000.0, 1000.0) outside the physical range (-750.0, 750.0)"),
        ({"tun_bounds": [0.0, 9.0], "tun_init": 8.0},
         "tun_bounds=(0.0, 9.0) outside the physical range (0.0, 5.0)"),
    ])
    def test_bounds_outside_physical_range(self, tmp_path, capsys, physics, message):
        path = write_config(
            tmp_path / "c.yaml", {"algorithm": "qlearning", "seed": 1, "physics": physics}
        )
        assert cli.main(["validate", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, kind", [
        ("env", 5, "int"),
        ("env", 0, "int"),
        ("env", [1, 2], "list"),
        ("env", "abc", "str"),
        ("physics", ["u"], "list"),
        ("td", 0.5, "float"),
        ("ppo", True, "bool"),
    ])
    def test_section_not_a_mapping_named(self, tmp_path, capsys, section, value, kind):
        path = write_config(
            tmp_path / "c.yaml", {"algorithm": "qlearning", "seed": 1, section: value}
        )
        assert cli.main(["validate", path]) == 1
        assert capsys.readouterr().err == f"error: {section} must be a mapping, got {kind}\n"

    @pytest.mark.parametrize("value, shown", [
        (None, "None"), ([1, 2], "[1, 2]"), (5, "5"), ("", "''"),
    ])
    def test_output_dir_not_a_non_empty_string_named(self, tmp_path, capsys, value, shown):
        path = write_config(
            tmp_path / "c.yaml", {"algorithm": "qlearning", "seed": 1, "output_dir": value}
        )
        assert cli.main(["validate", path]) == 1
        assert capsys.readouterr().err == (
            f"error: output_dir must be a non-empty string, got {shown}\n"
        )

    @pytest.mark.parametrize("value, shown", [(0, "0"), (None, "None"), ("", "''")])
    def test_algorithm_not_among_the_algorithms_named(self, tmp_path, capsys, value, shown):
        path = write_config(tmp_path / "c.yaml", {"algorithm": value, "seed": 1})
        assert cli.main(["validate", path]) == 1
        assert capsys.readouterr().err == (
            f"error: algorithm must be one of {ALGORITHMS}, got {shown}\n"
        )

    @pytest.mark.parametrize("section", ["env", "physics", "td", "ppo"])
    def test_null_section_reads_as_defaults(self, tmp_path, section):
        path = write_config(
            tmp_path / "c.yaml", {"algorithm": "qlearning", "seed": 1, section: None}
        )
        assert parse_config(path) == parse_config(
            write_config(tmp_path / "d.yaml", {"algorithm": "qlearning", "seed": 1})
        )


class TestReplay:
    def test_one_step_schedule_matches_environment(self, tmp_path):
        env = GateEnv()
        env.reset()
        res = env.step_discrete([0])
        path = tmp_path / "s.csv"
        env.export_schedule(0).to_csv(path)
        out = cli.run_replay(path, EnvConfig())
        assert out["final_fidelity"] == res.info["fidelity"][0]

    def test_empty_schedule_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n")
        with pytest.raises(ValueError, match=r"^schedule has no steps to replay$"):
            cli.run_replay(path, EnvConfig())
        assert cli.main(["replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schedule has no steps to replay\n"
        # A sweep names its own need for a row of controls.
        with pytest.raises(ValueError, match="^sweep needs at least one schedule row"):
            cli.run_replay(path, EnvConfig(), sweep_duration=5)

    def test_sweep_finds_high_fidelity_duration(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
        out = cli.run_replay(path, EnvConfig(), sweep_duration=60)
        assert out["best_fidelity"] > 0.99
        assert 1 <= out["best_duration_ns"] <= 60

    def test_out_of_bounds_schedule_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,999,70,2.5\n")
        with pytest.raises(ValueError, match="eps0"):
            cli.run_replay(path, EnvConfig())

    def test_unparsable_field_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n1,abc,70,2.5\n")
        assert cli.main(["replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: line 3, column eps0_ghz: cannot parse 'abc' as float" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_schedule_rejected(self, tmp_path, value):
        path = tmp_path / "s.csv"
        path.write_text(
            f"step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n1,170,{value},2.5\n"
        )
        with pytest.raises(ValueError, match="step 1: eps1=.* not finite"):
            cli.run_replay(path, EnvConfig())
        assert cli.main(["replay", str(path)]) == 1

    def test_sweep_validates_every_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n1,170,70,5.5\n"
        )
        with pytest.raises(ValueError, match="step 1: tunnel=5.5 outside"):
            cli.run_replay(path, EnvConfig(), sweep_duration=30)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sweep_duration_below_one_rejected(self, tmp_path, capsys, n):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
        with pytest.raises(ValueError, match=f"^sweep duration {n} must be >= 1 step$"):
            cli.run_replay(path, EnvConfig(), sweep_duration=n)
        assert cli.main(["replay", str(path), "--sweep-duration", str(n)]) == 1
        assert f"sweep duration {n}" in capsys.readouterr().err

    def test_sweep_duration_counts_steps_of_dt(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
        cfg = write_config(
            tmp_path / "cfg.yaml", {"algorithm": "qlearning", "seed": 0, "env": {"dt": 0.5}}
        )
        argv = ["replay", str(path), "--config", cfg, "--sweep-duration", "40", "--trace"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["steps"] == len(out["fidelity_trace"]) == 40
        best = int(np.argmax(out["fidelity_trace"]))
        assert out["best_duration_ns"] == (best + 1) * 0.5 <= 20.0
        with pytest.raises(SystemExit):
            cli.main(["replay", "--help"])
        assert "1..N steps of the config's dt" in " ".join(capsys.readouterr().out.split())

    def test_steps_out_of_order_named(self, tmp_path, capsys):
        # Read as a 2-step pulse, these rows would replay and plot at 7 and 3 ns.
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n7,170,70,2.5\n3,170,70,2.5\n")
        assert cli.main(["replay", str(path)]) == 1
        assert "error: line 2, column step: expected 0, got 7" in capsys.readouterr().err

    def test_unreadable_path_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # A directory raises IsADirectoryError, an OSError but no FileNotFoundError.
        assert cli.main(["replay", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_cli_replay_command(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
        assert cli.main(["replay", str(path), "--sweep-duration", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "best_fidelity" in out


class TestExportPlots:
    def test_trailing_mean_rows(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            {
                "algorithm": "qlearning",
                "seed": 7,
                "output_dir": str(tmp_path / "run"),
                "td": {"episodes_max": 14, "target_mean_fidelity": 0.999999},
            },
        )
        cli.main(["train", path])
        run = tmp_path / "run"
        lines = (run / "fidelity_vs_episode.tsv").read_text().splitlines()
        assert len(lines) - 1 == 14 - 9
        for name in PLOT_FILES:
            assert (run / name).exists()

    @staticmethod
    def constant_schedule_run(run, config=True):
        """A hand-made run directory: one metrics record, a five-row constant
        schedule and, with ``config``, a default qlearning config.json."""
        run.mkdir()
        (run / "metrics.jsonl").write_text(
            json.dumps({"episode": 0, "final_fidelity": 0.5}) + "\n"
        )
        (run / "best_schedule.csv").write_text(
            "step,eps0_ghz,eps1_ghz,tunnel_ghz\n"
            + "".join(f"{k},170,70,2.5\n" for k in range(5))
        )
        if config:
            cfg = config_from_dict({"algorithm": "qlearning", "seed": 0})
            (run / "config.json").write_bytes(canonical_bytes(cfg))
        return run

    def test_detuning_constant_for_constant_schedule(self, tmp_path):
        run = self.constant_schedule_run(tmp_path / "run")
        cli.export_plots(run)
        lines = (run / "detuning_vs_time.tsv").read_text().splitlines()[1:]
        assert all(line.split("\t")[1] == "100" for line in lines)

    def test_schedule_times_are_steps_times_dt(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml",
            {
                "algorithm": "qlearning",
                "seed": 3,
                "output_dir": str(tmp_path / "run"),
                "env": {"dt": 0.5, "max_steps": 6},
                "td": {"episodes_max": 3, "target_mean_fidelity": 1.0},
            },
        )
        assert cli.main(["train", path]) == 0
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        n_rows = len((run / "best_schedule.csv").read_text().splitlines()) - 1
        assert manifest["result"]["best_duration_ns"] == n_rows * 0.5
        for name in PLOT_FILES[1:]:
            lines = (run / name).read_text().splitlines()
            assert lines[0].startswith("time_ns\t")
            times = [line.split("\t")[0] for line in lines[1:]]
            assert times == [f"{k * 0.5:.15g}" for k in range(n_rows)]

    def test_schedule_without_config_named(self, tmp_path, capsys):
        run = self.constant_schedule_run(tmp_path / "run", config=False)
        assert cli.main(["export-plots", str(run)]) == 1
        assert f"error: no config.json under {run}" in capsys.readouterr().err

    def test_reexport_bitwise_identical(self, smoke_config, tmp_path):
        cli.main(["train", smoke_config])
        run = tmp_path / "run"
        before = {name: (run / name).read_bytes() for name in PLOT_FILES}
        assert cli.main(["export-plots", str(run)]) == 0
        after = {name: (run / name).read_bytes() for name in PLOT_FILES}
        assert before == after

    def test_schedule_steps_out_of_order_rejected(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.jsonl").write_text(
            json.dumps({"episode": 0, "final_fidelity": 0.5}) + "\n"
        )
        (run / "best_schedule.csv").write_text(
            "step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n2,170,70,2.5\n"
        )
        assert cli.main(["export-plots", str(run)]) == 1
        assert "error: line 3, column step: expected 1, got 2" in capsys.readouterr().err
        assert not (run / "tunnel_vs_time.tsv").exists()

    def test_missing_run_artifacts(self, tmp_path):
        assert cli.main(["export-plots", str(tmp_path)]) == 1

    @pytest.mark.parametrize("line, message", [
        ('{"episode": 1}\n', "line 2: no final_fidelity"),
        ("[1,2]\n", "line 2: expected a JSON object, got list"),
        ('{"episode": 1, "fi', "line 2, column 16: Unterminated string starting at"),
        ('{"episode": 1, "final_fidelity": "0.5"}\n',
         "line 2: final_fidelity '0.5' is not a finite number"),
        ('{"episode": 1, "final_fidelity": null}\n',
         "line 2: final_fidelity None is not a finite number"),
        ('{"episode": 1, "final_fidelity": true}\n',
         "line 2: final_fidelity True is not a finite number"),
        ('{"episode": 1, "final_fidelity": NaN}\n',
         "line 2: final_fidelity nan is not a finite number"),
        ('{"final_fidelity": 0.5}\n', "line 2: no episode or iteration"),
        ('{"episode": "x", "final_fidelity": 0.5}\n',
         "line 2: episode 'x' is not an integer >= 0"),
        ('{"episode": 1.5, "final_fidelity": 0.5}\n',
         "line 2: episode 1.5 is not an integer >= 0"),
        ('{"episode": true, "final_fidelity": 0.5}\n',
         "line 2: episode True is not an integer >= 0"),
        ('{"iteration": [1], "final_fidelity": 0.5}\n',
         "line 2: iteration [1] is not an integer >= 0"),
        ('{"iteration": -1, "final_fidelity": 0.5}\n',
         "line 2: iteration -1 is not an integer >= 0"),
        ('{"episode": null, "final_fidelity": 0.5}\n',
         "line 2: episode None is not an integer >= 0"),
    ], ids=["no_final_fidelity", "not_an_object", "truncated", "string_fidelity",
            "null_fidelity", "bool_fidelity", "nan_fidelity", "no_episode",
            "string_episode", "float_episode", "bool_episode", "list_iteration",
            "negative_iteration", "null_episode"])
    def test_bad_metrics_line_named(self, tmp_path, capsys, line, message):
        run = self.constant_schedule_run(tmp_path / "run")
        metrics = run / "metrics.jsonl"
        metrics.write_text(metrics.read_text() + line)
        assert cli.main(["export-plots", str(run)]) == 1
        assert capsys.readouterr().err == f"error: {metrics} {message}\n"


class TestCheckpoint:
    @pytest.mark.parametrize("algorithm, section", [
        ("qlearning", {"td": {"episodes_max": 3, "target_mean_fidelity": 1.0}}),
        ("ppo", {"ppo": {"n_envs": 2, "horizon": 20, "iterations_max": 1,
                         "stop_on_target": False}}),
    ])
    def test_train_checkpoint_round_trip(self, tmp_path, algorithm, section):
        raw = {"algorithm": algorithm, "seed": 5, "output_dir": str(tmp_path / "run"),
               **section}
        assert cli.main(["train", write_config(tmp_path / "c.yaml", raw)]) == 0
        path = tmp_path / "run" / "checkpoint.npz"
        networks, extras = nn.load_checkpoint(path)

        # The same run again, in process: training is a pure function of
        # (config, seed).
        cfg = config_from_dict(raw)
        if algorithm == "qlearning":
            result = train_td(GateEnv(cfg.env), algorithm, cfg.td, seed=cfg.seed)
            want_networks, want_extras = {"q": result.params}, {}
        else:
            result = train_ppo(lambda: GateEnv(cfg.env), cfg.ppo, seed=cfg.seed)
            want_networks = {"policy": result.policy, "value": result.value}
            want_extras = {"log_std": result.log_std}
        assert sorted(networks) == sorted(want_networks)
        assert sorted(extras) == sorted(want_extras)
        for name, want in want_networks.items():
            assert networks[name].weights[0].shape == (cfg.env.obs_dim, nn.HIDDEN)
            for got, expected in zip(networks[name].as_list(), want.as_list(), strict=True):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
        for name, want in want_extras.items():
            assert extras[name].dtype == want.dtype and extras[name].tobytes() == want.tobytes()

        version = nn.CHECKPOINT_FORMAT_VERSION + 1
        with np.load(path) as data:
            payload = dict(data)
        payload["format_version"] = np.array(version)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=rf"^unsupported checkpoint format version {version}$"):
            nn.load_checkpoint(path)
