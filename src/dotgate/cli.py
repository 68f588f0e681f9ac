"""pulsectl: command-line harness for gate-design experiments.

Subcommands:
  validate <config>                   check a config file
  train <config>                      run the configured algorithm
  replay <schedule.csv>               re-evolve a stored pulse schedule
  export-plots <run_dir>              re-derive plot data from a run

A run directory contains: config.json (canonical serialized config),
metrics.jsonl, best_schedule.csv, checkpoint.npz, manifest.json, and
tab-separated plot-data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod, nn, sim
from .agents import train_ppo, train_td
from .env import EnvConfig, GateEnv, PulseSchedule, replay_schedule

OUTPUT_DIR_ENV_VAR = "PULSECTL_OUTPUT_DIR"

TRAILING_WINDOW = 10

# The plot-data files export_plots derives from best_schedule.csv.
SCHEDULE_PLOT_FILES = (
    "tunnel_vs_time.tsv", "detuning_vs_time.tsv", "bias0_vs_time.tsv", "bias1_vs_time.tsv",
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# The metrics.jsonl keys of the stats fields whose key is not their name.
_METRIC_KEYS = {
    "episode_return": "return", "mean_return": "return",
    "mean_final_fidelity": "final_fidelity",
    "gate_duration": "gate_duration_ns", "best_duration": "gate_duration_ns",
}


def _metrics_line(stats, seed: int) -> str:
    """One metrics.jsonl line: every field of a TD ``EpisodeStats`` or PPO
    ``IterationStats`` except the wall-clock ``wall_ms``, keyed by
    ``_METRIC_KEYS``, plus the run's seed, as sorted-key strict JSON: an
    infinite stat (no episode ended yet) is null, as in the manifest."""
    record = {_METRIC_KEYS.get(k, k): None if np.isinf(v) else v
              for k, v in dataclasses.asdict(stats).items() if k != "wall_ms"}
    record["seed"] = seed
    try:
        return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        bad = sorted(key for key, v in record.items() if v != v)
        raise ValueError(f"metrics stats {bad} are not finite") from None


def run_train(cfg: cfgmod.ExperimentConfig) -> dict:
    """Execute the configured algorithm and write all run artifacts.

    ``metrics.jsonl`` holds one ``_metrics_line`` per episode (TD) or
    iteration (PPO), so a field added to the stats reaches it by itself."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _now()
    config_bytes = cfgmod.canonical_bytes(cfg)
    (out / "config.json").write_bytes(config_bytes)

    if cfg.algorithm in ("qlearning", "sarsa"):
        result = train_td(GateEnv(cfg.env), cfg.algorithm, cfg.td, seed=cfg.seed)
        nn.save_checkpoint(out / "checkpoint.npz", {"q": result.params})
    else:
        result = train_ppo(lambda: GateEnv(cfg.env), cfg.ppo, seed=cfg.seed)
        nn.save_checkpoint(
            out / "checkpoint.npz",
            {"policy": result.policy, "value": result.value},
            extras={"log_std": result.log_std},
        )

    with open(out / "metrics.jsonl", "w") as fh:
        for stats in result.stats:
            fh.write(_metrics_line(stats, cfg.seed))

    # A reused directory may hold an earlier run's schedule; this run's
    # plots must not be derived from it.
    if result.best_schedule is not None:
        result.best_schedule.to_csv(out / "best_schedule.csv")
    else:
        (out / "best_schedule.csv").unlink(missing_ok=True)

    manifest = {
        "config_digest": cfgmod.digest_bytes(config_bytes),
        "toolkit_version": __version__,
        "started_at": started,
        "ended_at": _now(),
        "seed": cfg.seed,
        "result": {
            "best_fidelity": result.best_fidelity,
            "best_duration_ns": result.best_duration
            if result.best_duration != float("inf")
            else None,
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    export_plots(out)
    return manifest


def verify_manifest(run_dir) -> bool:
    """True iff the stored config bytes still match the manifest digest."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    stored = (run_dir / "config.json").read_bytes()
    return cfgmod.digest_bytes(stored) == manifest["config_digest"]


def _write_tsv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(f"{v:.15g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def export_plots(run_dir) -> list[Path]:
    """Re-derive plot-data TSVs from the stored metrics and best schedule.

    A metrics line that is not a JSON object with a finite number as
    ``final_fidelity`` and an integer >= 0 as ``episode`` or ``iteration``
    raises ValueError naming the file and the line.  The schedule TSVs time
    each row as step * dt, with the run's dt read from its config.json.
    Without a best schedule, the schedule TSVs are removed, so none is left
    from an earlier run in the same directory."""
    run_dir = Path(run_dir)
    metrics_path = run_dir / "metrics.jsonl"
    if not metrics_path.exists():
        raise FileNotFoundError(f"no metrics.jsonl under {run_dir}")
    fidelities = []
    with open(metrics_path) as fh:
        for number, line in enumerate(fh, 1):
            where = f"{metrics_path} line {number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}, column {exc.colno}: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(record).__name__}")
            if "final_fidelity" not in record:
                raise ValueError(f"{where}: no final_fidelity")
            fidelity = record["final_fidelity"]
            if type(fidelity) not in (int, float) or not np.isfinite(fidelity):
                raise ValueError(f"{where}: final_fidelity {fidelity!r} is not a finite number")
            key = "episode" if "episode" in record else "iteration"
            if key not in record:
                raise ValueError(f"{where}: no episode or iteration")
            episode = record[key]
            if type(episode) is not int or episode < 0:
                raise ValueError(f"{where}: {key} {episode!r} is not an integer >= 0")
            fidelities.append((episode, fidelity))
    written = []

    rows = []
    for i in range(TRAILING_WINDOW - 1, len(fidelities)):
        window = [f for _, f in fidelities[i - TRAILING_WINDOW + 1 : i + 1]]
        rows.append((fidelities[i][0], float(np.mean(window))))
    path = run_dir / "fidelity_vs_episode.tsv"
    _write_tsv(path, ["episode", "mean_fidelity_trailing10"], rows)
    written.append(path)

    schedule_path = run_dir / "best_schedule.csv"
    if schedule_path.exists():
        schedule = PulseSchedule.from_csv(schedule_path)
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise FileNotFoundError(f"no config.json under {run_dir}")
        dt = cfgmod.config_from_dict(json.loads(config_path.read_text())).env.dt
        eps0, eps1, tun = np.asarray(schedule).T
        # tolist: each value prints as the Python float it is, not a numpy repr.
        times = (np.arange(len(schedule)) * dt).tolist()
        series = (
            ("tunnel_ghz", tun),
            ("detuning_ghz", eps0 - eps1),
            ("bias0_ghz", eps0),
            ("bias1_ghz", eps1),
        )
        for fname, (col, values) in zip(SCHEDULE_PLOT_FILES, series):
            path = run_dir / fname
            _write_tsv(path, ["time_ns", col], zip(times, values.tolist()))
            written.append(path)
    else:
        for fname in SCHEDULE_PLOT_FILES:
            (run_dir / fname).unlink(missing_ok=True)
    return written


def run_replay(schedule_path, env_config: EnvConfig, sweep_duration: int | None = None) -> dict:
    """Replay a schedule (or sweep a constant pulse) through the simulator.

    Every row is validated, also in sweep mode, which holds the first row's
    controls for ``sweep_duration`` steps of ``env_config.dt``; out of bounds
    or non-finite controls raise ValueError naming the row (as ``step t``,
    counted from 0) and the control.  A sweep below 1 step raises ValueError
    naming it.
    """
    if sweep_duration is not None and sweep_duration < 1:
        raise ValueError(f"sweep duration {sweep_duration} must be >= 1 step")
    schedule = PulseSchedule.from_csv(schedule_path)
    if sweep_duration is not None:
        # replay_schedule validates what it replays; a sweep drops all but row 0.
        params = sim.HamiltonianParams(np.asarray(schedule), env_config.u, env_config.ez)
        controls = params.validate()
        if not len(controls):
            raise ValueError("sweep needs at least one schedule row for the controls")
        schedule = np.repeat(controls[:1], sweep_duration, axis=0)

    report, trace = replay_schedule(schedule, env_config)
    out = {
        "final_fidelity": report.fidelity,
        "unitarity_trace": report.unitarity_trace,
        "overlap": report.overlap,
        "steps": len(trace),
        "fidelity_trace": trace,
    }
    if sweep_duration is not None:
        best = trace.index(max(trace))  # the first maximum, as np.argmax
        out["best_duration_ns"] = (best + 1) * env_config.dt
        out["best_fidelity"] = trace[best]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulsectl",
        description="design and inspect CZ gate pulses for a two-dot spin-qubit system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a config file")
    p_validate.add_argument("config")

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("config")
    p_train.add_argument("--output-dir", help="override the config output_dir")

    p_replay = sub.add_parser("replay", help="replay a pulse schedule CSV")
    p_replay.add_argument("schedule")
    p_replay.add_argument("--config", help="experiment config supplying physics constants")
    p_replay.add_argument(
        "--sweep-duration", type=int, metavar="N",
        help="hold the first row's controls constant for 1..N steps of the config's dt",
    )
    p_replay.add_argument("--trace", action="store_true", help="print the per-step fidelity trace")

    p_export = sub.add_parser("export-plots", help="re-derive plot data files from a run")
    p_export.add_argument("run_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            cfg = cfgmod.parse_config(args.config)
            print(f"ok: {args.config} (digest {cfgmod.config_digest(cfg)[:12]})")
        elif args.command == "train":
            cfg = cfgmod.parse_config(args.config)
            override = args.output_dir or os.environ.get(OUTPUT_DIR_ENV_VAR)
            if override:
                cfg = dataclasses.replace(cfg, output_dir=override)
            manifest = run_train(cfg)
            print(json.dumps(manifest["result"], indent=2))
        elif args.command == "replay":
            env_config = (
                cfgmod.parse_config(args.config).env if args.config else EnvConfig()
            )
            out = run_replay(args.schedule, env_config, args.sweep_duration)
            if not args.trace:
                out.pop("fidelity_trace")
            print(json.dumps(out, indent=2))
        elif args.command == "export-plots":
            for path in export_plots(args.run_dir):
                print(path)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
