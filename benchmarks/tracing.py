"""Outside-in span tracing of the dotgate layers.

``Tracer.install`` swaps attributes of the ``dotgate.sim``, ``dotgate.nn``,
``dotgate.env``, ``dotgate.agents.ppo``, ``dotgate.agents.td``,
``dotgate.cli`` and ``dotgate.config`` modules, and the ``GateEnv`` step
and reset methods, for timing wrappers.  The package looks these names up
at call time, so every call goes through a wrapper without any edit to the
package; ``uninstall`` puts the originals back.  The private ``_Worker``
and ``td._update`` are not wrapped: their calls into ``nn`` and ``env``
are seen, and their own time lands in the caller's self time.

Spans (name, start, end, parent) are kept in memory as flat integer
arrays and written out once, by ``save``.  Counts that need a call's
arguments or result (rows, elements, boundary hits, failed phase
compensations, episode ends) are recorded by the same wrappers.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from dotgate import cli, config, env, nn, sim
from dotgate.agents import ppo, td

SIM_FUNCTIONS = (
    "build_hamiltonian", "evolve_step", "accumulate",
    "project_to_computational", "try_phase_compensate", "gate_fidelity",
)
VALUE_NET_OUT_DIM = 1  # the PPO value net is the only one-output network


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.episode_ends: list[tuple[int, bool, float, float]] = []

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def mark(self) -> int:
        """Index of the next span; pass it to ``aggregate`` after an op."""
        self.counts = Counter()
        self.episode_ends = []
        return len(self.start)

    def aggregate(self, first: int) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns) of spans since ``first``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        nid = np.asarray(self.name_id[first:], dtype=np.int64)
        dur = (np.asarray(self.end[first:], dtype=np.int64)
               - np.asarray(self.start[first:], dtype=np.int64))
        parent = np.asarray(self.parent[first:], dtype=np.int64) - first
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child_ns
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_ns, minlength=k)
        return {
            name: (int(calls[i]), int(total[i]), int(own[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
        )

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)
        span_name = (lambda _args: name) if isinstance(name, str) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            out = self._span(span_name(args), fn, args, kwargs)
            if after is not None:
                after(args, out)
            return out

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for f in SIM_FUNCTIONS:
            after = self._after_compensate if f == "try_phase_compensate" else None
            self._wrap(sim, f, f"sim.{f}", after=after)
        for method in ("step_discrete", "step_continuous"):
            self._wrap(env.GateEnv, method, "env.step", after=self._after_step)
        self._wrap(env.GateEnv, "reset", "env.reset")
        replay = self._wrap(env, "replay_schedule", "env.replay_schedule")
        # cli imported replay_schedule by name, so its copy is swapped too.
        self._originals.append((cli, "replay_schedule", cli.replay_schedule))
        cli.replay_schedule = replay

        self._wrap(nn, "forward", _row_or_batch("nn.forward", lambda a: a[1]),
                   before=self._before_forward)
        self._wrap(nn, "backward", _row_or_batch("nn.backward", lambda a: a[1][0]),
                   before=self._before_backward)
        self._wrap(nn, "adam_update", "nn.adam_update", before=self._before_adam)
        self._wrap(nn, "gaussian_logprob", "nn.gaussian_logprob")
        self._wrap(nn, "mse_loss", "nn.mse_loss")

        self._wrap(ppo, "gae", "ppo.gae")
        self._wrap(ppo, "ppo_loss", "ppo.ppo_loss")
        self._wrap(ppo, "train_ppo", "ppo.train_ppo")
        self._wrap(td, "train_td", "td.train_td")
        self._wrap(cli, "run_replay", "cli.run_replay")
        self._wrap(config, "config_from_dict", "config.config_from_dict")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    # -- counters ---------------------------------------------------------

    def _within(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_id[i] == nid for i in self._stack)

    def _before_forward(self, args):
        p, x = args[0], np.asarray(args[1])
        rows = x.shape[0] if x.ndim == 2 else 1
        if x.ndim == 2:
            self.counts["nn.forward.batch.rows"] += rows
        if p.out_dim == VALUE_NET_OUT_DIM and not self._within("ppo.ppo_loss"):
            self.counts["ppo.value_rows"] += rows

    def _before_backward(self, args):
        x = args[1][0]
        if x.ndim == 2:
            self.counts["nn.backward.batch.rows"] += x.shape[0]

    def _before_adam(self, args):
        self.counts["nn.adam_update.elems"] += sum(np.size(a) for a in args[0])

    def _after_compensate(self, _args, out):
        if not out[1]:
            self.counts["sim.compensate_failed"] += 1

    def _after_step(self, _args, res):
        step_index = self.counts["env.steps"]
        self.counts["env.steps"] += 1
        if res.info["boundary_hit"]:
            self.counts["env.boundary_hits"] += 1
        if res.terminated or res.truncated:
            self.episode_ends.append((
                step_index, res.terminated,
                res.info["fidelity"], res.info["gate_duration"],
            ))


def _row_or_batch(prefix, input_of):
    """Span name with a ``.row`` (1-D input) or ``.batch`` (2-D) bucket."""
    def name(args):
        return f"{prefix}.batch" if np.ndim(input_of(args)) == 2 else f"{prefix}.row"
    return name


# -- per-layer metrics ----------------------------------------------------

PER_LAYER_UNITS = {
    **{f"sim.{f}.self_us": "us" for f in SIM_FUNCTIONS},
    "sim.evolve_step.calls": "count",
    "sim.compensate_failed_ratio": "ratio",
    "env.step.self_us": "us",
    "env.reset.calls": "count",
    "env.replay_schedule.self_us": "us",
    "env.boundary_hit_ratio": "ratio",
    "nn.forward.row.self_us": "us",
    "nn.forward.row.calls": "count",
    "nn.forward.batch.self_us": "us",
    "nn.forward.batch.calls": "count",
    "nn.forward.batch.rows": "count",
    "nn.backward.row.self_us": "us",
    "nn.backward.row.calls": "count",
    "nn.backward.batch.self_us": "us",
    "nn.backward.batch.calls": "count",
    "nn.backward.batch.rows": "count",
    "nn.adam_update.self_us": "us",
    "nn.adam_update.calls": "count",
    "nn.adam_update.elems": "count",
    "nn.gaussian_logprob.self_us": "us",
    "nn.mse_loss.self_us": "us",
    "ppo.update_ms": "ms",
    "ppo.rollout_ms": "ms",
    "ppo.gae.self_us": "us",
    "ppo.ppo_loss.self_us": "us",
    "ppo.value_rows_per_sample": "rows/sample",
    "ppo.iters_to_target": "count",
    "td.loop.self_us": "us",
    "td.episodes_to_target": "count",
    "cli.run_replay.self_ms": "ms",
    "config.config_from_dict.ms": "ms",
    "trace_overhead": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg, counts, episode_ends, op) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Times are per call (``td.loop.self_us`` per transition, the ``ppo.*_ms``
    per iteration); counts are per operation.  A layer the workload does
    not reach reads 0.
    """
    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def self_us(name, per=None):
        n, _, own = agg.get(name, (0, 0, 0))
        return _ratio(own, n if per is None else per) / 1e3

    steps = counts["env.steps"]
    m = {f"sim.{f}.self_us": self_us(f"sim.{f}") for f in SIM_FUNCTIONS}
    m["sim.evolve_step.calls"] = calls("sim.evolve_step")
    m["sim.compensate_failed_ratio"] = _ratio(
        counts["sim.compensate_failed"], calls("sim.try_phase_compensate")
    )
    m["env.step.self_us"] = self_us("env.step")
    m["env.reset.calls"] = calls("env.reset")
    m["env.replay_schedule.self_us"] = self_us("env.replay_schedule")
    m["env.boundary_hit_ratio"] = _ratio(counts["env.boundary_hits"], steps)
    for fn in ("forward", "backward"):
        for bucket in ("row", "batch"):
            m[f"nn.{fn}.{bucket}.self_us"] = self_us(f"nn.{fn}.{bucket}")
            m[f"nn.{fn}.{bucket}.calls"] = calls(f"nn.{fn}.{bucket}")
        m[f"nn.{fn}.batch.rows"] = counts[f"nn.{fn}.batch.rows"]
    m["nn.adam_update.self_us"] = self_us("nn.adam_update")
    m["nn.adam_update.calls"] = calls("nn.adam_update")
    m["nn.adam_update.elems"] = counts["nn.adam_update.elems"]
    m["nn.gaussian_logprob.self_us"] = self_us("nn.gaussian_logprob")
    m["nn.mse_loss.self_us"] = self_us("nn.mse_loss")

    iters = op.iterations
    if iters:
        update_ns = agg["ppo.ppo_loss"][1] + agg["nn.adam_update"][1]
        m["ppo.update_ms"] = update_ns / iters / 1e6
        m["ppo.rollout_ms"] = sum(w for w, _ in op.units) / iters - m["ppo.update_ms"]
        m["ppo.value_rows_per_sample"] = _ratio(counts["ppo.value_rows"], steps)
        m["ppo.iters_to_target"] = _iters_to_target(episode_ends, iters)
    else:
        for k in ("update_ms", "rollout_ms", "value_rows_per_sample", "iters_to_target"):
            m[f"ppo.{k}"] = 0.0
    m["ppo.gae.self_us"] = self_us("ppo.gae")
    m["ppo.ppo_loss.self_us"] = self_us("ppo.ppo_loss")
    m["td.loop.self_us"] = self_us("td.train_td", per=steps)
    m["td.episodes_to_target"] = op.episodes_to_target
    m["cli.run_replay.self_ms"] = self_us("cli.run_replay") / 1e3
    n, total, _ = agg.get("config.config_from_dict", (0, 0, 0))
    m["config.config_from_dict.ms"] = _ratio(total, n) / 1e6
    return m


def _iters_to_target(episode_ends, iterations) -> int:
    """First iteration (1-based) in which train_ppo's stop rule would fire.

    An iteration's rollout is exactly n_envs * horizon env steps, so the
    step index of a qualifying episode end names its iteration.  Reads
    iterations + 1 when no episode qualified.
    """
    cfg = ppo.PpoConfig()
    per_iteration = cfg.n_envs * cfg.horizon
    for step_index, terminated, fidelity, duration in episode_ends:
        if (terminated and fidelity > cfg.target_fidelity
                and duration <= cfg.target_duration):
            return step_index // per_iteration + 1
    return iterations + 1


def count_witness(agg, counts) -> dict[str, int]:
    """Every call, row, element and step count of one operation."""
    out = {f"{name}.calls": n for name, (n, _, _) in agg.items()}
    out.update(counts)
    return dict(sorted(out.items()))
