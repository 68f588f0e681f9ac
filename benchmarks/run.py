"""Fixed-work benchmark of dotgate's user-facing workloads.

    python3 benchmarks/run.py --workload ppo_train [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py                 # every workload, one process each

A run builds nothing: it imports ``dotgate`` from ``src/`` of the tree it
sits in and fails (exit 2) when that is missing.  It repeats one
fixed-work operation (see workloads.py) in a closed loop, one caller in
one process with OpenBLAS held at one thread, until ``--seconds`` have
passed; the first timed unit is a warm-up and is left out.  Every
operation's output is checked; an exception, a failed check or a
determinism-witness mismatch counts as a failed operation.  Each metric is
printed by name with its unit, and the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced:
``steps_per_s``, ``latency_ms_p50`` / ``latency_ms_p90`` (of the
workload's unit: a PPO iteration, a TD transition, a replay sweep) and
``setup_s`` (median of several cold-start probes).  ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics (medians over traced operations) plus ``trace_overhead``, the
untraced over the traced ``steps_per_s``, minus 1.

Every time is scaled to a nominal host speed measured by reference
slices taken during the run (see calibration.py); the unscaled figures
are printed beside the scaled ones.  A full record of the run, and in
traced runs every span, is written under ``benchmarks/out/``.
"""

import os

# Held fixed before numpy loads, so that all load comes from one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
}


def _git_sha() -> str:
    """HEAD of the tree's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> tuple[str | None, int | None]:
    """Version and live thread count of the OpenBLAS numpy loaded."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        version = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, fn()
    return version, None


def _environment(workload, seed, args) -> dict:
    import numpy as np

    blas_version, blas_threads = _openblas()
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_version": blas_version,
        "openblas_threads": blas_threads,
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "held_out_seed": workload.held_out_seed,
        "sizes": workload.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes": SETUP_PROBES,
    }


@dataclass
class Timed:
    """One successful operation: its checked output and when it ran."""

    op: object
    start: float
    end: float
    units: list[tuple[float, float, float, int]]  # (start, end, wall ms, steps)
    layer: dict | None = None


class Runner:
    """Runs, times and checks operations; tallies failures and witnesses."""

    def __init__(self, workload, seed, reference, tracing):
        self.workload = workload
        self.seed = seed
        self.ref = reference
        self.tracing = tracing
        self.arg = workload.prepare(seed, OUT)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.witness: str | None = None
        self.counts: dict | None = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"failed operation {self.attempted}: {message}", file=sys.stderr)

    def probe(self) -> tuple[float, float] | None:
        """(start, end) of a cold interpreter's run up to its first step."""
        self.attempted += 1
        self.ref.take_if_due()
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), self.workload.name,
                 str(self.seed)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self._fail(f"set-up probe still running after {PROBE_TIMEOUT_S} s")
            return None
        t1 = time.perf_counter()
        self.ref.take()
        if done.returncode != 0:
            self._fail(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
            return None
        return t0, t1

    def operation(self, tracer=None) -> Timed | None:
        """Run, time and check one operation; None when it failed.

        Untraced, a reference slice is taken whenever one is due between
        timed units.  Traced, slices bracket the whole operation instead,
        so that none lands inside a span.
        """
        self.attempted += 1
        unit_ends: list[float] = []

        def on_unit():
            unit_ends.append(time.perf_counter())
            if tracer is None:
                self.ref.take_if_due()

        try:
            if tracer is not None:
                first = tracer.mark()
                self.ref.take()
                tracer.install()
            t0 = time.perf_counter()
            try:
                raw = self.workload.run(self.arg, on_unit)
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                self.ref.take()
            else:
                self.ref.take_if_due()
            op = self.workload.check(raw)
            if op.units:
                units = [(end - wall / 1e3, end, wall, steps)
                         for end, (wall, steps) in zip(unit_ends, op.units, strict=True)]
            else:
                units = [(t0, t1, (t1 - t0) * 1e3, op.steps)]
            timed = Timed(op, t0, t1, units)
            if tracer is not None:
                agg = tracer.aggregate(first)
                timed.layer = self.tracing.layer_metrics(
                    agg, tracer.counts, tracer.episode_ends, op
                )
                counts = self.tracing.count_witness(agg, tracer.counts)
        except Exception:  # one broken operation must not end the run
            self._fail(traceback.format_exc())
            return None
        if op.problems:
            self._fail("; ".join(op.problems))
            return None
        if self.witness is None:
            self.witness = op.witness
        elif op.witness != self.witness:
            self._fail(f"witness {op.witness} differs from {self.witness}")
            return None
        if tracer is not None:
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                diff = {k for k in counts.keys() | self.counts.keys()
                        if counts.get(k) != self.counts.get(k)}
                self._fail(f"layer counts differ between operations: {sorted(diff)}")
                return None
        return timed


def _units(runs) -> list[tuple[float, float, float, int]]:
    return [u for run in runs for u in run.units]


def _throughput(units, ref, scaled=True) -> float:
    """Steps per second over the given units, optionally speed-scaled."""
    seconds = sum(
        wall_ms / 1e3 * (ref.factor(a, b) if scaled else 1.0) for a, b, wall_ms, _ in units
    )
    return sum(n for *_, n in units) / seconds


def _latencies(units, ref, per_step, scaled=True) -> list[float]:
    return [
        wall_ms * (ref.factor(a, b) if scaled else 1.0) / (n if per_step else 1)
        for a, b, wall_ms, n in units
    ]


def _p50_p90(samples) -> tuple[float, float]:
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), deciles[8]


def _measure(runner, args) -> tuple[dict, dict]:
    """The run proper: returns (metrics, details)."""
    ref, tracing = runner.ref, runner.tracing
    tracer = tracing.Tracer() if args.trace else None
    ref.take()
    probes = [] if args.trace else [runner.probe() for _ in range(SETUP_PROBES)]
    probes = [p for p in probes if p is not None]
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        run = runner.operation()
        if run is not None:
            plain.append(run)
        if tracer is not None:
            run = runner.operation(tracer)
            if run is not None:
                traced.append(run)
    ref.take()  # closes the bracket of the last unit
    if not plain or (tracer is not None and not traced) or (not args.trace and not probes):
        raise RuntimeError("no operation succeeded; nothing to report")

    # The run's first unit is its warm-up: it fills caches and finishes
    # lazy set-up, and is checked but left out of every figure.
    units = _units(plain)[1:]
    if not units:
        raise RuntimeError("only the warm-up unit ran; raise --seconds")
    per_step = runner.workload.latency_per_step
    details = {
        "timeline": {
            "slices": [ref.starts, ref.ends, ref.kernel_seconds],
            "units": units,
        },
        "reference_slices": len(ref.seconds),
        "reference_ms_median": statistics.median(ref.seconds) * 1e3,
        "reference_nominal_ms": ref.nominal_s * 1e3,
    }
    if tracer is None:
        latencies = _latencies(units, ref, per_step)
        raw = _latencies(units, ref, per_step, scaled=False)
        setup = [(b - a) * ref.factor(a, b) for a, b in probes]
        metrics = {"steps_per_s": _throughput(units, ref)}
        metrics["latency_ms_p50"], metrics["latency_ms_p90"] = _p50_p90(latencies)
        metrics["setup_s"] = statistics.median(setup)
        raw_p50, raw_p90 = _p50_p90(raw)
        details["unscaled"] = {
            "steps_per_s": _throughput(units, ref, scaled=False),
            "latency_ms_p50": raw_p50,
            "latency_ms_p90": raw_p90,
            "setup_s": statistics.median(b - a for a, b in probes),
        }
        details["samples"] = {"operations": len(plain), "latency": len(latencies),
                              "setup": len(setup)}
        return metrics, details

    tracer.save(OUT / f"{runner.workload.name}-seed{runner.seed}.spans.npz")
    timed_units = {"us", "ms"}
    scaled = []
    for run in traced:
        f = ref.factor(run.start, run.end)
        scaled.append({
            name: value * f if tracing.PER_LAYER_UNITS[name] in timed_units else value
            for name, value in run.layer.items()
        })
    metrics = {
        name: statistics.median(layer[name] for layer in scaled)
        for name in tracing.PER_LAYER_UNITS if name != "trace_overhead"
    }
    metrics["trace_overhead"] = _throughput(units, ref) / _throughput(_units(traced), ref) - 1.0
    details["samples"] = {"operations": len(traced), "untraced_operations": len(plain),
                          "spans": len(tracer.start)}
    return metrics, details


def _run_all(args, names) -> int:
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    if not (SRC / "dotgate" / "__init__.py").is_file():
        print(f"error: no dotgate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibration
    import dotgate
    import tracing
    import workloads

    if not Path(dotgate.__file__).resolve().is_relative_to(SRC):
        print(f"error: dotgate imported from {dotgate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, help="workload seed (default: PPO 201, TD 101)")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else (workload.default_seed or 0)
    environment = _environment(workload, seed, args)
    print("environment " + json.dumps(environment))

    runner = Runner(workload, seed, calibration.Reference(workload.kernels), tracing)
    try:
        metrics, details = _measure(runner, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    unscaled = details.get("unscaled", {})
    print(f"workload {workload.name}: latency unit is {workload.unit}")
    print(f"details {json.dumps({k: v for k, v in details.items() if k not in ('unscaled', 'timeline')})}")
    for name, value in metrics.items():
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:<34} {value:>16.6g} {units[name]}{raw}")
    share = runner.failed / runner.attempted
    print(f"  {'failed_op_share':<34} {share:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    print(f"witness {runner.witness}")
    if runner.counts is not None:
        print("layer counts " + json.dumps(runner.counts))

    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "environment": environment,
        "metrics": metrics,
        "details": details,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_op_share": share,
        "problems": runner.problems,
        "witness": runner.witness,
        "layer_counts": runner.counts,
    }
    report = OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    report.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
