"""gravqm benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) with ``src/`` first on the path, so the code in
the checkout is measured, never an installed copy.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it records where gravqm was
imported from, the Python/numpy/scipy versions and the CPU.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import process_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frame-reference", "fixed-grid-series", "spectrum", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "latency_ms.p50": "ms",
}
PER_LAYER = {
    "dynamics.propagate.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.point_steps": "count",
    "dynamics.ns_per_point_step": "ns",
    "dynamics.moments.calls": "count",
    "dynamics.moments.self_s": "s",
    "core.norm_squared.calls": "count",
    "core.norm_squared.self_s": "s",
    "dynamics.shift_field.self_s": "s",
    "frames.to_stationary_frame.calls": "count",
    "frames.to_stationary_frame.self_s": "s",
    "dynamics.heisenberg_checks.self_s": "s",
    "airy.airy_ai.calls": "count",
    "airy.airy_ai.us_per_call": "us",
    "airy.airy_values.calls": "count",
    "airy.airy_values.self_s": "s",
    "airy.ai_negative_zero.calls": "count",
    "airy.ai_negative_zero.self_s": "s",
    "airy.ai_squared_tail.calls": "count",
    "bouncer.level.self_s": "s",
    "bouncer.eigenfunction.calls": "count",
    "bouncer.eigenfunction.self_s": "s",
    "frames.falling_box_state.calls": "count",
    "frames.falling_box_state.self_s": "s",
    "import.python_s": "s",
    "import.gravqm_s": "s",
    "import.gravqm_cli_s": "s",
    "cli.calls": "count",
    "cli.exit0": "count",
    "cli.exit2": "count",
    "dynamics.frame_mismatch": "1",
    "dynamics.off_mismatch": "1",
    "dynamics.norm_drift_max": "1",
    "dynamics.width_dev_max": "1",
    "airy.wronskian_worst": "1",
    "bouncer.norm_worst": "1",
    "trace.wall_s": "s",
}

SETUP_SAMPLES = 5     # fresh set-up-only workers per untraced run; setup_s is their median
IMPORT_SAMPLES = 3    # fresh interpreters per import probe in a traced run
DEADLINE_S = 170.0    # the whole run, workers included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _kill_at(proc: subprocess.Popen, deadline: float) -> threading.Timer:
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    return timer


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed ``ready``, the rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = _kill_at(proc, deadline)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return setup_s, rest


def _python(code: str, env: dict, deadline: float) -> tuple[float, str]:
    """Run ``python -c code``; return (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = _kill_at(proc, deadline)
    try:
        out = proc.communicate()[0]
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} exited with code {proc.returncode}")
    return time.perf_counter() - start, out


def import_times(env: dict, deadline: float) -> dict:
    """Bare interpreter start-up and the in-process import time of gravqm and its CLI."""
    timed_import = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    samples = {"import.python_s": [], "import.gravqm_s": [], "import.gravqm_cli_s": []}
    for _ in range(IMPORT_SAMPLES):
        samples["import.python_s"].append(_python("pass", env, deadline)[0])
        for name, module in (("import.gravqm_s", "gravqm"), ("import.gravqm_cli_s", "gravqm.cli")):
            samples[name].append(float(_python(timed_import.format(module), env, deadline)[1]))
    return {name: statistics.median(values) for name, values in samples.items()}


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """(q, value): the highest nearest-rank quantile with ``beyond`` samples above it.

    With 100 samples that is p90; with fewer than ``beyond + 1`` there is none.
    """
    rank = len(samples) - beyond
    if rank < 1:
        return None
    return rank / len(samples), sorted(samples)[rank - 1]


def _latencies(raw: dict) -> list[float]:
    """Every operation latency of the run, host-normalized."""
    return [s / f for p in raw["passes"] for s, f in zip(p["latencies_s"], p["factors"])]


def _pass_walls(raw: dict) -> list[float]:
    """Host-normalized time of each pass: the sum of its operations' latencies."""
    return [sum(s / f for s, f in zip(p["latencies_s"], p["factors"])) for p in raw["passes"]]


def end_to_end_metrics(raw: dict, setups: list[tuple[float, float]]) -> dict:
    """Medians of host-normalized times; ``setups`` holds (seconds, host factor) pairs."""
    return {
        "setup_s": statistics.median(s / f for s, f in setups),
        "wall_s": statistics.median(_pass_walls(raw)),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_ms.p50": 1e3 * statistics.median(_latencies(raw)),
    }


def raw_metrics(raw: dict, setups: list[tuple[float, float]]) -> dict:
    """The same medians before normalization, with the median host factors."""
    return {
        "raw_setup_s": statistics.median(s for s, _ in setups) if setups else None,
        "raw_wall_s": statistics.median(sum(p["latencies_s"]) for p in raw["passes"]),
        "raw_latency_ms.p50": 1e3 * statistics.median(
            s for p in raw["passes"] for s in p["latencies_s"]),
        "factor": statistics.median(f for p in raw["passes"] for f in p["factors"]),
        "setup_factor": statistics.median(f for _, f in setups) if setups else None,
    }


def per_layer_metrics(raw: dict, imports: dict) -> dict:
    """Per-layer values from a traced run: counts of one pass, medians of times.

    Counts must repeat exactly in every pass; a pass that differs means the
    work depends on timing, and the run is refused.
    """
    traces = [p["trace"] for p in raw["passes"]]
    counts = [(t["calls"], t["steps"], t["point_steps"], p["counts"])
              for t, p in zip(traces, raw["passes"])]
    if any(c != counts[0] for c in counts[1:]):
        raise BenchError("traced counts differ between passes")
    first = traces[0]

    def per_pass(fn) -> float:
        return statistics.median(fn(t) for t in traces)

    def ratio(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    values = {
        "dynamics.steps": first["steps"],
        "dynamics.point_steps": first["point_steps"],
        "dynamics.ns_per_point_step": per_pass(
            lambda t: ratio(t["self_s"].get("dynamics.propagate", 0.0), t["point_steps"], 1e9)),
        "airy.airy_ai.us_per_call": per_pass(
            lambda t: ratio(t["self_s"].get("airy.airy_ai", 0.0),
                            t["calls"].get("airy.airy_ai", 0), 1e6)),
        "trace.wall_s": statistics.median(_pass_walls(raw)),
        **imports,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if name.startswith("cli."):
            values[name] = raw["passes"][0]["counts"].get(name, 0)
        elif kind == "calls":
            values[name] = first["calls"].get(span, 0)
        elif kind == "self_s":
            values[name] = per_pass(lambda t: t["self_s"].get(span, 0.0))
        else:  # a bound margin; 0 where the workload does not exercise it
            values[name] = raw["margins"].get(name, 0.0)
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summary(workload: str, raw: dict, metrics: dict) -> str:
    """Human-readable detail for standard error: samples, tail latency, margins."""
    latencies = [1e3 * s for s in _latencies(raw)]
    tail = tail_percentile(latencies)
    tail = f"p{100 * tail[0]:.0f} {tail[1]:.1f} ms" if tail else "no tail percentile"
    lines = [
        f"{workload}: {len(raw['passes'])} passes, {raw['attempted']} operations "
        f"({raw['failed']} failed), latency n={len(latencies)}, {tail}",
        "metrics: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
        "margins: " + ", ".join(f"{k}={v:.3e}" for k, v in sorted(raw["margins"].items())),
        *raw["failures"],
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gravqm" / "__init__.py").is_file():
        print(f"no gravqm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        # set-up is a process start and imports: calibrate it by the reference
        # process, run before the first sample and after each one
        setups = []  # (seconds, mean host factor just before and just after)
        marks = [] if args.trace else [process_factor(env)]
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            setup_s = run_worker([*common, "--setup-only"], env, deadline)[0]
            marks.append(process_factor(env))
            setups.append((setup_s, 0.5 * (marks[-2] + marks[-1])))
        out = run_worker([*common, "--trace", str(args.trace)], env, deadline)[1]
        raw = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            metrics = per_layer_metrics(raw, import_times(env, deadline))
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(raw, setups)
            units = END_TO_END
    except (BenchError, OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    print(summary(args.workload, raw, metrics), file=sys.stderr)
    provenance = {**raw["provenance"], "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                  "workload": args.workload, "seed": args.seed, "passes": len(raw["passes"]),
                  "latency_samples": sum(len(p["latencies_s"]) for p in raw["passes"]),
                  **raw_metrics(raw, setups)}
    print("# " + json.dumps(provenance))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
