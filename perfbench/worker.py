"""One workload in one fresh process: set up, say "ready", run timed passes.

run.py starts this file with ``src/`` first on PYTHONPATH and BLAS/OpenMP
threads pinned to 1.  It prints ``ready`` as soon as every input is built
(run.py times set-up up to that line) and then, unless ``--setup-only``, one
JSON line with the raw measurements of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from calibration import KernelHost, KernelSampler, process_factor

ROOT = Path(__file__).resolve().parents[1]
WORK_PARENT = ROOT / ".perfbench_work"

# how each workload is calibrated (see calibration.py): the kernel
# and the interval at which it is sampled inside an operation; None for cli,
# whose calls are calibrated by the reference process
CALIBRATION = {
    "frame-reference": ("cn-32768", 0.5),
    "fixed-grid-series": ("cn-4096", 0.2),
    "spectrum": ("python", 0.2),
    "cli": None,
}

# bound margins whose worst case is the smallest value seen
_WORST_IS_MIN = {"dynamics.off_mismatch"}


def run_passes(ops, seconds: float, factor, sampler=None, tracer=None) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    A failed gate or an exception fails that operation only; the pass goes
    on.  Counts (``cli.*`` values) and trace snapshots are kept per pass, so
    they can be checked to repeat exactly.  The host factor (see
    calibration.py) is measured by ``factor()`` before the first operation
    and after each one, and by ``sampler`` (a KernelSampler, or None) while
    each runs.  An operation's factor is the median of the two around it
    and its samples (a sample caught by a preemption is an outlier), and the
    sampler's own time is taken off its latency.
    """
    sampler = sampler or contextlib.nullcontext(SimpleNamespace(factors=[], spent=0.0))
    passes, failures = [], []
    margins: dict[str, float] = {}
    attempted = failed = 0
    start = time.perf_counter()
    marks = [factor()]
    while True:
        if tracer is not None:
            tracer.reset()
        counts: Counter = Counter()
        latencies, samples = [], []
        for op in ops:
            op_start = time.perf_counter()
            with sampler as sampled:
                try:
                    values, op_failures = op.run()
                except Exception:
                    values, op_failures = {}, [f"{op.name} raised:\n{traceback.format_exc()}"]
            latencies.append(time.perf_counter() - op_start - sampled.spent)
            samples.append(sampled.factors)
            attempted += 1
            if op_failures:
                failed += 1
                failures.extend(op_failures)
            for key, value in values.items():
                if key.startswith("cli."):
                    counts[key] += value
                elif key in margins:
                    worst = min if key in _WORST_IS_MIN else max
                    margins[key] = worst(margins[key], value)
                else:
                    margins[key] = value
            marks.append(factor())
        passes.append({
            "latencies_s": latencies,
            "factors": [statistics.median([a, *during, b])
                        for a, b, during in zip(marks, marks[1:], samples)],
            "counts": dict(counts),
            "trace": tracer.snapshot() if tracer is not None else None,
        })
        marks = marks[-1:]
        if time.perf_counter() - start >= seconds:
            break
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "margins": margins,
    }


def _provenance() -> dict:
    import numpy
    import scipy

    import gravqm

    return {
        "gravqm_file": gravqm.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import gravqm

    if Path(gravqm.__file__).resolve().parent != (ROOT / "src" / "gravqm").resolve():
        print(f"gravqm imported from {gravqm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    WORK_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_PARENT) as workdir:
        ops = workloads.WORKLOADS[args.workload](args.seed, ROOT, Path(workdir))
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        calibration = CALIBRATION[args.workload]
        if calibration is None:
            result = run_passes(ops, args.seconds, process_factor, tracer=tracer)
        else:
            kind, interval = calibration
            with KernelHost(kind) as host:
                sampler = KernelSampler(host, interval, tracer.exclude if tracer else None)
                result = run_passes(ops, args.seconds, host.factor, sampler, tracer)

    # cli: the largest CLI child, which each call reports; otherwise this
    # process (ru_maxrss is KiB)
    if args.workload == "cli":
        result["peak_rss_mb"] = result["margins"].pop("peak_rss_mb")
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = _provenance()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
