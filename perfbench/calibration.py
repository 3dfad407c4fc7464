"""Host-speed calibration for the timed metrics.

The machines this benchmark runs on are shared: the same CPU-bound code runs
up to 2.5 times slower for seconds to minutes at a time, and process CPU
time slows down with wall time, so neither clock removes it.  Each timed
operation is therefore paired with the time of a fixed reference that runs
no gravqm code, measured just before and just after it (and, for a
kernel, every ``interval`` seconds while it runs), and reported
as ``measured / factor``, where ``factor`` is the reference's time over its
time on a quiet host.  The value is then the time the same work would take
on a host that runs the reference in its quiet time.  The raw measurements
are printed next to every result.

Host noise slows different kinds of work by different amounts, so each
workload is calibrated by the reference that tracks it best (measured in
perfbench/README.md):

- the ``python`` kernel, a pure Python loop: the scalar Airy code;
- the ``cn-4096`` and ``cn-32768`` kernels, Crank-Nicolson-like steps (a
  sparse LU solve plus numpy updates) on a fixed tridiagonal system of that
  many points: gravqm's propagations, which a slowdown hits less than it
  hits pure Python;
- the reference process, a fresh interpreter that imports numpy and
  scipy.sparse, the libraries gravqm imports: a ``python -m gravqm.cli``
  call and a worker's set-up, which are mostly process start and imports.
  The reference imports the libraries itself, so a change to what gravqm
  imports, or to its own start-up, still shows in full.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

# Times on the host the first baseline was measured on (2-core Intel Xeon
# virtual machine, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), in its
# fastest tenth.
REFERENCE_S = {"python": 0.0048, "cn-4096": 0.0050, "cn-32768": 0.0105}
REFERENCE_PROCESS_S = 0.28

KERNEL_SAMPLES = 3  # kernel runs at an operation boundary; their median counts


def _python_kernel() -> None:
    acc = 0.0
    for i in range(60_000):
        acc += (i % 7) * 0.5 - acc * 1e-9


def _cn_kernel(n_points: int, n_steps: int):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 0.01 + 0.001j
    off = np.full(n_points - 1, h)
    lu = spla.splu(sp.diags([off, np.full(n_points, 1.0 - 2.0 * h), off], [-1, 0, 1],
                            format="csc"))
    psi0 = np.exp(-np.linspace(-5.0, 5.0, n_points) ** 2) + 0j

    def kernel() -> None:
        psi = psi0
        for _ in range(n_steps):
            rhs = 0.98 * psi
            rhs[:-1] += 0.01 * psi[1:]
            rhs[1:] += 0.01 * psi[:-1]
            psi = lu.solve(rhs)

    return kernel


def _kernel(kind: str):
    if kind == "python":
        return _python_kernel
    n_points, n_steps = {"cn-4096": (4096, 40), "cn-32768": (32768, 10)}[kind]
    return _cn_kernel(n_points, n_steps)


def _serve(kind: str) -> None:
    """Helper process: for each line ``n`` on stdin, print the median time of n kernel runs."""
    kernel = _kernel(kind)
    print("ready", flush=True)
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        print(statistics.median(times), flush=True)


class KernelHost:
    """One calibration kernel, run on request in a helper process of its own.

    The Crank-Nicolson kernels import scipy and hold an LU factorization; in
    a process of their own they add nothing to the worker's set-up time or
    peak memory, which the benchmark reports.  The helper times the kernel
    itself, so the pipe's latency is not counted.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._proc = subprocess.Popen([sys.executable, __file__, kind], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"kernel helper {kind} did not start")

    def factor(self, runs: int = KERNEL_SAMPLES) -> float:
        """How much slower than the quiet baseline host this host runs the kernel now.

        The median of ``runs`` runs.
        """
        self._proc.stdin.write(f"{runs}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline()) / REFERENCE_S[self.kind]

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()

    def __enter__(self) -> "KernelHost":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class KernelSampler:
    """Times one kernel run every ``interval`` seconds while an operation runs.

    A SIGALRM handler asks ``host`` (a KernelHost) for one kernel run
    between the operation's bytecodes (a numpy call in progress finishes
    first).  ``factors`` are the host factors sampled; ``spent`` is the time
    the handler took, which the caller takes off the operation's latency.
    ``on_sample``, if given, is called with the time of each sample.  Main
    thread only.
    """

    def __init__(self, host, interval: float, on_sample=None):
        self.host = host
        self.interval = interval
        self.on_sample = on_sample
        self.factors: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a sample stalled past the next tick; the pipe is not re-entrant
            return
        self._busy = True
        start = time.perf_counter()
        self.factors.append(self.host.factor(1))
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        if self.on_sample is not None:
            self.on_sample(elapsed)
        self._busy = False

    def __enter__(self) -> "KernelSampler":
        self.factors, self.spent, self._busy = [], 0.0, False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def process_s(env: dict | None = None, timeout: float = 60.0) -> float:
    """Wall time of one fresh interpreter that imports numpy and scipy.sparse, in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy, scipy.sparse"], env=env,
                            stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def process_factor(env: dict | None = None) -> float:
    """How much slower than the quiet baseline host this host starts the reference process."""
    return process_s(env) / REFERENCE_PROCESS_S


if __name__ == "__main__":
    _serve(sys.argv[1])
