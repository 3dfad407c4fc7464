"""Per-layer tracing: wrap gravqm's public functions where callers look them up.

Each traced call is a span.  Its self time is its duration minus the time
covered by traced calls made inside it, so nested layers (``level`` calling
``ai_negative_zero``, ``propagate_linear_potential`` calling ``moments``)
are not counted twice.  Spans are aggregated as they close (call count and
self time per name), which keeps memory flat over 10^5 calls per pass.

Only the benchmark's process is traced; the program itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module that defines the function, attribute name)
TRACED = {
    "core.norm_squared": ("gravqm.core", "norm_squared"),
    "dynamics.propagate": ("gravqm.dynamics", "propagate_linear_potential"),
    "dynamics.moments": ("gravqm.dynamics", "moments"),
    "dynamics.shift_field": ("gravqm.dynamics", "shift_field"),
    "dynamics.heisenberg_checks": ("gravqm.dynamics", "heisenberg_checks"),
    "frames.to_stationary_frame": ("gravqm.frames", "to_stationary_frame"),
    "frames.falling_box_state": ("gravqm.frames", "falling_box_state"),
    "airy.airy_ai": ("gravqm.airy", "airy_ai"),
    "airy.airy_values": ("gravqm.airy", "airy_values"),
    "airy.ai_negative_zero": ("gravqm.airy", "ai_negative_zero"),
    "airy.ai_squared_tail": ("gravqm.airy", "ai_squared_tail"),
    "bouncer.level": ("gravqm.bouncer", "level"),
    "bouncer.eigenfunction": ("gravqm.bouncer", "eigenfunction"),
}


class Tracer:
    """Call counts, self times and propagation work, reset once per pass."""

    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child time of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.steps = 0
        self.point_steps = 0

    def wrap(self, name: str, fn):
        open_spans, calls, self_s = self._open, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                calls[name] += 1
                self_s[name] += duration - children[0]
                if open_spans:
                    open_spans[-1][0] += duration

        return traced

    def exclude(self, seconds: float) -> None:
        """Bill ``seconds`` spent inside the open spans (by the calibration
        sampler) to no span: count them as a child of the innermost one."""
        if self._open:
            self._open[-1][0] += seconds

    def count_propagation(self, fn):
        """Record the steps and point-steps a propagation call is asked for."""
        tracer = self

        @functools.wraps(fn)
        def counted(psi0, *args, **kwargs):
            grid = psi0.grid
            tracer.steps += grid.n_steps
            tracer.point_steps += grid.n_steps * grid.n_points
            return fn(psi0, *args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "steps": self.steps,
            "point_steps": self.point_steps,
        }


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function in the gravqm modules.

    A function imported by name into another module (``from .airy import
    airy_ai`` in ``bouncer``) has a binding there too; replacing each binding
    that is the original object traces the call wherever it is looked up.
    """
    modules = [m for name, m in sys.modules.items() if name == "gravqm" or name.startswith("gravqm.")]
    for span, (module_name, attr) in TRACED.items():
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original)
        if span == "dynamics.propagate":
            wrapped = tracer.count_propagation(wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
