"""The library API that the benchmark in ``perfbench/`` calls still resolves.

The benchmark's workloads call gravqm functions by name with fixed
signatures; a renamed function or a dropped parameter would fail every one
of its operations.  Building the four workloads runs their whole set-up,
and four cheap analytic operations run end to end.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_workload_builds(workloads, tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops = build(1, ROOT, tmp_path)
        assert ops, name
        assert all(callable(op.run) for op in ops), name


@pytest.mark.parametrize(
    "op_name", ["falling-box-residuals", "cow-route-identity", "ai-zeros", "bouncer-levels"]
)
def test_spectrum_identities_pass(workloads, tmp_path, op_name):
    ops = {op.name: op for op in workloads.spectrum(1, ROOT, tmp_path)}
    _, failures = ops[op_name].run()
    assert failures == []
