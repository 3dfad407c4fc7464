"""Property test of the CLI exit-code contract: 0 ok, 1 numeric failure, 2 usage.

Arguments of ``airy``, ``bouncer``, ``cow`` and ``redshift`` are drawn from
wide strategies, non-finite and extreme numbers and malformed tokens
included.  ``evolve`` runs each demo on small grids (at most 64 points and
21 steps, odd and single-step counts included) or with a malformed or
out-of-range grid token, so its propagations stay cheap.  Every invocation
must end with one of the three exit codes and no uncaught exception, and
every JSON file written must parse strictly and validate against the
documented schema.  The exit code of a scalar command's result does not
depend on its output format.  An ``--out`` in a directory that does not
exist is a usage error, whatever the other arguments.
"""

import json
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_cli

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_output.schema.json").read_text()
)

_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e309", "0", "-0", "5e-324"]),
    st.sampled_from(["", "x", "1,5"]),
)
_COUNT = st.one_of(st.integers(-3, 60).map(str), st.sampled_from(["2.5", "", "x"]))
_FORMAT = st.sampled_from(["table", "csv", "json", "json-without-out", "json-to-missing-directory"])


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _flag(name):
    return st.sampled_from([[], [name]])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [token for p in ps for token in p])


_AIRY = _command("airy", _option("--eval", _NUMBER), _option("--zeros", _COUNT))
_BOUNCER = _command("bouncer", _option("--levels", _COUNT), _flag("--si-neutron"))
_COW = _command(
    "cow",
    _option("--lambda", _NUMBER),
    _option("--height", _NUMBER),
    _option("--length", _NUMBER),
    _option("--a", _NUMBER),
    _flag("--si-neutron"),
    _flag("--via-time-route"),
)
_REDSHIFT = _command(
    "redshift",
    _option("--z", _NUMBER),
    _flag("--si"),
    _option("--mass", _NUMBER),
    _option("--accel", _NUMBER),
    _option("--hbar", _NUMBER),
    _option("--omega-prime", _NUMBER),
)


# An evolve grid: n points, and dt with t_final = steps * dt, so that
# round(t_final / dt) is the drawn step count.  Below about 32 points the
# packet starts near an edge, which is a usage error.
_EVOLVE_GRID = st.tuples(
    st.one_of(st.integers(32, 64), st.integers(-1, 31)),
    st.sampled_from([1e-3, 2e-3, 7e-3, 0.05]),
    st.integers(1, 21),
).map(lambda g: ["--n-points", str(g[0]), "--dt", repr(g[1]), "--t-final", repr(g[1] * g[2])])
_BAD_GRID_TOKEN = st.one_of(
    st.tuples(
        st.just("--n-points"),
        st.sampled_from(["", "x", "2.5", "nan", "1e3", "20000000000", "9223372036854775808"]),
    ),
    st.tuples(
        st.sampled_from(["--dt", "--t-final"]),
        st.sampled_from(["", "x", "0", "-0", "-1", "nan", "inf", "-inf", "1e309", "5e-324"]),
    ),
).map(list)
_EVOLVE_FORMAT = st.sampled_from(["csv", "json", "json-without-out", "json-to-missing-directory"])


def _evolve(demo):
    # a malformed token goes last, so it overrides the valid value
    bad = st.one_of(st.just([]), st.just([]), _BAD_GRID_TOKEN)
    return st.tuples(_EVOLVE_GRID, bad).map(
        lambda ps: ["evolve", "--demo", demo] + ps[0] + ps[1]
    )


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _invoke(args, fmt, out):
    if fmt == "json":
        args = args + ["--format", "json", "--out", str(out)]
    elif fmt == "json-without-out":
        args = args + ["--format", "json"]
    elif fmt == "json-to-missing-directory":
        args = args + ["--format", "json", "--out", str(out.parent / "missing" / out.name)]
    else:
        args = args + ["--format", fmt]
    return run_cli(*args)


def _check_contract(args, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        result = _invoke(args, fmt, out)
        # run_cli lets any exception but SystemExit through, failing the test
        assert result.exit_code in (0, 1, 2), (args, result.exit_code)
        assert "Traceback" not in result.output, args
        if fmt in ("json-without-out", "json-to-missing-directory"):
            assert result.exit_code == 2, args
        if fmt == "json":
            assert out.exists() == (result.exit_code == 0), (args, result.exit_code)
            if result.exit_code == 0:
                document = json.loads(out.read_text(), parse_constant=_reject_constant)
                jsonschema.validate(document, SCHEMA)


@pytest.mark.parametrize(
    "command", [_AIRY, _BOUNCER, _COW, _REDSHIFT], ids=["airy", "bouncer", "cow", "redshift"]
)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract(command, data):
    _check_contract(data.draw(command), data.draw(_FORMAT))


@pytest.mark.parametrize(
    "command", [_AIRY, _BOUNCER, _COW, _REDSHIFT], ids=["airy", "bouncer", "cow", "redshift"]
)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_exit_code_does_not_depend_on_format(command, data):
    args = data.draw(command)
    with tempfile.TemporaryDirectory() as tmp:
        codes = {
            fmt: _invoke(args, fmt, Path(tmp) / f"out.{fmt}").exit_code
            for fmt in ("table", "csv", "json")
        }
    assert len(set(codes.values())) == 1, (args, codes)


@pytest.mark.parametrize("demo", ["frame-equivalence", "bouncer-moments", "free-dispersion"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evolve_exit_code_contract(demo, data):
    _check_contract(data.draw(_evolve(demo)), data.draw(_EVOLVE_FORMAT))
