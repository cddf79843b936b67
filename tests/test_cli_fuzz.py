"""Any input to ``flatgrav``: exit 0 with a strict report, or exit 2 or 3
with nothing on stdout, and never an exception or a warning."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from flatgrav import cli
from flatgrav.presets import CONFIG_KEYS, MODELS, PARAM_KEYS, PRESETS

# Zero, a negative, non-finite values, bools, strings, null and lists:
# outside the domain of most inputs.
JUNK = st.sampled_from([0, -1.0, math.inf, math.nan, True, False, "x", None,
                        [1, 2], [0.0, 0.0, 1e-7], {}])
# Finite and > 0, so inside the domain of a length, at the edges of a double.
EDGES = st.sampled_from([5e-324, 1e-320, 1e-300, 1e300, 1.7e308])


def mostly(common, *rare):
    """``common`` 6 times in 8, else one of ``rare``."""
    return st.integers(0, 7).flatmap(
        lambda k: rare[k % len(rare)] if k < 2 else common)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


IN_DOMAIN = {
    "preset": st.sampled_from(sorted(PRESETS)),
    "name": st.text(max_size=4),
    "model": mostly(st.just(MODELS[0]), st.sampled_from(MODELS)),
    "n_orbits": st.integers(2, 5),      # the run time grows with the orbits
    "tol": log_uniform(1e-14, 1e-3),
    "a": log_uniform(1e3, 1e13),
    "ecc": st.floats(0.0, 0.95),
    "r_o": log_uniform(1e-30, 1e4),
    "R_s": log_uniform(1e2, 1e12),
    "r_es": log_uniform(1e9, 1e13),
    "r_ms": log_uniform(1e9, 1e13),
    "inertia": log_uniform(1e-5, 1e12),
    "omega": st.lists(st.floats(-1e-10, 1e-10), min_size=3, max_size=3),
    "radius": log_uniform(1e3, 1e8),
}
FLAG_TEXT = {
    "n_orbits": st.integers(1, 5).map(str),
    "samples": st.integers(0, 64).map(str),
    "tol": log_uniform(1e-14, 1e-3).map(repr),
    "orbit_radius": log_uniform(1e3, 1e9).map(repr),
    "r_over_ro": log_uniform(1e-3, 1e3).map(repr),
    "strong_rmin": log_uniform(3.0, 1e6).map(repr),
}
FLAG_JUNK = st.sampled_from(["0", "-1", "1e-320", "1e300", "1e400", "nan",
                             "inf", "abc", "2.5"])


def optional_keys(keys):
    """An object holding any of ``keys``, now and then an unknown one."""
    return st.tuples(
        st.fixed_dictionaries({}, optional={key: mostly(IN_DOMAIN[key], JUNK,
                                                        EDGES)
                                            for key in keys}),
        mostly(st.just({}), st.just({"zzz": 1}))).map(
            lambda both: {**both[0], **both[1]})


CONFIGS = st.tuples(
    optional_keys(k for k in CONFIG_KEYS if k != "params"),
    st.one_of(st.none(), mostly(optional_keys(PARAM_KEYS), JUNK))).map(
        lambda both: both[0] if both[1] is None
        else {**both[0], "params": both[1]})


@st.composite
def invocations(draw):
    """(argv, config or None): a subcommand with drawn flags and config.

    One time in four, one input that the subcommand reads (a parameter it
    needs or a float flag) is set to an edge value: an edge of a key that
    it does not read tests nothing.
    """
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, preset, needed, flags = cli.COMMANDS[command]
    argv, config = [command], None
    if preset and draw(st.booleans()):
        config = draw(CONFIGS)
    if preset and draw(st.booleans()):
        argv += ["--preset", draw(st.sampled_from([*PRESETS, "vulcan"]))]
    texts = {key: draw(mostly(FLAG_TEXT[key], FLAG_JUNK))
             for key, *_ in flags if draw(st.booleans())}
    reads = [*needed, *(key for key, kind, *_ in flags if kind is float)]
    if reads and draw(st.integers(0, 3)) == 0:
        key, edge = draw(st.sampled_from(reads)), draw(EDGES)
        if key in needed:
            params = (config or {}).get("params")
            params = params if isinstance(params, dict) else {}
            config = {**(config or {}), "params": {**params, key: edge}}
        else:
            texts[key] = repr(edge)
    for key, text in texts.items():
        option = "--orbits" if key == "n_orbits" else \
            "--" + key.replace("_", "-")
        argv += [option, text]
    return argv, config


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(invocations())
def test_any_input_exits_0_2_or_3(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = argv + ["--config", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse's usage errors
                code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        report = json.loads(out.getvalue(), parse_constant=_refuse)
        if argv[0] != "compare":
            assert {row["model"] for row in report["rows"]} == \
                {report["model"]}
    else:
        assert out.getvalue() == ""
