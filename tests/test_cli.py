import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectrosens
from spectrosens import cli, errors
from spectrosens.params import MHZ, default_config


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_point_record(capsys):
    code, out, err = run(["point", "--set", "detuning_a_mhz=40"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["regime"] == "CL"
    assert record["s_plus_m2"] > 0
    assert "spectral_gap" in record and "fit_residual" in record


def test_point_route_both(capsys):
    code, out, _ = run(["point", "--route", "both"], capsys)
    assert code == 0
    record = json.loads(out)
    assert "route_deviation" in record
    assert record["route_deviation"] < 0.02


def test_point_error_json(capsys):
    code, out, err = run(["point", "--set", "dipole_a_debye=0",
                          "--set", "dipole_b_debye=0"], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "DegenerateAbsorption"


def test_usage_error_on_bad_config(tmp_path, capsys):
    """A config file that does not parse, or is not a JSON object, and a
    ``--set`` without ``=`` are usage errors (exit 2); a ``--set`` value
    that is not JSON stays a string, which the point rejects (exit 1)."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for argv, expected, error in (
            (["--config", str(bad)], 2, "JSONDecodeError"),
            (["--config", str(listed)], 2, "ValueError"),
            (["--set", "detuning_a_mhz"], 2, "ValueError"),
            (["--set", "detuning_a_mhz=abc"], 1, "ParseError")):
        code, out, err = run(["point", *argv], capsys)
        assert (code, out) == (expected, "")
        assert json.loads(err)["error"] == error
    # a file that parses is merged under --set
    good = tmp_path / "good.json"
    good.write_text('{"detuning_a_mhz": 20.0, "dipole_b_debye": 0.6}')
    merged = run(["point", "--config", str(good),
                  "--set", "detuning_a_mhz=25"], capsys)
    assert merged[0] == 0
    assert merged == run(["point", "--set", "detuning_a_mhz=25",
                          "--set", "dipole_b_debye=0.6"], capsys)


def test_sweep_grid_shape(capsys):
    code, out, _ = run(["sweep", "--axis1", "detuning,linear,-40,40,2",
                        "--axis2", "rate,log,1e-4,1e-3,2",
                        "--workers", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == cli.CSV_COLUMNS
    assert len(lines) == 5  # header + 2x2 grid


def test_sweep_symmetry(capsys):
    code, out, _ = run(["sweep", "--axis1", "detuning,linear,-40,40,5",
                        "--workers", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    header = cli.CSV_COLUMNS
    col = {name: i for i, name in enumerate(header)}
    rows = [line.split(",") for line in lines]
    s_plus = [float(r[col["s_plus_m2"]]) for r in rows]
    s_minus = [float(r[col["s_minus_m2"]]) for r in rows]
    # tolerance reflects the noise floor of the numerical flux derivatives
    assert abs(s_plus[0] - s_plus[-1]) < 1e-3 * abs(s_plus[0])
    assert abs(s_minus[0] + s_minus[-1]) < 1e-3 * abs(s_minus[0])


def test_sweep_determinism(capsys):
    """Repeated sweeps write the same bytes, and --workers, which has no
    effect, does not change them."""
    args = ["sweep", "--axis1", "rate,log,1e-4,1e-2,3", "--workers", "2"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(args[:-2] + ["--workers", "1"], capsys)
    assert code3 == 0
    assert out3 == out1


def test_point_takes_integer_density_beyond_uint64(capsys):
    """A density given as an integer of 2**64 or more writes the bytes of
    its float form."""
    outputs = [run(["point", "--set", f"density_per_m3={density}"], capsys)
               for density in (10**20, "1e20")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_sweep_takes_integer_density_beyond_uint64(capsys):
    """A sweep whose base density is an integer of 2**64 or more writes the
    bytes of the float's sweep."""
    outputs = [run(["sweep", "--axis1", "rate,log,1e-5,1e-1,3",
                    "--set", f"density_per_m3={density}"], capsys)
               for density in (10**20, "1e20")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert len(outputs[0][1].splitlines()) == 4


def test_sweep_partial_failure(capsys):
    """A failing grid point produces a status row, not an aborted sweep."""
    code, out, _ = run(["sweep", "--axis1", "density,log,1e18,1e20,2",
                        "--set", "dipole_a_debye=0",
                        "--set", "dipole_b_debye=0",
                        "--workers", "1"], capsys)
    assert code == 1
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 2
    assert all("error:" in line for line in lines)


def test_sweep_grid_value_failing_config(capsys):
    """A grid value that the configuration check rejects ends in its error
    row; the other rows are evaluated, and the sweep exits 1."""
    code, out, _ = run(["sweep", "--axis1", "rate_A,linear,-1,1,3"], capsys)
    assert code == 1
    statuses = [line.split(",")[-1] for line in out.splitlines()[1:]]
    assert statuses == ["error:InvalidParam", "error:DegenerateAbsorption",
                        "ok"]
    rows = cli.run_sweep(default_config(), ["rate_A,linear,-1,1,3"], "full")
    record = cli.run_point(dict(default_config(), rate_a_mhz=1.0), "full")
    assert [row["status"] for row in rows] == statuses
    assert {key: rows[2][key] for key in record} == record


def test_bad_axis_spec(capsys, monkeypatch):
    code, _, err = run(["sweep", "--axis1", "bogus,linear,0,1,5"], capsys)
    assert code == 2
    code, _, err = run(["sweep", "--axis1", "rate,log,-1,1,5"], capsys)
    assert code == 2
    code, _, err = run(["sweep", "--axis1", "rate,linear,1,2,1"], capsys)
    assert code == 2
    for spec in ("rate,log,1,2", "rate,log,2,1,3", "rate,log,2,2,3",
                 "rate,cubic,1,2,3"):
        code, out, err = run(["sweep", "--axis1", spec], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"
    # a grid over the row bound, on one axis or on two, is refused before
    # any axis is allocated
    monkeypatch.setattr(np, "linspace", None)
    monkeypatch.setattr(np, "geomspace", None)
    for axes in (["--axis1", "detuning,linear,0,1,10000000000000"],
                 ["--axis1", "detuning,linear,0,1,1001",
                  "--axis2", "rate,log,1e-3,1,1000"]):
        code, out, err = run(["sweep", *axes], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].endswith(
            f"rows exceeds {cli._MAX_GRID_ROWS}")


def test_point_record_is_strict_json(capsys):
    """A non-finite record value takes the spelling of a CSV cell, so the
    record parses as strict JSON: on resonance the adiabatic route has no
    phase signal, and an infinite phase-only bound."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    code, out, _ = run(["point", "--set", "detuning_a_mhz=0",
                        "--route", "adiabatic"], capsys)
    assert code == 0
    assert json.loads(out, parse_constant=refuse)["sens_phase"] == "inf"


def test_figures_pack(tmp_path, capsys):
    code, _, _ = run(["figures", "fig2", "--out", str(tmp_path),
                      "--workers", "2",
                      "--set", "detuning_a_mhz=40"], capsys)
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(csvs) == 5
    assert (tmp_path / "fig2.gp").exists()


def test_figures_unknown_id(capsys):
    import pytest
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["figures", "fig9"])
    assert excinfo.value.code == 2


def test_point_non_finite_is_invalid_param(capsys):
    for setting in ("detuning_a_mhz=NaN", "gamma_mhz=Infinity",
                    "power_mw=1e300"):
        code, _, err = run(["point", "--set", setting], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "InvalidParam"


def test_point_extreme_gamma_is_typed_error(capsys):
    """Decay rates at the edges of the float range end in a model error,
    not in an arithmetic exception of the weak-probe check."""
    for setting in ("gamma_mhz=1e-300", "gamma_mhz=1e300"):
        code, _, err = run(["point", "--set", setting], capsys)
        assert code == 1
        error = getattr(errors, json.loads(err)["error"])
        assert issubclass(error, errors.ModelError)


def test_sweep_non_finite_axis_rows(capsys):
    """An axis whose span is not finite is a bad axis spec: one JSON error,
    no rows, and no numpy floating-point warning."""
    for axis in ("detuning,linear,-10,inf,3", "detuning,linear,-inf,10,3",
                 "detuning,linear,-1.7e308,1.7e308,3", "rate,log,1e-6,inf,4"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["sweep", "--axis1", axis,
                                  "--workers", "1"], capsys)
        assert code == 2 and out == "", axis
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "axis span must be finite"}
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] == [], axis


def test_sweep_bad_point_is_not_usage_error(capsys):
    """A point whose numerics fail ends in its own typed row, without numpy
    floating-point warnings; only a bad axis spec is a usage error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["sweep", "--axis1", "density,log,1e-300,1e20,3",
                              "--workers", "1"], capsys)
    assert code == 1 and err == ""
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    statuses = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert len(statuses) == 3 and statuses[2] == "ok"
    for status in statuses[:2]:
        assert status.startswith("error:")
        assert issubclass(getattr(errors, status[6:]), errors.ModelError)


@pytest.mark.parametrize("density", ["1e-300", "5e-324"])
@pytest.mark.parametrize("route", cli.ROUTES)
def test_point_overflow_carries_no_numpy_warnings(route, density, capsys):
    """A density whose optimal depth leaves the float range ends in the
    same typed error on every route, and numpy's floating-point warnings of
    the saturated arithmetic on the way are not among the point's warnings."""
    code, out, err = run(["point", "--route", route,
                          "--set", f"density_per_m3={density}"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "SingularCovariance",
                               "message": "covariance has non-finite entries",
                               "warnings": []}


def test_csv_cells_format_non_finite_values():
    assert [cli._fmt(v) for v in (float("nan"), float("inf"), float("-inf"),
                                  np.float64("-inf"), "CL")] == [
        "nan", "inf", "-inf", "-inf", "CL"]


def test_sweep_keeps_untyped_failure_in_row(monkeypatch, capsys):
    """A point whose stacked linear algebra raises ends in its own
    error:LinAlgError row: the pass is split in halves down to the failing
    point, and the other rows equal run_point."""
    eigvals, stacks = np.linalg.eigvals, []
    # the 10 MHz point's optical coherences carry -+i * detuning
    marker = -10.0 * MHZ

    def failing(matrix):
        stacks.append(len(matrix))
        if np.any(np.asarray(matrix).imag == marker):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(matrix)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    axis = "detuning,linear,0,20,3"
    code, out, _ = run(["sweep", "--axis1", axis], capsys)
    assert stacks[:2] == [3, 1]   # the stacked pass, then its first half
    assert code == 1
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == [
        "ok", "error:LinAlgError", "ok"]
    rows = cli.run_sweep(default_config(), [axis], "full")
    for row in rows[::2]:
        record = cli.run_point(dict(default_config(),
                                    detuning_a_mhz=row["detuning_mhz"]),
                               "full")
        assert all(row[key] == value for key, value in record.items())


# base configuration, axes, and the statuses of the grid's rows
SWEEP_GRIDS = {
    "gap": ({}, ["rate,log,1e-13,1e-1,12"], {"GapTooSmall"}),
    "far-detuned": ({}, ["detuning,linear,500,1000,2",
                         "rate,log,1e-4,1e-2,2"],
                    {"FitResidualExceeded", "SingularCovariance"}),
    "density-edge": ({}, ["density,log,1e-300,1e20,6"],
                     {"DegenerateSignal", "SingularCovariance"}),
    "thickness": ({"thickness_m": 0.01}, ["detuning,linear,-50,50,5"],
                  {"DegenerateSignal"}),
    # 105 rows, more than one stacked chunk
    "long": ({}, ["detuning,linear,-100,100,21", "rate,log,1e-6,1,5"],
             set()),
}


@pytest.mark.parametrize("route", ["full", "both"])
@pytest.mark.parametrize("base,axes,failures", SWEEP_GRIDS.values(),
                         ids=SWEEP_GRIDS.keys())
def test_sweep_rows_equal_run_point(base, axes, failures, route):
    """Every cell of a stacked sweep equals run_point on that row's
    configuration, and every failed row ends in the error run_point
    raises; the grids mix results with several kinds of failure."""
    config = dict(default_config(), **base)
    statuses = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in cli.run_sweep(config, axes, route):
            point = dict(config, detuning_a_mhz=row["detuning_mhz"],
                         rate_a_mhz=row["rate_a_mhz"],
                         rate_b_mhz=row["rate_b_mhz"],
                         density_per_m3=row["density_per_m3"])
            try:
                record = cli.run_point(point, route)
            except errors.POINT_ERRORS as exc:
                assert row["status"] == f"error:{type(exc).__name__}"
            else:
                assert row["status"] == "ok"
                assert all(row[key] == value
                           for key, value in record.items()), point
            statuses.add(row["status"])
    assert statuses == {"ok"} | {f"error:{name}" for name in failures}


def test_sweep_takes_a_partial_configuration(tmp_path):
    """A sweep or figure pack over a configuration that names only some keys
    gives the rows of the default configuration with the same override."""
    partial, axis = {"gamma_mhz": 10.0}, "detuning,linear,-10,10,3"
    full = dict(default_config(), **partial)
    assert (cli.run_sweep(partial, [axis], "full")
            == cli.run_sweep(full, [axis], "full"))
    assert (cli.emit_figure_pack("fig1c", partial, str(tmp_path / "p"),
                                 "full")
            == cli.emit_figure_pack("fig1c", full, str(tmp_path / "f"),
                                    "full"))


def test_failing_sweep_frees_its_errors():
    """A sweep's failed passes are freed by reference counting: with the
    cyclic collector off, a 200-row grid with 90 failing rows holds less
    than 1 MiB of traced memory once its rows are dropped."""
    axes = ["rate,log,1e-13,1e-5,20", "detuning,linear,-50,50,10"]
    cli.run_sweep({}, axes, "full")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        rows = cli.run_sweep({}, axes, "full")
        assert sum(row["status"] != "ok" for row in rows) == 90
        del rows
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 2**20


def test_point_untyped_failure_is_error_json(monkeypatch, capsys):
    """point ends the failures a sweep keeps in a row in error JSON too."""
    def failing(params, route):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(cli, "evaluate_point", failing)
    code, out, err = run(["point"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "LinAlgError",
                               "message": "SVD did not converge",
                               "warnings": []}


def test_sweep_config_error_fails_once(tmp_path, capsys):
    """A configuration error that no grid value overrides ends the sweep
    before any point, in one JSON error and without a CSV."""
    path = tmp_path / "sweep.csv"
    code, out, err = run(["sweep", "--set", "bogus=1",
                          "--axis1", "detuning,linear,0,10,3",
                          "--out", str(path), "--workers", "1"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"
    assert not path.exists()
    code, _, err = run(["sweep", "--set", "gamma_mhz=0",
                        "--axis1", "detuning,linear,0,10,3"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "InvalidParam"
    # the grid replaces a swept key, so its base value is not checked
    code, out, _ = run(["sweep", "--set", "detuning_a_mhz=NaN",
                        "--axis1", "detuning,linear,0,10,2",
                        "--workers", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


NUMERIC_KEYS = sorted(k for k, v in default_config().items()
                      if isinstance(v, float))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(route=st.sampled_from(["full", "adiabatic", "both"]),
       config=st.dictionaries(st.sampled_from(NUMERIC_KEYS),
                              st.floats(allow_nan=False, allow_infinity=False),
                              min_size=1, max_size=3))
@example(route="full", config={"density_per_m3": 1e-300})
@example(route="adiabatic", config={"density_per_m3": 1e-300})
@example(route="both", config={"density_per_m3": 1e-300})
@example(route="adiabatic", config={"detuning_a_mhz": 1e300})
@example(route="full", config={"density_per_m3": 1e-140})
@example(route="adiabatic", config={"density_per_m3": 1e-140})
@example(route="both", config={"density_per_m3": 1e-140})
@example(route="full", config={"wavelength_nm": 1e140})
@example(route="adiabatic", config={"wavelength_nm": 1e140})
@example(route="both", config={"wavelength_nm": 1e140})
@example(route="adiabatic", config={"power_mw": 1e140})
@example(route="adiabatic", config={"beam_diameter_cm": 1e-140})
def test_point_failure_contract(route, config):
    """Every numeric configuration ends in a result (exit 0) or in typed
    error JSON (exit 1), never in a raw exception."""
    argv = ["point", "--route", route]
    for key, value in config.items():
        argv += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert "s_plus_m2" in json.loads(out.getvalue())
    else:
        assert code == 1
        error = getattr(errors, json.loads(err.getvalue())["error"])
        assert issubclass(error, errors.ModelError)


EDGE_VALUES = (1e300, -1e300, 1e30, -1e30, 1e-300, 5e-324)


def _untyped_outcomes(configs, route):
    """The configurations whose ``run_point`` raises anything but a
    ``ModelError``, with what they raised."""
    untyped = []
    for config in configs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                cli.run_point(config, route)
            except errors.ModelError:
                pass
            except Exception as exc:
                untyped.append((config, repr(exc)))
    return untyped


@pytest.mark.parametrize("route", cli.ROUTES)
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_point_failure_contract_on_edge_grid(key, route):
    """Each numeric key at the edges of the float range ends in a result or
    a typed error on every route, without relying on a random search."""
    assert _untyped_outcomes([{key: v} for v in EDGE_VALUES], route) == []


@pytest.mark.parametrize("route", cli.ROUTES)
@pytest.mark.parametrize("key", sorted(set(NUMERIC_KEYS) - {"gamma_mhz"}))
def test_point_failure_contract_with_huge_decay(key, route):
    """A decay rate whose square leaves the float range, paired with each
    other key at the edges, also ends typed; the adiabatic closed forms
    square it."""
    configs = [{"gamma_mhz": 1e300, key: v} for v in EDGE_VALUES]
    assert _untyped_outcomes(configs, route) == []


@pytest.mark.parametrize("gamma", ["1e150", "1e300"])
def test_adiabatic_huge_decay_is_typed_error_json(gamma, capsys):
    """The closed forms square the decay rate in numpy floats, which
    saturate, so the square's overflow surfaces as a typed error."""
    code, _, err = run(["point", "--route", "adiabatic",
                        "--set", f"gamma_mhz={gamma}"], capsys)
    assert code == 1
    error = getattr(errors, json.loads(err)["error"])
    assert issubclass(error, errors.ModelError)


@pytest.mark.parametrize("figure_id", cli.FIGURE_IDS)
def test_figures_pass_route(figure_id, tmp_path, monkeypatch, capsys):
    routes = []

    def fake_sweep(config, axes, route, workers=None):
        routes.append(route)
        return []
    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    code, _, _ = run(["figures", figure_id, "--route", "adiabatic",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    assert routes and set(routes) == {"adiabatic"}


def test_seed_option_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["point", "--seed", "1"])
    assert excinfo.value.code == 2


def test_point_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["point", "--workers", "2"])
    assert excinfo.value.code == 2


def _run_cli(*argv):
    src = os.path.dirname(os.path.dirname(spectrosens.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "spectrosens.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_point_stderr_is_one_json_document():
    """A warning raised on the way to an error goes into the error object,
    not onto stderr ahead of it."""
    proc = _run_cli("point", "--set", "gamma_mhz=1e-300")
    assert proc.returncode == 1 and proc.stdout == ""
    error = json.loads(proc.stderr)
    assert error["error"] == "FitResidualExceeded"
    assert [message.split(":")[0] for message in error["warnings"]] == [
        "outside weak-probe regime"]


def test_point_record_carries_warnings(capsys):
    code, out, err = run(["point", "--route", "adiabatic",
                          "--set", "rate_a_mhz=3"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["warnings"] == [
        "adiabatic factorization unreliable: rate_a + rate_b > gamma/10"]
    code, out, _ = run(["point"], capsys)
    assert json.loads(out)["warnings"] == []


_IMPORT_ALL = """
import importlib, pkgutil, sys
import spectrosens.cli

def loaded(package):
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == package)

print(loaded("scipy"))
for module in pkgutil.iter_modules(spectrosens.__path__):
    importlib.import_module("spectrosens." + module.name)
print(loaded("spectrosens"), loaded("scipy"), loaded("concurrent"))
"""


def test_cli_import_loads_no_scipy():
    """The CLI, and then every module of the package, oracles included,
    import on numpy alone; concurrent.futures, which only a Monte-Carlo
    call needs, is not loaded either."""
    package = pathlib.Path(spectrosens.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                          capture_output=True, text=True, check=True)
    modules = sorted(["spectrosens"] + [
        f"spectrosens.{path.stem}" for path in package.glob("*.py")
        if path.stem != "__init__"])
    assert "spectrosens.oracles" in modules
    assert proc.stdout == f"[]\n{modules} [] []\n"


def test_sweep_grid_order_and_override(monkeypatch):
    """Every sweep axis sets exactly its own keys, axis 1 is the outer loop
    of a 2-D grid, and a later axis overrides the keys an earlier one
    set."""
    monkeypatch.setattr(cli, "_evaluate_rows", lambda configs, route: [
        (config, route) for config in configs])
    config = default_config()
    for param, keys in cli.SWEEP_PARAMS.items():
        tasks = cli.run_sweep(config, [f"{param},linear,1.25,2.5,2"], "full",
                              1)
        assert [point for point, _ in tasks] == [
            dict(config, **dict.fromkeys(keys, value))
            for value in (1.25, 2.5)]
    tasks = cli.run_sweep(config, ["rate,log,1e-4,1e-2,3",
                                   "rate_A,linear,1,2,2"], "adiabatic", 1)
    expected = [dict(config, rate_a_mhz=float(b), rate_b_mhz=float(a))
                for a in np.geomspace(1e-4, 1e-2, 3)
                for b in np.linspace(1.0, 2.0, 2)]
    assert [list(point.items()) for point, _ in tasks] == [
        list(point.items()) for point in expected]
    assert all(type(point[key]) is float for point, _ in tasks
               for key in ("rate_a_mhz", "rate_b_mhz"))
    assert {route for _, route in tasks} == {"adiabatic"}


def _stub_rows(config):
    base = {"detuning_mhz": config["detuning_a_mhz"], "rate_a_mhz": 1e-4,
            "rate_b_mhz": 3e-6, "density_per_m3": 1e20}
    ok = dict(base, s_plus_m2=1.2345678901234e-17, s_minus_m2=-2.5e-18,
              sigma_plus_ratio=1.5, sigma_minus_ratio=0.75, sens_full=3e-5,
              sens_intensity=4e-5, sens_phase=float("inf"), sens_psn=2e-5,
              regime="CL", status="ok")
    return [ok,
            dict(ok, rate_a_mhz=100.0, s_minus_m2=float("nan"),
                 sigma_minus_ratio=float("nan"), regime="PSNL"),
            dict(base, **{c: float("nan") for c in cli.CSV_COLUMNS[4:12]},
                 regime="Unclassified", status="error:GapTooSmall")]


_FULL_CSV = (
    "detuning_mhz,rate_a_mhz,rate_b_mhz,density_per_m3,s_plus_m2,s_minus_m2,"
    "sigma_plus_ratio,sigma_minus_ratio,sens_full,sens_intensity,sens_phase,"
    "sens_psn,regime,status\n"
    "{d},0.0001,3e-06,1e+20,1.23456789012e-17,-2.5e-18,1.5,0.75,3e-05,"
    "4e-05,inf,2e-05,CL,ok\n"
    "{d},100,3e-06,1e+20,1.23456789012e-17,nan,1.5,nan,3e-05,"
    "4e-05,inf,2e-05,PSNL,ok\n"
    "{d},0.0001,3e-06,1e+20,nan,nan,nan,nan,nan,nan,nan,nan,"
    "Unclassified,error:GapTooSmall\n")

_RATE_GP = ("set datafile separator ','\nset key autotitle columnhead\n"
            "set logscale xy\nset xlabel 'reaction rate (MHz)'\n"
            "set ylabel 'relative sensitivity'\n")

_FIG2_NAMES = (("cross_section_plus", "s_plus_m2", "1.23456789012e-17",
                "1.23456789012e-17"),
               ("cross_section_minus", "s_minus_m2", "-2.5e-18", "nan"),
               ("variance_ratio_plus", "sigma_plus_ratio", "1.5", "1.5"),
               ("variance_ratio_minus", "sigma_minus_ratio", "0.75", "nan"),
               ("sensitivity", "sens_full", "3e-05", "3e-05"))

_RATE_AXIS = "rate,log,1e-6,1e2,25"

FIGURE_PACKS = {
    "fig1c": ([(40.0, [_RATE_AXIS])], {
        "fig1c_sensitivity_vs_rate.csv": _FULL_CSV.format(d=40),
        "fig1c.gp": _RATE_GP + (
            "plot 'pack/fig1c_sensitivity_vs_rate.csv' using 2:9 with lines, "
            "'' using 2:10 with lines, '' using 2:11 with lines, "
            "'' using 2:12 with points\n"),
    }),
    "fig2": ([(40.0, ["detuning,linear,-100,100,101"])], {
        **{f"fig2_{name}.csv":
           f"detuning_mhz,{column}\n40,{first}\n40,{second}\n40,nan\n"
           for name, column, first, second in _FIG2_NAMES},
        "fig2.gp": ("set datafile separator ','\nset key autotitle "
                    "columnhead\nset xlabel 'detuning (MHz)'\n" + "".join(
                        f"plot 'pack/fig2_{name}.csv' using 1:2 with lines\n"
                        "pause -1\n" for name, *_ in _FIG2_NAMES)),
    }),
    "fig3": ([(20.0, [_RATE_AXIS]), (40.0, [_RATE_AXIS]),
              (100.0, [_RATE_AXIS])], {
        **{f"fig3_detuning_{d}mhz.csv": _FULL_CSV.format(d=d)
           for d in (20, 40, 100)},
        "fig3.gp": _RATE_GP + (
            "plot 'pack/fig3_detuning_20mhz.csv' using 2:9 with lines, "
            "'pack/fig3_detuning_40mhz.csv' using 2:9 with lines, "
            "'pack/fig3_detuning_100mhz.csv' using 2:9 with lines\n"),
    }),
}


@pytest.mark.parametrize("figure_id", cli.FIGURE_IDS)
def test_figure_pack_bytes(figure_id, tmp_path, monkeypatch, capsys):
    """Every CSV and gnuplot file of a pack, byte for byte, including NaN
    values and an error row, which makes the command exit 1."""
    sweeps = []

    def fake_sweep(config, axes, route, workers=None):
        sweeps.append((config["detuning_a_mhz"], axes))
        return _stub_rows(config)
    monkeypatch.setattr(cli, "run_sweep", fake_sweep)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["figures", figure_id, "--out", "pack"], capsys)
    assert code == 1  # the stub's error row
    expected_sweeps, expected_files = FIGURE_PACKS[figure_id]
    assert sweeps == expected_sweeps
    written = {path.name: path.read_bytes()
               for path in (tmp_path / "pack").iterdir()}
    assert written == {name: text.encode()
                       for name, text in expected_files.items()}
