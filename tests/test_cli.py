"""End-to-end tests of the command-line frontend.

Each happy path is checked against the same closed-form oracles as the
library tests (the linear-density family has an exact radius and mass),
and the file outputs are checked for byte-level determinism, since the
frontend promises identical files for identical configs.
"""

import ast
import json
import math
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vpequil
from vpequil import __version__
from vpequil.cli import ConfigError, main, parse_config
from vpequil.distmodels import polytrope

RHO_MINUS_N1 = 2.0 ** 1.5 * math.pi ** 2
A_N1 = math.sqrt(4.0 * math.pi * RHO_MINUS_N1)
RADIUS_N1 = math.pi / A_N1
WILSON_OMEGA_CRIT = 3.9023231626784796


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def load_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------ config parsing

def test_parse_minimal_polytrope(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"model": {"family": "polytrope", "n": 1.0}}))
    assert cfg.model.l == 0.0
    assert cfg.model.family.n == 1.0
    assert cfg.output["precision"] == 17


def test_parse_rejects_unknown_top_key(tmp_path):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1}, "rnu": {}})
    with pytest.raises(ConfigError, match="rnu"):
        parse_config(path)


def test_parse_rejects_unknown_model_key(tmp_path):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1, "foo": 2}})
    with pytest.raises(ConfigError, match="model.foo"):
        parse_config(path)


def test_parse_rejects_unknown_run_key(tmp_path):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1},
                                   "run": {"omega_sea": 1.0}})
    with pytest.raises(ConfigError, match="run.omega_sea"):
        parse_config(path)


def test_parse_rejects_threads_key(tmp_path, capsys):
    # sweeps run serially; an old config that still sets run.threads is refused
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1},
                                   "run": {"omega_grid": [0.5, 1.0], "threads": 2}})
    with pytest.raises(ConfigError, match="run.threads"):
        parse_config(path)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "run.threads" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("omega_floor", 1e-9), ("startup_radius", 1e-5),
                                        ("abs_tol", 1e-12), ("omega_0", 0.5)])
def test_parse_rejects_removed_solve_overrides(tmp_path, capsys, key, value):
    # the start, the surface floor and the absolute tolerance are fixed by the
    # model or by constants, and check reads omega_c for both criteria; a
    # config that still sets one of these keys is refused, and no summary is
    # written
    path = write_config(tmp_path, solve_config(**{key: value}))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: run.{key} is not a recognised key\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("precision, code", [(17, 0), (18, 2), (0, 2)])
def test_precision_bounds(tmp_path, capsys, precision, code):
    cfg = solve_config()
    cfg["output"] = {"precision": precision}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == code
    if code:
        assert "output.precision must be in [1, 17]" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


def test_parse_rejects_k_prime_key(tmp_path, capsys):
    # nothing reads a derivative exponent; an old config that still sets
    # model.k_prime is refused
    table = tmp_path / "phi.csv"
    table.write_text("0.0,0.0\n1.0,1.7\n2.0,6.4\n3.0,19.1\n")
    path = write_config(tmp_path, {"model": {"family": "tabulated", "table": str(table),
                                             "k": 1.0, "k_prime": 0.0},
                                   "run": {"omega_c": 1.0}})
    with pytest.raises(ConfigError, match="model.k_prime"):
        parse_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "model.k_prime" in capsys.readouterr().err


def test_parse_rejects_shallow_anisotropy(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1, "l": -1.5},
                                   "run": {"omega_c": 1.0}})
    with pytest.raises(ConfigError, match="l must exceed -1"):
        parse_config(path)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    assert "l must exceed -1" in capsys.readouterr().err


def test_parse_rejects_tabulated_without_k(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("0.0,0.0\n0.5,0.3\n1.0,1.0\n2.0,4.0\n")
    path = write_config(tmp_path, {"model": {"family": "tabulated",
                                             "table": str(table)}})
    with pytest.raises(ConfigError, match="model.k"):
        parse_config(path)


def test_parse_rejects_amplitude_past_table_end(tmp_path, capsys):
    table = tmp_path / "phi.csv"
    table.write_text("0.0,0.0\n1.0,1.7\n2.0,6.4\n3.0,19.1\n")
    model = {"family": "tabulated", "table": str(table), "k": 1.0}
    ok = write_config(tmp_path, {"model": model, "run": {"omega_c": 3.0}}, name="ok.json")
    assert parse_config(ok).run["omega_c"] == 3.0   # the grid end itself is allowed
    for run, key in (({"omega_c": 4.98}, "run.omega_c"),
                     ({"omega_grid": [0.5, 3.5]}, r"run.omega_grid\[1\]")):
        path = write_config(tmp_path, {"model": model, "run": run})
        with pytest.raises(ConfigError, match=key):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        assert "past the end of the tabulated phi grid" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


def test_parse_rejects_table_starting_above_zero(tmp_path, capsys):
    # phi is undefined between E = 0 and the first sample: the model is
    # refused when it is built, before any output exists
    table = tmp_path / "phi.csv"
    energies = [0.5 + 2.5 * i / 9 for i in range(10)]
    table.write_text("".join(f"{e!r},{math.expm1(e)!r}\n" for e in energies))
    path = write_config(tmp_path, {"model": {"family": "tabulated", "table": str(table),
                                             "k": 1.0},
                                   "run": {"omega_c": 1.0}})
    with pytest.raises(ConfigError, match="first energy 0.5"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "config error: model: tabulated energy grid must start at or below E = 0" \
        in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def table31_rows():
    """The 31-node e^E - 1 table of the CI configs, one row per line."""
    return [f"{0.1 * i!r},{math.expm1(0.1 * i)!r}" for i in range(31)]


@pytest.mark.parametrize("edit, line, message", [
    (lambda rows: ["E,phi", *rows], 1, "'E,phi' is not two numbers"),
    (lambda rows: rows[:4] + ["0.4,x"] + rows[5:], 5, "'0.4,x' is not two numbers"),
    (lambda rows: rows[:4] + [rows[4] + ",1.0"] + rows[5:], 5,
     "expected two columns (E, phi), got 3"),
    (lambda rows: rows[:7] + ["nan,1.0"] + rows[8:], 8, "E and phi must be finite"),
    (lambda rows: rows[:7] + [f"{0.1 * 7!r},nan"] + rows[8:], 8, "E and phi must be finite"),
    (lambda rows: rows[:7] + [f"{0.1 * 7!r},inf"] + rows[8:], 8, "E and phi must be finite"),
], ids=["header", "not-a-number", "three-columns", "nan-energy", "nan-sample", "inf-sample"])
def test_malformed_table_exits_2_naming_file_and_line(tmp_path, capsys, edit, line, message):
    # a row that is not two finite numbers is a config error, found when the
    # model is built: exit 2 before any output exists, naming file and line
    table = tmp_path / "phi.csv"
    table.write_text("\n".join(edit(table31_rows())) + "\n")
    path = write_config(tmp_path, {"model": {"family": "tabulated", "table": str(table),
                                             "k": 1.0},
                                   "run": {"omega_c": 0.5}})
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model: {table}, line {line}: {message}"), err
    assert "Warning" not in err
    assert not out.exists()


def test_table_comments_and_blank_lines_are_skipped(tmp_path):
    # numpy's loadtxt rules: `#` starts a comment, blank lines are skipped
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    rows = table31_rows()
    plain.write_text("\n".join(rows) + "\n")
    commented.write_text("# E, phi = e^E - 1\n\n" + "\n".join(rows[:5]) + "  # five rows\n  \n"
                         + "\n".join(rows[5:]) + "\n")
    models = [parse_config(write_config(tmp_path, {"model": {"family": "tabulated",
                                                             "table": str(table), "k": 1.0}},
                                        name=f"{table.stem}.json")).model
              for table in (plain, commented)]
    assert models[0].family.energies == models[1].family.energies
    assert models[0].family.values == models[1].family.values


@pytest.mark.parametrize("triple, message", [
    ([-0.1, 0.3, 0.3], "U must lie in [0, 1]"),
    ([0.6, 1.2, 0.3], "Q must lie in [0, 1]"),
    ([0.6, 0.3, 0.0], "Omega must lie strictly inside (0, 1)"),
    ([0.6, 0.3, 1.0], "Omega must lie strictly inside (0, 1)"),
])
def test_parse_rejects_orbit_outside_cube(tmp_path, capsys, triple, message):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 2},
                                   "run": {"orbits": [[0.6, 0.3, 0.3], triple]}})
    with pytest.raises(ConfigError, match=r"run\.orbits\[1\]"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["portrait", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "run.orbits[1]" in err and message in err
    assert not (out / "summary.json").exists()


def test_parse_rejects_orbit_potential_past_table_end(tmp_path, capsys):
    table = tmp_path / "phi.csv"
    table.write_text("0.0,0.0\n1.0,1.7\n2.0,6.4\n3.0,19.1\n")
    model = {"family": "tabulated", "table": str(table), "k": 1.0}
    ok = write_config(tmp_path, {"model": model, "run": {"orbits": [[0.5, 0.5, 0.7]]}},
                      name="ok.json")   # omega = 7/3, below the grid end
    assert parse_config(ok).run["orbits"] == [[0.5, 0.5, 0.7]]
    # an orbit stops at the grid end, so none starts at it (omega = 3) or past it
    for far in (0.75, 0.8):
        path = write_config(tmp_path, {"model": model,
                                       "run": {"orbits": [[0.5, 0.5, 0.3], [0.5, 0.5, far]]}})
        with pytest.raises(ConfigError, match=r"run\.orbits\[1\]"):
            parse_config(path)
        assert main(["portrait", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "past the end of the tabulated phi grid" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, key", [
    ({"model": {"family": "polytrope", "n": 1.0}, "output": {"precision": math.inf}},
     "output.precision"),
    ({"model": {"family": "truncated-exponential", "p": math.nan}}, "model.p"),
    ({"model": {"family": "polytrope", "n": math.inf}}, "model.n"),
    ({"model": {"family": "polytrope", "n": 1.0}, "run": {"omega_c": math.inf}},
     "run.omega_c"),
])
def test_parse_rejects_non_finite_numbers(tmp_path, capsys, cfg, key):
    # json reads the literals NaN and Infinity as floats
    path = write_config(tmp_path, cfg)
    assert "NaN" in Path(path).read_text() or "Infinity" in Path(path).read_text()
    with pytest.raises(ConfigError, match=rf"{key} must be finite"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_parse_rejects_foreign_family_key(tmp_path):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1, "p": 0}})
    with pytest.raises(ConfigError, match="model.p"):
        parse_config(path)


def test_parse_omega_grid_forms(tmp_path):
    # the grid is a list of numbers; a start/stop/count mapping is refused
    base = {"family": "polytrope", "n": 1}
    cfg = parse_config(write_config(tmp_path, {
        "model": base, "run": {"omega_grid": [0.1, 0.7]}}))
    assert cfg.run["omega_grid"] == [0.1, 0.7]
    with pytest.raises(ConfigError, match=r"^run.omega_grid must be a list of numbers, got \{"):
        parse_config(write_config(tmp_path, {
            "model": base, "run": {"omega_grid": {"start": 0.5, "stop": 2.0, "count": 4}}},
            name="b.json"))



def test_readme_run_schema_is_accepted():
    # the README's config schema, comments stripped, passes the run checks and
    # names every run key the CLI knows
    from vpequil import cli
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n### ", 1)[0]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    run = cli._validate_run(schema["run"], polytrope(1.5))
    assert set(run) == set(schema["run"])
    missing = [key for key in sorted(cli._RUN_KEYS) if f'"{key}"' not in section]
    assert not missing


@pytest.mark.parametrize("grid, key", [
    ([], r"run.omega_grid must not be empty"),
    ([-1.0, 0.5], r"run.omega_grid\[0\] must be positive"),
    ([0.5, 0.3], r"run.omega_grid\[1\] = 0.3 must exceed run.omega_grid\[0\]"),
    ([0.5, 0.5], r"run.omega_grid\[1\] = 0.5 must exceed run.omega_grid\[0\]"),
    ({"start": 1.0, "stop": 1.0000000000000002, "count": 3},
     r"run.omega_grid must be a list of numbers"),
    ([0.5, "x"], r"run.omega_grid\[1\] must be a number"),
], ids=["empty", "negative", "decreasing", "repeated", "mapping-repeated", "element"])
def test_invalid_omega_grid_exits_2_with_key_path(tmp_path, capsys, grid, key):
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 1},
                                   "run": {"omega_grid": grid}})
    with pytest.raises(ConfigError, match=key):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.omega_grid") and err.count("\n") == 1
    assert not (out / "summary.json").exists()

def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {\n  "family": polytrope\n}}')
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


# ------------------------------------------------------------------- solve

def solve_config(omega_c=1.0, **run_extra):
    run = {"omega_c": omega_c}
    run.update(run_extra)
    return {"model": {"family": "polytrope", "n": 1.0}, "run": run}


def test_solve_linear_model(tmp_path):
    path = write_config(tmp_path, solve_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["tool_version"] == __version__
    assert summary["config"]["run"]["omega_c"] == 1.0
    res = summary["results"]
    assert res["classification"] == "FiniteRadius"
    assert res["radius"] == pytest.approx(RADIUS_N1, rel=1e-6)
    assert res["total_mass"] == pytest.approx(RADIUS_N1, rel=1e-6)
    assert res["forward_label"] == "(0,1,0)"
    assert res["backward_label"] == "L2"
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "r,m,omega,rho,p_rad"
    assert len(lines) > 10


def test_solve_outputs_deterministic(tmp_path):
    # a compact ball ends at a surface event; the n = 6 halo runs to r_max
    # and pays for the mass-decade query
    for n, termination in ((1.0, "surface"), (6.0, "r_max")):
        cfg = solve_config()
        cfg["model"]["n"] = n
        path = write_config(tmp_path, cfg, name=f"n{n}.json")
        out1, out2 = tmp_path / f"a{n}", tmp_path / f"b{n}"
        assert main(["solve", "--config", path, "--out", str(out1)]) == 0
        assert main(["solve", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        diag = load_summary(out1)["results"]["diagnostics"]
        assert set(diag) == {"n_steps", "n_rejected", "n_rhs_evals", "termination",
                             "decade_mass_ratio"}
        assert diag["termination"] == termination
        assert diag["n_rhs_evals"] >= 12 * diag["n_steps"] > 0
        # one interpolant: the surface step, or the step of the mass-decade query
        assert diag["n_rhs_evals"] == 2 + 12 * (diag["n_steps"] + diag["n_rejected"]) + 3
        assert (diag["decade_mass_ratio"] is None) == (termination == "surface")


def test_solve_profile_matches_library_writer(tmp_path):
    from vpequil.physical import integrate_physical, write_profile_csv
    from vpequil.distmodels import polytrope

    path = write_config(tmp_path, solve_config())
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    write_profile_csv(integrate_physical(polytrope(n=1.0), 1.0), ref)
    assert (out / "profile.csv").read_bytes() == ref.read_bytes()


def test_solve_honors_precision(tmp_path):
    cfg = solve_config()
    cfg["output"] = {"precision": 8}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    row = (out / "profile.csv").read_text().splitlines()[1].split(",")
    assert row[0] == f"{float(row[0]):.8g}"


def test_solve_failure_leaves_no_summary(tmp_path, capsys):
    # the cutoff is 1e6 natural lengths, no setting: a config that still sets
    # r_max, here inside the start, is refused before any solve
    path = write_config(tmp_path, solve_config(r_max=1e-9))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: run.r_max is not a recognised key\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("cfg", [
    # the density scale underflows to 0
    {"model": {"family": "truncated-exponential", "p": 0}, "run": {"omega_c": 5e-324}},
    # the length is a power 1/(2 + 2l) = 50, which overflows
    {"model": {"family": "polytrope", "n": 100, "l": -0.99, "phi_minus": 1e6},
     "run": {"omega_c": 0.01}},
], ids=["omega_c-5e-324", "n100-l-0.99"])
def test_natural_length_out_of_range_exits_1(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: natural_length at omega_c = {cfg['run']['omega_c']:g} is inf, "
                   "not a finite positive double\n")
    assert not (out / "summary.json").exists()



@pytest.mark.parametrize("model", [
    {"family": "truncated-exponential", "p": 170},   # Gamma overflows building the model
    {"family": "polytrope", "n": 3.0, "l": 300},       # a step of the solve overflows
], ids=["p170", "l300"])
def test_arithmetic_error_exits_1_without_traceback(tmp_path, capsys, model):
    path = write_config(tmp_path, {"model": model, "run": {"omega_c": 0.5}})
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("model, message", [
    ({"family": "truncated-exponential", "p": 170},
     "model.p = 170, model.l = 0: Gamma(172) of the phi kernel overflows"),
    ({"family": "truncated-exponential", "p": 0, "l": 200},   # Gamma(l + 3/2) of g
     "model.p = 0, model.l = 200: "),
], ids=["p170", "l200"])
def test_model_overflow_names_the_keys_and_the_kernel(tmp_path, capsys, model, message):
    path = write_config(tmp_path, {"model": model, "run": {"omega_c": 0.5}})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: OverflowError: " + message)


def test_step_overflow_names_l_and_the_term(tmp_path, capsys):
    # r ** (2 l) overflows inside the step loop; the solve names the key and the term
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 3, "l": 300},
                                   "run": {"omega_c": 0.5}})
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: model.l = 300: r ** (2 l) = r ** 600 of the "
                          "density overflows double precision below r_max = ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_kernel_overflow_names_l_and_the_term(tmp_path, capsys):
    # at omega_c 20 the polytrope kernel's omega ** (n + l) overflows in the
    # natural length, before the step loop; the solve names the key and the term
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 3, "l": 300},
                                   "run": {"omega_c": 20}})
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: OverflowError: model.l = 300: omega ** 303 of the polytrope kernel g_300.5 "
        "overflows double precision at omega = 20\n")
    assert not (out / "summary.json").exists()

KING = {"family": "truncated-exponential", "p": 0}
POLYTROPE3 = {"family": "polytrope", "n": 3.0}


@pytest.mark.parametrize("command, model, run, message", [
    ("portrait", POLYTROPE3, {"orbits": [[0.5, 0.5, 1e-300]]},
     "run.orbits[0] omega = 1e-300 lies outside the potential window (1e-12, 1e+12)"),
    ("portrait", POLYTROPE3, {"orbits": [[0.6, 0.3, 0.3], [0.5, 0.5, 1.0 - 1e-16]]},
     "run.orbits[1] omega = 9.0072e+15 lies outside the potential window (1e-12, 1e+12)"),
    ("check", KING, {"omega_c": 5e-324},
     "run.omega_c = 4.94066e-324 puts the low end of the checked interval, 1e-10 times it, "
     "below the index floor 1e-300"),
    ("solve", KING, {"omega_c": 1.0, "rel_tol": 1e-20},
     "run.rel_tol must lie in [2.22045e-14, 0.01], got 1e-20"),
    ("solve", KING, {"omega_c": 1.0, "rel_tol": 0.5},
     "run.rel_tol must lie in [2.22045e-14, 0.01], got 0.5"),
    ("solve", {"family": "polytrope", "n": 0.3}, {"omega_c": 1.0},
     "model.n: polytrope exponent n must exceed 1/2, got 0.3"),
], ids=["orbit-omega-1e-300", "orbit-Omega-1-1e-16", "check-omega_c-5e-324", "rel_tol-1e-20", "rel_tol-0.5", "model-n-0.3"])
def test_invalid_value_exits_2_naming_its_key(tmp_path, capsys, command, model, run, message):
    # each relation is checked once, in the library code that reads the value;
    # the CLI names the key of the SettingError or ModelError, and writes no summary
    path = write_config(tmp_path, {"model": model, "run": run})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "summary.json").exists()


def test_other_commands_keys_are_checked_too(tmp_path, capsys):
    # a portrait key of a config is checked when the config runs solve
    path = write_config(tmp_path, {"model": KING, "run": {
        "omega_c": 1.0, "orbits": [[0.5, 0.5, 1e-300]], "lambda_max": 20.0}})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "run.orbits[0] omega = 1e-300" in capsys.readouterr().err


FUZZ_SEED = 1020   # random.Random draws do not move with the code base's constants


def fuzz_value(rng, lo, hi, log=False, sign=(-1.0, 1.0)):
    """Mostly a value in [lo, hi], or in [10^lo, 10^hi]; else 0 or 5e-324
    to 1e300 of a sign in ``sign``."""
    if rng.random() < 0.94:
        x = rng.uniform(lo, hi)
        return 10.0 ** x if log else x
    if rng.random() < 0.1:
        return 0.0
    return rng.choice(sign) * 10.0 ** rng.uniform(-323.3, 300.0)


def fuzz_config(rng, table):
    family = rng.choice(("polytrope", "truncated-exponential", "tabulated"))
    model = {"family": family, "l": fuzz_value(rng, -0.99, 3.0)}
    if family == "polytrope":
        model.update(n=fuzz_value(rng, 0.3, 8.0), phi_minus=fuzz_value(rng, 1e-3, 1e3))
    elif family == "truncated-exponential":
        model["p"] = rng.choice((0, 1, 2, 5, -1, 170))
    else:
        model.update(table=table, k=fuzz_value(rng, -0.5, 3.0),
                     holder_index=fuzz_value(rng, 0.1, 1.0))
    grid = sorted(fuzz_value(rng, 0.05, 4.0) for _ in range(rng.randint(1, 3)))
    omega = rng.choice((fuzz_value(rng, 0.001, 0.9),) * 4
                       + (10.0 ** rng.uniform(-323.3, 0.0), 1.0 - 10.0 ** rng.uniform(-17.0, -1.0)))
    run = {"omega_c": fuzz_value(rng, 0.05, 4.0), "omega_grid": grid,
           "rel_tol": fuzz_value(rng, -14.0, -1.5, log=True),
           # lambda_max stays where a run finishes, or is invalid
           "lambda_max": fuzz_value(rng, 0.1, 40.0, sign=(-1.0,)),
           "orbits": [[rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), omega]],
           "backward": rng.random() < 0.5}
    keep = rng.sample(sorted(run), rng.randint(1, len(run)))
    return {"model": model, "run": {key: run[key] for key in keep}}


def test_config_fuzz_exits_cleanly_with_one_line(tmp_path, capsys):
    # fixed draws over the three families, every run key and values from
    # 5e-324 to 1e300 of either sign: every command exits 0, 1 or 2 with
    # nothing escaping main; exit 2 names a key, and exit 1 is one line that
    # names its failure, not a bare ZeroDivisionError, math domain error or
    # errno tuple
    rng = random.Random(FUZZ_SEED)
    table = tmp_path / "phi.csv"
    table.write_text("\n".join(table31_rows()) + "\n")
    codes = []
    for i in range(400):
        command = rng.choice(("solve", "sweep", "portrait", "check"))
        cfg = fuzz_config(rng, str(table))
        path = write_config(tmp_path, cfg)
        code = main([command, "--config", path, "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        case = (command, cfg, code, err)
        assert code in (0, 1, 2), case
        assert err.count("\n") == (code > 0), case
        if code == 2:
            assert err.startswith("config error: "), case
            assert re.search(r"\b(model|run|output)\.\w", err), case
        if code == 1:
            assert err.startswith("error: ") and "ZeroDivisionError" not in err, case
            assert not err.endswith("math domain error\n") and not re.search(r"\(\d+, '", err), case
        codes.append(code)
    assert {0, 1, 2} <= set(codes)


# ------------------------------------------------------------------- sweep

def test_sweep_command(tmp_path):
    cfg = {"model": {"family": "polytrope", "n": 1.0},
           "run": {"omega_grid": [0.5, 1.0, 1.5, 2.0]}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "omega_c,R,M,class,label"
    assert len(lines) == 5
    assert all(line.split(",")[3] == "FiniteRadius" for line in lines[1:])
    summary = load_summary(out)
    assert summary["results"]["critical_values"] == []
    assert summary["results"]["n_entries"] == 4


def test_sweep_matches_library_writer(tmp_path):
    from vpequil.analysis import sweep_omega_c, write_sweep_csv
    from vpequil.distmodels import polytrope

    cfg = {"model": {"family": "polytrope", "n": 1.0},
           "run": {"omega_grid": [0.5, 1.25]}, "output": {"precision": 7}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    write_sweep_csv(sweep_omega_c(polytrope(n=1.0), [0.5, 1.25]), ref, precision=7)
    assert (out / "sweep.csv").read_bytes() == ref.read_bytes()


# ------------------------------------------------------------------- check

def test_check_wilson(tmp_path):
    cfg = {"model": {"family": "truncated-exponential", "p": 1},
           "run": {"omega_c": WILSON_OMEGA_CRIT / 2}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["check", "--config", path, "--out", str(out)]) == 0
    res = load_summary(out)["results"]
    assert res["T2"]["theorem"] == "T2"
    assert res["T2"]["holds"] == "Guaranteed"
    assert res["omega_crit"] == pytest.approx(WILSON_OMEGA_CRIT, rel=1e-6)
    assert res["T1"]["holds"] == "Inconclusive"


@pytest.mark.parametrize("run", [{"omega_c": WILSON_OMEGA_CRIT / 2}], ids=["omega_c"])
def test_check_computes_omega_crit_once(tmp_path, monkeypatch, run):
    # check_theorem2 finds omega_crit for its witness; the summary reuses it
    from vpequil import analysis
    real, calls = analysis.omega_crit, []

    def counted(model):
        calls.append(model)
        return real(model)
    monkeypatch.setattr(analysis, "omega_crit", counted)
    path = write_config(tmp_path, {"model": {"family": "truncated-exponential", "p": 1},
                                   "run": run})
    out = tmp_path / "out"
    assert main(["check", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert load_summary(out)["results"]["omega_crit"] == pytest.approx(WILSON_OMEGA_CRIT,
                                                                       rel=1e-6)


def test_check_scale_free_model(tmp_path):
    cfg = {"model": {"family": "polytrope", "n": 3.0}, "run": {"omega_c": 1.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["check", "--config", path, "--out", str(out)]) == 0
    res = load_summary(out)["results"]
    assert res["omega_crit"] == "inf"
    assert res["T2"]["holds"] == "Guaranteed"
    assert res["T1"]["holds"] == "Inconclusive"


def test_check_requires_an_amplitude(tmp_path):
    cfg = {"model": {"family": "polytrope", "n": 3.0}}
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path / "o")]) == 2


# ----------------------------------------------------------------- portrait

def test_portrait_command(tmp_path):
    cfg = {"model": {"family": "truncated-exponential", "p": 0},
           "run": {"orbits": [[0.6, 0.3, 0.3], [0.4, 0.2, 0.25]],
                   "lambda_max": 20.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["portrait", "--config", path, "--out", str(out)]) == 0
    orbit_lines = (out / "orbit_000.csv").read_text().splitlines()
    assert orbit_lines[0] == "lambda,U,Q,Omega,xi,log_Z,Phi,S1"
    assert (out / "orbit_001.csv").exists()
    fixed = (out / "fixed_lines.csv").read_text().splitlines()
    assert fixed[0] == "name,U,Q,eig1,eig2,eig3,kind"
    assert any(line.startswith("L2,0.75,") for line in fixed[1:])
    summary = load_summary(out)
    assert len(summary["results"]["orbits"]) == 2
    for rec in summary["results"]["orbits"]:
        assert "termination" in rec and "limit_label" in rec


def test_portrait_outputs_deterministic(tmp_path):
    # two runs in one process: nothing cached by the first may change the second
    cfg = {"model": {"family": "truncated-exponential", "p": 0},
           "run": {"orbits": [[0.6, 0.3, 0.3], [0.9, 0.8, 0.1]], "lambda_max": 30.0}}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["portrait", "--config", path, "--out", str(out1)]) == 0
    assert main(["portrait", "--config", path, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "orbit_001.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for rec in load_summary(out1)["results"]["orbits"]:
        assert rec["n_rhs_evals"] >= 12 * rec["n_steps"] > 0
        assert rec["n_samples"] == rec["n_steps"] + 1
        built = 0 if rec["termination"] == "lambda-max" else 1   # the event step's interpolant
        assert rec["n_rhs_evals"] == 2 + 12 * (rec["n_steps"] + rec["n_rejected"]) + 3 * built


@pytest.mark.parametrize("model", [
    {"family": "truncated-exponential", "p": 0},
    {"family": "polytrope", "n": 2.0},
])
def test_portrait_bound_index_outputs_deterministic(tmp_path, model):
    # the flow reads the model's bound index; a second model built from the
    # same config must reproduce every file byte for byte
    orbits = [[0.6, 0.3, 0.3], [0.4, 0.2, 0.25], [0.9, 0.8, 0.1], [0.2, 0.7, 0.45]]
    path = write_config(tmp_path, {"model": model, "run": {"orbits": orbits}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["portrait", "--config", path, "--out", str(out1)]) == 0
    assert main(["portrait", "--config", path, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert len([n for n in names if n.startswith("orbit_")]) == len(orbits)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_portrait_ignores_and_drops_the_keys_of_other_commands(tmp_path):
    # omega_grid and omega_c are sweep and solve keys: a portrait run validates
    # them, writes the same orbit files as without them, and records neither
    model = {"family": "polytrope", "n": 3.0}
    run = {"orbits": [[0.6, 0.3, 0.3], [0.5, 0.3, 0.4]], "lambda_max": 20.0}
    plain = write_config(tmp_path, {"model": model, "run": run}, name="plain.json")
    shared = write_config(tmp_path, {"model": model,
                                     "run": {**run, "omega_grid": [0.3, 0.6], "omega_c": 0.5}},
                          name="shared.json")
    out1, out2 = tmp_path / "plain", tmp_path / "shared"
    assert main(["portrait", "--config", plain, "--out", str(out1)]) == 0
    assert main(["portrait", "--config", shared, "--out", str(out2)]) == 0
    for name in ("orbit_000.csv", "orbit_001.csv", "fixed_lines.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert load_summary(out2)["config"]["run"] == load_summary(out1)["config"]["run"]
    assert not {"omega_grid", "omega_c"} & set(load_summary(out2)["config"]["run"])


@pytest.mark.parametrize("command, kept", [
    ("solve", {"omega_c", "rel_tol"}),
    ("sweep", {"omega_grid", "rel_tol"}),
    ("portrait", {"orbits", "rel_tol", "lambda_max"}),
    ("check", {"omega_c"}),
])
def test_summary_records_the_run_keys_its_command_reads(tmp_path, command, kept):
    run = {"omega_c": 0.5, "omega_grid": [0.3, 0.6], "orbits": [[0.6, 0.3, 0.3]],
           "lambda_max": 20.0, "rel_tol": 1e-10}
    path = write_config(tmp_path, {"model": {"family": "polytrope", "n": 3.0}, "run": run})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert set(load_summary(tmp_path / "out")["config"]["run"]) == kept


def test_portrait_tabulated_grid_end_below_four(tmp_path):
    table = tmp_path / "phi.csv"
    table.write_text("".join(f"{0.1 * i!r},{math.expm1(0.1 * i)!r}\n" for i in range(31)))
    cfg = {"model": {"family": "tabulated", "table": str(table), "k": 1.0},
           "run": {"orbits": [[0.6, 0.3, 0.3]]}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["portrait", "--config", path, "--out", str(out)]) == 0
    record = load_summary(out)["results"]["orbits"][0]
    assert record["limit_label"] == "(0,1,0)"


def test_portrait_tabulated_backward_stops_at_grid_end(tmp_path):
    # a backward orbit drives Omega up; on a table ending at E = 3 it stops
    # at Omega = 3/4 instead of querying phi past the end
    table = tmp_path / "phi.csv"
    energies = [3.0 * i / 60 for i in range(61)]
    table.write_text("".join(f"{e!r},{math.expm1(e)!r}\n" for e in energies))
    orbits = [[0.6, 0.3, 0.3], [0.5, 0.3, 0.4], [0.9, 0.8, 0.1]]
    cfg = {"model": {"family": "tabulated", "table": str(table), "k": 1.0},
           "run": {"orbits": orbits, "lambda_max": 30.0, "backward": True}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["portrait", "--config", path, "--out", str(out)]) == 0
    records = load_summary(out)["results"]["orbits"]
    assert [r["initial"] for r in records] == orbits
    for i, record in enumerate(records):
        assert record["termination"] in ("omega-ceiling", "lambda-max")
        lines = (out / f"orbit_{i:03d}.csv").read_text().splitlines()[1:]
        assert len(lines) == record["n_samples"]
        assert max(float(line.split(",")[3]) for line in lines) <= 0.75
    assert "omega-ceiling" in {r["termination"] for r in records}


def test_summary_records_the_table_as_written(tmp_path):
    # the same config and table copied into two directories write
    # byte-identical summaries: model.table is recorded as the config wrote
    # it, and the file is read from the config's directory
    summaries = []
    for name in ("a", "b"):
        folder = tmp_path / name
        folder.mkdir()
        (folder / "phi.csv").write_text("\n".join(table31_rows()) + "\n")
        path = write_config(folder, {"model": {"family": "tabulated", "table": "phi.csv",
                                               "k": 1.0},
                                     "run": {"omega_c": 0.5}})
        assert main(["solve", "--config", path, "--out", str(folder / "out")]) == 0
        summaries.append((folder / "out" / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["config"]["model"]["table"] == "phi.csv"


# ------------------------------------------------------------------- models

def test_models_listing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["models", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "polytrope" in text
    assert "truncated-exponential" in text
    assert "2.5" in text and "3.5" in text
    listing = json.loads((out / "models.json").read_text())
    families = [row["family"] for row in listing["families"]]
    assert "polytrope" in families


# ------------------------------------------------------------- import graph

def test_run_path_loads_no_scipy(tmp_path):
    # a fresh interpreter: importing the CLI, and running every subcommand,
    # and a backward portrait, on King l=0 and Wilson l=-0.4 (the elementary
    # and the general incomplete gamma kernel), a tabulated table and a
    # polytrope, loads no numpy and no scipy module, not the oracles'
    # quadrature and not `statistics` (which loads `fractions` and `decimal`)
    table = tmp_path / "phi.csv"
    table.write_text("".join(f"{0.1 * i!r},{math.expm1(0.1 * i)!r}\n" for i in range(31)))
    models = [{"family": "truncated-exponential", "p": 0, "l": 0.0},
              {"family": "truncated-exponential", "p": 1, "l": -0.4},
              {"family": "tabulated", "table": str(table), "k": 1.0},
              {"family": "polytrope", "n": 3.0}]
    runs = []
    for i, model in enumerate(models):
        cfg = {"model": model,
               "run": {"omega_c": 0.5, "omega_grid": [0.3, 0.6],
                       "orbits": [[0.6, 0.3, 0.3]], "lambda_max": 20.0}}
        path = write_config(tmp_path, cfg, name=f"cfg{i}.json")
        runs += [[cmd, "--config", path, "--out", str(tmp_path / f"{cmd}{i}")]
                 for cmd in ("solve", "check", "sweep", "portrait")]
        back = {"model": model, "run": {"orbits": [[0.5, 0.3, 0.4]], "lambda_max": 30.0,
                                        "backward": True}}
        path = write_config(tmp_path, back, name=f"back{i}.json")
        runs.append(["portrait", "--config", path, "--out", str(tmp_path / f"back{i}")])
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(Path(vpequil.__file__).parents[1])!r})

        def unwanted_modules():
            return sorted(m for m in sys.modules
                          if m.partition(".")[0] in ("numpy", "scipy")
                          or m in ("vpequil._quadrature", "statistics"))

        import vpequil.cli
        after_import = unwanted_modules()
        codes = [vpequil.cli.main(argv) for argv in {runs!r}]
        print(json.dumps({{"import": after_import, "codes": codes, "runs": unwanted_modules()}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["codes"] == [0] * len(runs)
    assert report["runs"] == []


def test_every_definition_in_the_package_is_reached():
    # each top-level function and class of vpequil is referenced from another
    # definition of the package, or exported by vpequil/__init__.py: the test
    # oracles live in tests/oracles.py.  The exceptions are the two hooks the
    # benchmark's tracer patches, PolytropicIndexTable and vpequil._quadrature
    package = Path(vpequil.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = set()   # (module, top-level definition or None, name used)
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    uses.add((module, owner, getattr(node, "id", None) or node.attr))
    unreached = [f"{module}.{top.name}" for module, tree in trees.items()
                 if module != "_quadrature" for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 and top.name not in exported
                 and not any(name == top.name and (m, o) != (module, top.name)
                             for m, o, name in uses)]
    assert unreached == ["compactsys.PolytropicIndexTable"]


def test_no_module_imports_a_name_it_never_reads():
    # each name that a module of src/vpequil or tests imports is read in it;
    # exempt are the re-exports of vpequil/__init__.py and `from __future__`
    root = Path(vpequil.__file__).parents[2]
    paths = [p for p in sorted((root / "src" / "vpequil").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {}   # bound name -> line
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.partition(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.relative_to(root)}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []
