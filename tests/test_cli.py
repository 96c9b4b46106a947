"""End-to-end tests of the command-line frontend.

Each happy path is checked against the same closed-form oracles as the
library tests (the linear-density family has an exact radius and mass),
and the file outputs are checked for byte-level determinism, since the
frontend promises identical files for identical configs.
"""

import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vpequil
from vpequil import __version__
from vpequil.cli import ConfigError, main, parse_config

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
    base = {"family": "polytrope", "n": 1}
    cfg = parse_config(write_config(tmp_path, {
        "model": base, "run": {"omega_grid": {"start": 0.5, "stop": 2.0, "count": 4}}}))
    assert cfg.run["omega_grid"] == pytest.approx([0.5, 1.0, 1.5, 2.0])
    cfg = parse_config(write_config(tmp_path, {
        "model": base, "run": {"omega_grid": [0.1, 0.7]}}, name="b.json"))
    assert cfg.run["omega_grid"] == [0.1, 0.7]
    with pytest.raises(ConfigError, match="count"):
        parse_config(write_config(tmp_path, {
            "model": base, "run": {"omega_grid": {"start": 0.5, "stop": 2.0, "count": 1}}},
            name="c.json"))



def test_readme_run_schema_is_accepted():
    # the README's config schema, comments stripped, passes the run checks and
    # names every run key the CLI knows
    from vpequil import cli
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n### ", 1)[0]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    run = cli._validate_run(schema["run"])
    assert set(run) == set(schema["run"])
    missing = [key for key in sorted(cli._RUN_KEYS) if f'"{key}"' not in section]
    assert not missing


@pytest.mark.parametrize("grid, key", [
    ([], r"run.omega_grid must not be empty"),
    ([-1.0, 0.5], r"run.omega_grid\[0\] must be positive"),
    ([0.5, 0.3], r"run.omega_grid\[1\] = 0.3 must exceed run.omega_grid\[0\]"),
    ([0.5, 0.5], r"run.omega_grid\[1\] = 0.5 must exceed run.omega_grid\[0\]"),
    ({"start": 1.0, "stop": 1.0000000000000002, "count": 3},
     r"run.omega_grid\[1\] = 1.0 must exceed run.omega_grid\[0\] = 1.0 in the grid "
     r"expanded from start/stop/count"),
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
    path = write_config(tmp_path, solve_config(startup_radius=10.0, r_max=1.0))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
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

# ------------------------------------------------------------------- sweep

def test_sweep_command(tmp_path):
    cfg = {"model": {"family": "polytrope", "n": 1.0},
           "run": {"omega_grid": {"start": 0.5, "stop": 2.0, "count": 4}}}
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


@pytest.mark.parametrize("run", [{"omega_c": WILSON_OMEGA_CRIT / 2}, {"omega_0": 0.1}],
                         ids=["omega_c", "omega_0"])
def test_check_computes_omega_crit_once(tmp_path, monkeypatch, run):
    # check_theorem2 finds omega_crit for its witness; the summary reuses it
    from vpequil import analysis, cli
    real, calls = analysis.omega_crit, []

    def counted(model):
        calls.append(model)
        return real(model)
    monkeypatch.setattr(analysis, "omega_crit", counted)
    monkeypatch.setattr(cli, "omega_crit", counted)
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
    # a fresh interpreter: importing the CLI, and running every subcommand on
    # King l=0 and Wilson l=-0.4 (the elementary and the general incomplete
    # gamma kernel), a tabulated table and a polytrope, loads no scipy module,
    # not the oracles' quadrature and not `statistics` (which loads
    # `fractions` and `decimal`)
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
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(Path(vpequil.__file__).parents[1])!r})

        def unwanted_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
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
