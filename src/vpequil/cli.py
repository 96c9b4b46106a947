"""Configuration-driven command-line frontend.

Subcommands
-----------
solve      integrate one equilibrium and write its profile CSV
sweep      map a grid of central amplitudes to radii, masses, and critical values
portrait   integrate a bundle of compact orbits and dump plot-ready data
check      run the finiteness criteria and report verdicts
models     list the built-in distribution families

All numeric output uses fixed significant-digit formatting, so a repeated
invocation with the same config produces byte-identical files.  The JSON
summary ({tool_version, config, results}) is always written last: a failed
run never leaves a partial summary behind.  Units are gravitational
(G = 1); there is no unit-conversion layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .analysis import (
    _checked_grid,
    check_theorem1,
    check_theorem2,
    classify_solution,
    sweep_omega_c,
    write_sweep_csv,
)
from .compactsys import (
    CompactSettings,
    CompactState,
    _check_start,
    fixed_lines,
    integrate_compact,
)
from .distmodels import (
    DistributionModel,
    EvaluationError,
    ModelError,
    SettingError,
    eval_n,
    king_model,
    load_tabulated,
    polytrope,
    truncated_exponential,
    wilson_model,
)
from .physical import (
    SolveSettings,
    _check_amplitude,
    integrate_physical,
    write_csv,
    write_profile_csv,
)


class ConfigError(ValueError):
    """Config file violates the schema; diagnostics name the offending key."""


# each family's keys besides "family", with their defaults; ... marks a required key
_MODEL_KEYS = {
    "polytrope": {"l": 0.0, "n": ..., "phi_minus": 1.0},
    "truncated-exponential": {"l": 0.0, "p": ...},
    "tabulated": {"l": 0.0, "table": ..., "k": ..., "holder_index": None},
}
# the run keys each command reads.  A config may hold the keys of every
# command, and all are validated; a command sees, and its summary records,
# only its own
_COMMAND_KEYS = {
    "solve": {"omega_c", "rel_tol"},
    "sweep": {"omega_grid", "rel_tol"},
    "portrait": {"orbits", "rel_tol", "lambda_max", "backward"},
    "check": {"omega_c"},
}
_RUN_KEYS = set().union(*_COMMAND_KEYS.values())
_RUN_KEY = re.compile(r"\b(%s)\b" % "|".join(sorted(_RUN_KEYS)))


def _run_error(exc: SettingError) -> ConfigError:
    """The library's SettingError as a config error, every run key it names
    given its path: ``omega_grid[1] = ...`` reads ``run.omega_grid[1] = ...``."""
    return ConfigError(_RUN_KEY.sub(r"run.\1", str(exc)))


@dataclass
class RunConfig:
    """Validated configuration: built model plus resolved key/value blocks."""

    model: DistributionModel
    run: dict
    output: dict
    resolved: dict


def _require_number(value, path, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if not math.isfinite(value):   # json reads NaN and Infinity
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _build_model(block, base_dir):
    if not isinstance(block, dict):
        raise ConfigError("model block must be a mapping")
    family = block.get("family")
    if not isinstance(family, str) or family not in _MODEL_KEYS:
        raise ConfigError(f"model.family must be one of {', '.join(_MODEL_KEYS)}, "
                          f"got {family!r}")
    keys = _MODEL_KEYS[family]
    for key in block:
        if key != "family" and key not in keys:
            raise ConfigError(f"model.{key} is not valid for family '{family}'")
    resolved = {"family": family}
    for key, default in keys.items():
        if default is ... and key not in block:
            raise ConfigError(f"model.{key} is required for {family} models")
        value = block.get(key, default)
        if key == "table" and not isinstance(value, str):
            raise ConfigError(f"model.table must be a path string, got {value!r}")
        if key != "table" and value is not None:
            value = _require_number(value, f"model.{key}", integer=key == "p")
        resolved[key] = value
    r = resolved
    try:
        if family == "polytrope":
            model = polytrope(r["n"], l=r["l"], phi_minus=r["phi_minus"])
        elif family == "truncated-exponential":
            try:
                model = truncated_exponential(r["p"], l=r["l"])
            except OverflowError as exc:   # a Gamma function of p and l
                raise OverflowError(f"model.p = {r['p']}, model.l = {r['l']:g}: {exc}") from None
        else:
            model = load_tabulated(os.path.join(base_dir, r["table"]), l=r["l"], k=r["k"],
                                   holder_index=r["holder_index"])
    except ModelError as exc:   # a table's own data has no key: its file and line
        raise ConfigError(f"model{'.' + exc.key if exc.key else ''}: {exc}") from exc
    return model, resolved


def _validate_run(block, model):
    """The run block: its form here (known keys, numbers where numbers go,
    orbit triples inside the cube), then each value through the library
    code that reads it, for every key present, so the keys of other
    commands are checked too; a SettingError becomes a config error."""
    if not isinstance(block, dict):
        raise ConfigError("run block must be a mapping")
    for key in block:
        if key not in _RUN_KEYS:
            raise ConfigError(f"run.{key} is not a recognised key")
    run = dict(block)
    for key in ("omega_c", "rel_tol", "lambda_max"):
        if key in run:
            run[key] = _require_number(run[key], f"run.{key}")
    if "backward" in run and not isinstance(run["backward"], bool):
        raise ConfigError("run.backward must be true or false")
    if "omega_grid" in run:
        grid = run["omega_grid"]
        if not isinstance(grid, list):
            raise ConfigError(f"run.omega_grid must be a list of numbers, got {grid!r}")
        run["omega_grid"] = [_require_number(w, f"run.omega_grid[{i}]")
                             for i, w in enumerate(grid)]
    orbits, starts = run.get("orbits", []), []
    if "orbits" in run and (not isinstance(orbits, list) or not orbits):
        raise ConfigError("run.orbits must be a non-empty list of [U, Q, Omega] triples")
    for i, triple in enumerate(orbits):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(f"run.orbits[{i}] must be a [U, Q, Omega] triple")
        orbits[i] = [_require_number(x, f"run.orbits[{i}]") for x in triple]
        try:
            starts.append(CompactState(*orbits[i]))
        except ValueError as exc:
            raise ConfigError(f"run.orbits[{i}]: {exc}") from exc
    try:
        if "omega_c" in run:
            _check_amplitude(model, "omega_c", run["omega_c"])
        if "omega_grid" in run:
            run["omega_grid"] = _checked_grid(model, run["omega_grid"])
        for cls in (SolveSettings, CompactSettings):   # each checks its fields when built
            _settings(cls, run)
        for i, start in enumerate(starts):
            _check_start(model, start, f"orbits[{i}]")
    except SettingError as exc:
        raise _run_error(exc) from exc
    return run


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config; raise ConfigError with the key path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for key in data:
        if key not in ("model", "run", "output"):
            raise ConfigError(f"'{key}' is not a recognised top-level key")
    if "model" not in data:
        raise ConfigError("model block is required")
    model, model_resolved = _build_model(data["model"], os.path.dirname(os.path.abspath(path)))
    run = _validate_run(data.get("run", {}), model)

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output block must be a mapping")
    for key in output:
        if key != "precision":
            raise ConfigError(f"output.{key} is not a recognised key")
    precision = _require_number(output.get("precision", 17), "output.precision",
                                integer=True)
    if not 1 <= precision <= 17:
        raise ConfigError(f"output.precision must be in [1, 17], got {precision}")
    output = {"precision": precision}

    resolved = {"model": model_resolved, "run": run, "output": output}
    return RunConfig(model=model, run=run, output=output, resolved=resolved)


# ----------------------------------------------------------------- output

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _write_json(path, payload):
    """Write sorted, indented JSON through a tmp file, so no partial file is left."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_summary(out_dir, config, results):
    _write_json(os.path.join(out_dir, "summary.json"),
                {"tool_version": __version__, "config": config, "results": results})


def _settings(cls, run):
    """SolveSettings or CompactSettings from the run keys that set its fields."""
    return cls(**{k: run[k] for k in cls.__dataclass_fields__ if k in run})


def _note(args, message):
    if args.verbose:
        print(f"[vpequil] {message}", file=sys.stderr)


# ------------------------------------------------------------- subcommands

# deterministic solver counts reported in the solve summary; n_rhs_evals
# includes the interpolant stages of the mass-decade query, if one ran
_SOLVE_DIAGNOSTICS = ("n_steps", "n_rejected", "n_rhs_evals", "termination",
                      "decade_mass_ratio")


def cmd_solve(cfg: RunConfig, args) -> int:
    if "omega_c" not in cfg.run:
        raise ConfigError("run.omega_c is required by the solve command")
    omega_c = cfg.run["omega_c"]
    _note(args, f"solving omega_c={omega_c:g}")
    try:
        profile = integrate_physical(cfg.model, omega_c, settings=_settings(SolveSettings, cfg.run))
    except OverflowError as exc:   # a power of r or omega in a step, at large l
        raise OverflowError(f"model.l = {cfg.model.l:g}: {exc}") from None
    labels = classify_solution(cfg.model, profile)
    write_profile_csv(profile, os.path.join(args.out, "profile.csv"),
                      cfg.output["precision"])
    results = {
        "omega_c": omega_c,
        "radius": profile.radius,
        "total_mass": profile.total_mass,
        "classification": profile.classification,
        "forward_label": labels.forward_label,
        "backward_label": labels.backward_label,
        "mass_convergent": labels.mass_convergent,
        "natural_length": profile.natural_length,
        "n_profile_points": len(profile.r),
        "diagnostics": {k: profile.diagnostics[k] for k in _SOLVE_DIAGNOSTICS},
    }
    _write_summary(args.out, cfg.resolved, results)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    if "omega_grid" not in cfg.run:
        raise ConfigError("run.omega_grid is required by the sweep command")
    _note(args, f"sweeping {len(cfg.run['omega_grid'])} amplitudes")
    result = sweep_omega_c(cfg.model, cfg.run["omega_grid"],
                           settings=_settings(SolveSettings, cfg.run))
    write_sweep_csv(result, os.path.join(args.out, "sweep.csv"), cfg.output["precision"])
    results = {
        "n_entries": len(result.entries),
        "critical_values": list(result.critical_values),
        "failures": [{"omega_c": w, "error": msg} for w, msg in result.failures],
        "classifications": sorted({e.classification for e in result.entries}),
    }
    _write_summary(args.out, cfg.resolved, results)
    return 0


def cmd_portrait(cfg: RunConfig, args) -> int:
    if "orbits" not in cfg.run:
        raise ConfigError("run.orbits is required by the portrait command")
    prec = cfg.output["precision"]
    settings = _settings(CompactSettings, cfg.run)
    backward = cfg.run.get("backward", False)

    lines = fixed_lines(cfg.model.l)
    write_csv(os.path.join(args.out, "fixed_lines.csv"),
              "name,U,Q,eig1,eig2,eig3,kind",
              [(line.name, line.U, line.Q, *line.eigenvalues, line.kind)
               for line in lines], prec)

    records = []
    for i, (u, q, om) in enumerate(cfg.run["orbits"]):
        _note(args, f"orbit {i}: start=({u:g}, {q:g}, {om:g})")
        orbit = integrate_compact(cfg.model, CompactState(U=u, Q=q, Omega=om),
                                  settings, backward=backward)
        write_csv(os.path.join(args.out, f"orbit_{i:03d}.csv"),
                  "lambda,U,Q,Omega,xi,log_Z,Phi,S1",
                  zip(orbit.lam, orbit.U, orbit.Q, orbit.Omega, orbit.xi, orbit.log_Z,
                      orbit.Phi, ["1" if v else "0" for v in orbit.S1]),
                  prec)
        records.append({"initial": [u, q, om], "termination": orbit.termination,
                        "limit_label": orbit.limit_label,
                        "n_samples": len(orbit.lam),
                        "n_steps": orbit.diagnostics["n_steps"],
                        "n_rejected": orbit.diagnostics["n_rejected"],
                        "n_rhs_evals": orbit.diagnostics["n_rhs_evals"]})
    _write_summary(args.out, cfg.resolved, {"orbits": records,
                                            "backward": backward})
    return 0


def cmd_check(cfg: RunConfig, args) -> int:
    if "omega_c" not in cfg.run:
        raise ConfigError("run.omega_c is required by the check command")
    omega_c = cfg.run["omega_c"]
    _note(args, "computing critical amplitude")
    # T2 first: its amplitude check names omega_c, where T1's names its omega_0
    t2 = check_theorem2(cfg.model, omega_c)
    results = {"T1": asdict(check_theorem1(cfg.model, omega_c)), "T2": asdict(t2),
               "omega_crit": t2.witness["omega_crit"]}
    _write_summary(args.out, cfg.resolved, results)
    return 0


_BUILTIN_MODELS = (
    ("polytrope", "n=1.5, l=0", lambda: polytrope(1.5)),
    ("polytrope", "n=3, l=0", lambda: polytrope(3.0)),
    ("truncated-exponential", "p=0, l=0", king_model),
    ("truncated-exponential", "p=1, l=0", wilson_model),
)


def cmd_models(args) -> int:
    rows = []
    for family, params, make in _BUILTIN_MODELS:
        model = make()
        rows.append({"family": family, "params": params,
                     "n0_estimate": eval_n(model, 1e-6)})
    for row in rows:
        print(f"{row['family']:<24} {row['params']:<14} "
              f"n0={row['n0_estimate']:.6g}")
    print("tabulated models load from a two-column (E, phi) CSV via the "
          "config keys model.table and model.k")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "models.json"),
                    {"tool_version": __version__, "families": rows})
    return 0


# ------------------------------------------------------------------ driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpequil",
        description="Spherical equilibria of self-gravitating collisionless "
                    "matter: solve, sweep, classify, and check finiteness criteria.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required=True, out_default="."):
        sp.add_argument("--config", required=config_required, default=None,
                        help="path to the JSON run configuration")
        sp.add_argument("--out", default=out_default, help="output directory")
        sp.add_argument("--verbose", action="store_true",
                        help="progress notes on stderr")

    add_common(sub.add_parser("solve", help="integrate one equilibrium"))
    add_common(sub.add_parser("sweep", help="scan a grid of central amplitudes"))
    add_common(sub.add_parser("portrait", help="integrate compact orbits"))
    add_common(sub.add_parser("check", help="run the finiteness criteria"))
    add_common(sub.add_parser("models", help="list built-in families"),
               config_required=False, out_default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return cmd_models(args)
        cfg = parse_config(args.config)
        cfg.run = {k: v for k, v in cfg.run.items() if k in _COMMAND_KEYS[args.command]}
        cfg.resolved["run"] = cfg.run
        os.makedirs(args.out, exist_ok=True)
        handler = {"solve": cmd_solve, "sweep": cmd_sweep,
                   "portrait": cmd_portrait, "check": cmd_check}[args.command]
        return handler(cfg, args)
    except (ConfigError, SettingError) as exc:   # a SettingError: a relation a command checks
        print(f"config error: {_run_error(exc) if isinstance(exc, SettingError) else exc}",
              file=sys.stderr)
        return 2
    except (ModelError, EvaluationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:   # an overflow, say, in building a model or in a step
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
