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
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .analysis import (
    _linspace,
    check_theorem1,
    check_theorem2,
    classify_solution,
    omega_crit,
    sweep_omega_c,
    write_sweep_csv,
)
from .compactsys import (
    CompactSettings,
    CompactState,
    fixed_lines,
    integrate_compact,
)
from .distmodels import (
    DistributionModel,
    EvaluationError,
    ModelError,
    eval_n,
    king_model,
    load_tabulated,
    polytrope,
    truncated_exponential,
    wilson_model,
)
from .physical import (
    SolveSettings,
    integrate_physical,
    natural_length,
    write_csv,
    write_profile_csv,
)


class ConfigError(ValueError):
    """Config file violates the schema; diagnostics name the offending key."""


_FAMILIES = ("polytrope", "truncated-exponential", "tabulated")
_MODEL_KEYS = {
    "polytrope": {"family", "l", "n", "phi_minus"},
    "truncated-exponential": {"family", "l", "p"},
    "tabulated": {"family", "l", "table", "k", "holder_index"},
}
_SETTINGS_KEYS = ("rel_tol", "abs_tol", "r_max")
# the run keys each command reads.  A config may hold the keys of every
# command, and all are validated; a command sees, and its summary records,
# only its own
_COMMAND_KEYS = {
    "solve": {"omega_c", *_SETTINGS_KEYS},
    "sweep": {"omega_grid", *_SETTINGS_KEYS},
    "portrait": {"orbits", "rel_tol", "lambda_max", "backward"},
    "check": {"omega_c", "omega_0"},
}
_RUN_KEYS = set().union(*_COMMAND_KEYS.values())


@dataclass
class RunConfig:
    """Validated configuration: built model plus resolved key/value blocks."""

    model: DistributionModel
    run: dict
    output: dict
    resolved: dict


def _require_number(value, path, integer=False, allow_none=False):
    if value is None and allow_none:
        return None
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
    if family not in _FAMILIES:
        raise ConfigError(f"model.family must be one of {', '.join(_FAMILIES)}, "
                          f"got {family!r}")
    allowed = _MODEL_KEYS[family]
    for key in block:
        if key not in allowed:
            raise ConfigError(f"model.{key} is not valid for family '{family}'")
    l = _require_number(block.get("l", 0.0), "model.l")
    if not l > -1.0:
        raise ConfigError(f"model.l: anisotropy exponent l must exceed -1, got {l}")

    try:
        if family == "polytrope":
            if "n" not in block:
                raise ConfigError("model.n is required for polytrope models")
            n = _require_number(block["n"], "model.n")
            phi_minus = _require_number(block.get("phi_minus", 1.0), "model.phi_minus")
            model = polytrope(n, l=l, phi_minus=phi_minus)
            resolved = {"family": family, "l": l, "n": n, "phi_minus": phi_minus}
        elif family == "truncated-exponential":
            if "p" not in block:
                raise ConfigError("model.p is required for truncated-exponential models")
            p = _require_number(block["p"], "model.p", integer=True)
            try:
                model = truncated_exponential(p, l=l)
            except OverflowError as exc:   # a Gamma function of p and l
                raise OverflowError(f"model.p = {p}, model.l = {l:g}: {exc}") from None
            resolved = {"family": family, "l": l, "p": p}
        else:
            if "table" not in block:
                raise ConfigError("model.table is required for tabulated models")
            if "k" not in block:
                raise ConfigError("model.k is required for tabulated models")
            table = block["table"]
            if not isinstance(table, str):
                raise ConfigError(f"model.table must be a path string, got {table!r}")
            table_path = table if os.path.isabs(table) else os.path.join(base_dir, table)
            k = _require_number(block["k"], "model.k")
            holder = _require_number(block.get("holder_index"), "model.holder_index",
                                     allow_none=True)
            model = load_tabulated(table_path, l=l, k=k, holder_index=holder)
            resolved = {"family": family, "l": l, "table": table, "k": k,
                        "holder_index": holder}
    except ModelError as exc:
        raise ConfigError(f"model: {exc}") from exc
    return model, resolved


def _expand_grid(value):
    """The sweep grid from a list or a start/stop/count mapping: non-empty,
    positive and strictly increasing, else a ConfigError naming the first
    offending element (an index into the expanded grid for a mapping)."""
    if isinstance(value, dict):
        extra = set(value) - {"start", "stop", "count"}
        if extra:
            raise ConfigError(f"run.omega_grid.{sorted(extra)[0]} is not recognised")
        for key in ("start", "stop", "count"):
            if key not in value:
                raise ConfigError(f"run.omega_grid.{key} is required")
        start = _require_number(value["start"], "run.omega_grid.start")
        stop = _require_number(value["stop"], "run.omega_grid.stop")
        count = _require_number(value["count"], "run.omega_grid.count", integer=True)
        if count < 2:
            raise ConfigError(f"run.omega_grid.count must be at least 2, got {count}")
        if not 0.0 < start < stop:
            raise ConfigError("run.omega_grid needs 0 < start < stop")
        grid = _linspace(start, stop, count)
        expanded = " in the grid expanded from start/stop/count"
    elif isinstance(value, list):
        grid = [_require_number(w, f"run.omega_grid[{i}]") for i, w in enumerate(value)]
        expanded = ""
    else:
        raise ConfigError(f"run.omega_grid must be a list or start/stop/count mapping, "
                          f"got {value!r}")
    if not grid:
        raise ConfigError("run.omega_grid must not be empty")
    for i, w in enumerate(grid):
        if not w > 0.0:
            raise ConfigError(f"run.omega_grid[{i}] must be positive, got {w!r}")
        if i and not w > grid[i - 1]:
            raise ConfigError(f"run.omega_grid[{i}] = {w!r} must exceed "
                              f"run.omega_grid[{i - 1}] = {grid[i - 1]!r}{expanded}: "
                              f"the grid must be strictly increasing")
    return grid


def _validate_run(block):
    if not isinstance(block, dict):
        raise ConfigError("run block must be a mapping")
    for key in block:
        if key not in _RUN_KEYS:
            raise ConfigError(f"run.{key} is not a recognised key")
    run = dict(block)
    for key in ("omega_c", "omega_0", "rel_tol", "abs_tol", "r_max", "lambda_max"):
        if key in run:
            val = _require_number(run[key], f"run.{key}")
            if not val > 0.0:
                raise ConfigError(f"run.{key} must be positive, got {val}")
            run[key] = val
    if "omega_grid" in run:
        run["omega_grid"] = _expand_grid(run["omega_grid"])
    if "backward" in run and not isinstance(run["backward"], bool):
        raise ConfigError("run.backward must be true or false")
    if "orbits" in run:
        orbits = run["orbits"]
        if not isinstance(orbits, list) or not orbits:
            raise ConfigError("run.orbits must be a non-empty list of [U, Q, Omega] triples")
        parsed = []
        for i, triple in enumerate(orbits):
            if not isinstance(triple, list) or len(triple) != 3:
                raise ConfigError(f"run.orbits[{i}] must be a [U, Q, Omega] triple")
            point = [_require_number(x, f"run.orbits[{i}]") for x in triple]
            try:
                CompactState(*point)
            except ValueError as exc:
                raise ConfigError(f"run.orbits[{i}]: {exc}") from exc
            parsed.append(point)
        run["orbits"] = parsed
    return run


def _check_table_range(model, run):
    """A family with a largest energy (a tabulated phi ends at its last
    sample) admits no amplitude past it, and no orbit start's potential
    Omega/(1-Omega) at or past it: an orbit stops where it reaches the end."""
    end = model.family.energy_max
    if end is None:
        return
    amplitudes = [(f"run.{key}", run[key]) for key in ("omega_c", "omega_0") if key in run]
    amplitudes += [(f"run.omega_grid[{i}]", w) for i, w in enumerate(run.get("omega_grid", ()))]
    for path, omega in amplitudes:
        if omega > end:
            raise ConfigError(f"{path} = {omega:g} lies past the end of the tabulated "
                              f"phi grid (E = {end:g})")
    for i, (_, _, om) in enumerate(run.get("orbits", ())):
        if om / (1.0 - om) >= end:
            raise ConfigError(f"run.orbits[{i}] omega = {om / (1.0 - om):g} lies at or "
                              f"past the end of the tabulated phi grid (E = {end:g})")


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
    run = _validate_run(data.get("run", {}))
    _check_table_range(model, run)

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


def _solver_settings(run):
    kwargs = {k: run[k] for k in _SETTINGS_KEYS if k in run}
    return SolveSettings(**kwargs)


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
        profile = integrate_physical(cfg.model, omega_c, settings=_solver_settings(cfg.run))
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
        "natural_length": natural_length(cfg.model, omega_c),
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
                           settings=_solver_settings(cfg.run))
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
    settings = CompactSettings(**{k: cfg.run[k] for k in ("rel_tol", "lambda_max") if k in cfg.run})
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
    omega_c = cfg.run.get("omega_c")
    omega_0 = cfg.run.get("omega_0", omega_c)
    if omega_0 is None:
        raise ConfigError("run.omega_c or run.omega_0 is required by the check command")
    verdicts = [check_theorem1(cfg.model, omega_0)]
    _note(args, "computing critical amplitude")
    if omega_c is not None:   # T2 keeps the critical amplitude in its witness
        verdicts.append(check_theorem2(cfg.model, omega_c))
    results = {v.theorem: asdict(v) for v in verdicts}
    results["omega_crit"] = (verdicts[1].witness["omega_crit"] if omega_c is not None
                             else omega_crit(cfg.model))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, EvaluationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:   # an overflow, say, in building a model or in a step
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
