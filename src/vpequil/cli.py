"""The vpequil command line: spherical equilibria from a JSON run configuration.

usage: vpequil COMMAND [--config PATH] [--out DIR] [--verbose]
       vpequil -h | --help | --version

Commands
--------
solve      integrate one equilibrium and write its profile CSV
sweep      map a grid of central amplitudes to radii, masses, and critical values
portrait   integrate a bundle of compact orbits and dump plot-ready data
check      run the finiteness criteria and report verdicts
models     list the built-in distribution families; reads no config

Options
-------
--config PATH   the JSON run configuration (also --config=PATH)
--out DIR       the output directory, made if needed; by default the
                current one, and for models none (no models.json)
--verbose       progress notes on stderr

Each option is spelt in full: a prefix such as --conf is refused.  The
exit status is 0 on success, 2 for a malformed command line (the usage
line, then one line naming the argument) or an invalid config (one line
naming the key), and 1 for a failed run.

A config holds a model block and a run block.  Every CSV number is
written at 17 significant digits, which round-trip a double, so a repeated
invocation with the same config produces byte-identical files.  The JSON
summary ({tool_version, config, results}, config the resolved {model, run})
is always written last: a failed run never leaves a partial summary
behind.  Units are gravitational (G = 1); there is no unit-conversion layer.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace

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
    CompactState,
    _check_lambda_max,
    _check_start,
    fixed_lines,
    integrate_compact,
)
from .distmodels import (
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
    _check_amplitude,
    _check_rel_tol,
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


def _run_error(exc: SettingError) -> ConfigError:
    """The library's SettingError as a config error, every run key it names
    (`_RUN_KEY`, from the command table) given its path:
    ``omega_grid[1] = ...`` reads ``run.omega_grid[1] = ...``."""
    return ConfigError(_RUN_KEY.sub(r"run.\1", str(exc)))


def _require_number(value, path, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:   # json reads any integer
        raise ConfigError(f"{path} is an integer beyond the range of a double")
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
            table = os.path.join(base_dir, r["table"])
            try:
                model = load_tabulated(table, l=r["l"], k=r["k"], holder_index=r["holder_index"])
            except OSError as exc:
                raise ConfigError(f"model.table: cannot read {table}: {exc.strerror}") from exc
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
        if "rel_tol" in run:
            _check_rel_tol(run["rel_tol"])
        if "lambda_max" in run:
            _check_lambda_max(run["lambda_max"])
        for i, start in enumerate(starts):
            _check_start(model, start, f"orbits[{i}]")
    except SettingError as exc:
        raise _run_error(exc) from exc
    return run


def parse_config(path) -> tuple:
    """Load and validate a JSON config: (the built model, the resolved
    ``{model, run}`` blocks); raise ConfigError with the key path."""
    try:
        with open(path) as fh:
            # an integer past int()'s digit limit is read as its first 400
            # characters: as far beyond a double, so its key is named
            data = json.load(fh, parse_int=lambda digits: int(digits[:400]))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:   # not UTF-8 text
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for key in data:
        if key not in ("model", "run"):
            raise ConfigError(f"'{key}' is not a recognised top-level key")
    if "model" not in data:
        raise ConfigError("model block is required")
    model, model_resolved = _build_model(data["model"], os.path.dirname(os.path.abspath(path)))
    return model, {"model": model_resolved, "run": _validate_run(data.get("run", {}), model)}


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


def _note(args, message):
    if args.verbose:
        print(f"[vpequil] {message}", file=sys.stderr)


# ------------------------------------------------------------- subcommands

# deterministic solver counts reported in the solve summary; n_rhs_evals
# includes the interpolant stages of the mass-decade query, if one ran
_SOLVE_DIAGNOSTICS = ("n_steps", "n_rejected", "n_rhs_evals", "termination",
                      "decade_mass_ratio")


def cmd_solve(model, run, args) -> dict:
    omega_c = run["omega_c"]
    _note(args, f"solving omega_c={omega_c:g}")
    try:
        profile = integrate_physical(model, **run)
    except OverflowError as exc:   # a power of r or omega in a step, at large l
        raise OverflowError(f"model.l = {model.l:g}: {exc}") from None
    labels = classify_solution(model, profile)
    write_profile_csv(profile, os.path.join(args.out, "profile.csv"))
    return {
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


def cmd_sweep(model, run, args) -> dict:
    _note(args, f"sweeping {len(run['omega_grid'])} amplitudes")
    result = sweep_omega_c(model, **run)
    write_sweep_csv(result, os.path.join(args.out, "sweep.csv"))
    return {
        "n_entries": len(result.entries),
        "critical_values": list(result.critical_values),
        "failures": [{"omega_c": w, "error": msg} for w, msg in result.failures],
        "classifications": sorted({e.classification for e in result.entries}),
    }


def cmd_portrait(model, run, args) -> dict:
    rest = {k: v for k, v in run.items() if k != "orbits"}

    lines = fixed_lines(model.l)
    write_csv(os.path.join(args.out, "fixed_lines.csv"),
              "name,U,Q,eig1,eig2,eig3,kind",
              [(line.name, line.U, line.Q, *line.eigenvalues, line.kind)
               for line in lines])

    records = []
    for i, (u, q, om) in enumerate(run["orbits"]):
        _note(args, f"orbit {i}: start=({u:g}, {q:g}, {om:g})")
        orbit = integrate_compact(model, CompactState(U=u, Q=q, Omega=om), **rest)
        write_csv(os.path.join(args.out, f"orbit_{i:03d}.csv"),
                  "lambda,U,Q,Omega,xi,log_Z,Phi,S1",
                  zip(orbit.lam, orbit.U, orbit.Q, orbit.Omega, orbit.xi, orbit.log_Z,
                      orbit.Phi, ["1" if v else "0" for v in orbit.S1]))
        records.append({"initial": [u, q, om], "termination": orbit.termination,
                        "limit_label": orbit.limit_label,
                        "n_samples": len(orbit.lam),
                        "n_steps": orbit.diagnostics["n_steps"],
                        "n_rejected": orbit.diagnostics["n_rejected"],
                        "n_rhs_evals": orbit.diagnostics["n_rhs_evals"]})
    return {"orbits": records, "backward": rest.get("backward", False)}


def cmd_check(model, run, args) -> dict:
    omega_c = run["omega_c"]
    _note(args, "computing critical amplitude")
    t1 = check_theorem1(model, omega_c)
    t2 = check_theorem2(model, omega_c)
    return {"T1": t1._asdict(), "T2": t2._asdict(), "omega_crit": t2.witness["omega_crit"]}


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
        _make_out(args.out)
        _write_json(os.path.join(args.out, "models.json"),
                    {"tool_version": __version__, "families": rows})
    return 0


# ------------------------------------------------------------------ driver

# each command's handler, the run keys it reads, and the one it cannot run
# without.  A config may hold the keys of every command, and all are
# validated; a command sees, and its summary records, only its own.
# `models` reads no config
_COMMANDS = {
    "solve": (cmd_solve, {"omega_c", "rel_tol"}, "omega_c"),
    "sweep": (cmd_sweep, {"omega_grid", "rel_tol"}, "omega_grid"),
    "portrait": (cmd_portrait, {"orbits", "rel_tol", "lambda_max", "backward"}, "orbits"),
    "check": (cmd_check, {"omega_c"}, "omega_c"),
    "models": (cmd_models, set(), None),
}
_RUN_KEYS = set().union(*(keys for _, keys, _ in _COMMANDS.values()))
_RUN_KEY = re.compile(r"\b(%s)\b" % "|".join(sorted(_RUN_KEYS)))
_USAGE = "usage: vpequil COMMAND [--config PATH] [--out DIR] [--verbose]"


def _parse_args(argv):
    """The command line as a namespace of command, config, out and verbose,
    or the text that --help (this module's docstring) or --version prints.
    A malformed one raises ValueError naming the argument; options are
    spelt in full."""
    args = SimpleNamespace(command=None, config=None, out=None, verbose=False)
    argv = iter(argv)
    for arg in argv:
        option, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return (__doc__ or _USAGE).rstrip()
        if args.command is None:
            if arg == "--version":
                return __version__
            if arg not in _COMMANDS:
                raise ValueError(f"{arg!r} is not a command: choose one of "
                                 f"{', '.join(_COMMANDS)}")
            args.command, args.out = arg, None if arg == "models" else "."
        elif arg == "--verbose":
            args.verbose = True
        elif option in ("--config", "--out"):
            if not eq:
                value = next(argv, None)
                if value is None or value.startswith("-"):
                    raise ValueError(f"{option} needs a value")
            setattr(args, option[2:], value)
        else:
            raise ValueError(f"{arg!r} is not an option: use --config, --out or --verbose")
    if args.command is None:
        raise ValueError(f"no command given: choose one of {', '.join(_COMMANDS)}")
    if args.config is None and args.command != "models":
        raise ValueError(f"{args.command} needs --config PATH")
    return args


def _make_out(out):
    """Make the output directory; an OSError names --out, the path and the reason."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OSError(f"--out {out}: cannot make the directory: {exc.strerror}") from None


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:   # a malformed command line
        print(f"{_USAGE}\nerror: {exc}", file=sys.stderr)
        return 2
    if isinstance(args, str):   # --help or --version
        print(args)
        return 0
    handler, keys, required = _COMMANDS[args.command]
    new_out = args.out is not None and not os.path.isdir(args.out)
    try:
        if args.command == "models":
            return handler(args)
        model, config = parse_config(args.config)
        run = config["run"] = {k: v for k, v in config["run"].items() if k in keys}
        if required not in run:
            raise ConfigError(f"run.{required} is required by the {args.command} command")
        _make_out(args.out)
        results = handler(model, run, args)   # the summary goes last: a failed run leaves none
        _write_json(os.path.join(args.out, "summary.json"),
                    {"tool_version": __version__, "config": config, "results": results})
        return 0
    except (ConfigError, SettingError) as exc:   # a SettingError: a relation a command checks
        print(f"config error: {_run_error(exc) if isinstance(exc, SettingError) else exc}",
              file=sys.stderr)
        code = 2
    except (ModelError, EvaluationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except ArithmeticError as exc:   # an overflow, say, in building a model or in a step
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    if new_out and os.path.isdir(args.out) and not os.listdir(args.out):
        os.rmdir(args.out)   # a failed command removes the --out it made while that is empty
    return code


if __name__ == "__main__":
    raise SystemExit(main())
