"""The 20 CLI runs whose 45 files ``artifacts.sha256`` pins.

King, Wilson l = -0.4, the 31-node ``expm1`` table and the n = 3 polytrope,
each through solve, check, sweep and portrait; backward portraits on King,
the table and the polytrope; and a King l = -0.4 solve at omega_c = 6, whose
kernel runs the continued fraction above a + 1 = 3.1.  ``test_artifacts.py``
runs them in process.  Run as a script, this module runs each through the
``vpequil`` console script installed beside the interpreter, with every
warning an error, and writes the files under the directory it is given:

    python tests/ci_runs.py OUT && cd OUT && sha256sum -c PATH/TO/tests/artifacts.sha256

It reads only the standard library, so a plain install of the package,
without numpy or scipy, runs it.
"""

import json
import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

_RUN = {"omega_c": 0.5, "omega_grid": [0.3, 0.6], "orbits": [[0.6, 0.3, 0.3]],
        "lambda_max": 20.0}
# backward orbits drive the potential up: on the table they stop at its end
_BACK = {"orbits": [[0.6, 0.3, 0.3], [0.5, 0.3, 0.4]], "lambda_max": 30.0, "backward": True}
_KING = {"family": "truncated-exponential", "p": 0}
_TABLE = {"family": "tabulated", "table": "phi.csv", "k": 1.0}
_N3 = {"family": "polytrope", "n": 3.0}
CONFIGS = {
    "king": {"model": _KING, "run": _RUN},
    "wilson": {"model": {"family": "truncated-exponential", "p": 1, "l": -0.4}, "run": _RUN},
    "tabulated": {"model": _TABLE, "run": _RUN},
    "polytrope": {"model": _N3, "run": _RUN},
    "king-backward": {"model": _KING, "run": _BACK},
    "tabulated-backward": {"model": _TABLE, "run": _BACK},
    # on the polytrope the potential runs up to the omega ceiling (near lambda -60)
    "polytrope-backward": {"model": _N3, "run": {"orbits": [[0.5, 0.3, 0.4]],
                                                 "lambda_max": 80.0, "backward": True}},
    # a = 2.1: at omega_c = 6 the kernel runs the continued fraction above a + 1
    "king-l-0.4": {"model": {**_KING, "l": -0.4}, "run": {"omega_c": 6.0}},
}
RUNS = [(name, cmd) for name in ("king", "wilson", "tabulated", "polytrope")
        for cmd in ("solve", "check", "sweep", "portrait")]
RUNS += [(name, "portrait") for name in ("king-backward", "tabulated-backward",
                                         "polytrope-backward")]
RUNS += [("king-l-0.4", "solve")]


def write_inputs(workdir: Path) -> None:
    """Write the table ``phi.csv`` (E = k/10 against expm1(E), k = 0..30) and
    ``<name>.json`` for each config into ``workdir``."""
    (workdir / "phi.csv").write_text("".join(f"{k / 10},{math.expm1(k / 10)}\n"
                                             for k in range(31)))
    for name, config in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(config))


def arguments(name, cmd, workdir: Path) -> list:
    """The ``vpequil`` arguments of one run: its config in ``workdir``, and
    its files written to ``workdir/<name>-<cmd>``."""
    return [cmd, "--config", str(workdir / f"{name}.json"),
            "--out", str(workdir / f"{name}-{cmd}")]


def main(out) -> None:
    workdir = Path(out)
    workdir.mkdir(parents=True, exist_ok=True)
    write_inputs(workdir)
    script = Path(sysconfig.get_path("scripts"), "vpequil")
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    for name, cmd in RUNS:
        subprocess.run([str(script), *arguments(name, cmd, workdir)], env=env, check=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: python {sys.argv[0]} OUT")
    main(sys.argv[1])
