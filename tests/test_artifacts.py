"""The files of the CI-config runs, byte for byte.

Runs the 20 CLI runs of the ``no-dependencies`` CI job in process (King,
Wilson l = -0.4, the 31-node ``expm1`` table and the n = 3 polytrope, each
through solve, check, sweep and portrait, three backward portraits, and a
King l = -0.4 solve at omega_c = 6, whose kernel runs the continued
fraction above a + 1 = 3.1) and compares the SHA-256 of each file written
with ``artifacts.sha256``.

A change that moves an artifact on purpose rewrites the digest file with

    PYTHONPATH=src python tests/test_artifacts.py

and lists each moved file in CHANGES.md.  The digests depend on the
platform libm's exp, log, tanh, erf and pow.
"""

import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import pytest

from vpequil.cli import main

DIGESTS = Path(__file__).with_name("artifacts.sha256")

_RUN = {"omega_c": 0.5, "omega_grid": [0.3, 0.6], "orbits": [[0.6, 0.3, 0.3]],
        "lambda_max": 20.0}
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
    "king-l-0.4": {"model": {**_KING, "l": -0.4}, "run": {"omega_c": 6.0}},
}
RUNS = [(name, cmd) for name in ("king", "wilson", "tabulated", "polytrope")
        for cmd in ("solve", "check", "sweep", "portrait")]
RUNS += [(name, "portrait") for name in ("king-backward", "tabulated-backward",
                                         "polytrope-backward")]
RUNS += [("king-l-0.4", "solve")]


def run_digests(name, cmd, workdir: Path) -> dict:
    """{"<name>-<cmd>/<file>": sha256} of the files one run writes, run as
    CI does, with every warning an error."""
    table = workdir / "phi.csv"
    if not table.exists():
        table.write_text("".join(f"{k / 10},{math.expm1(k / 10)}\n" for k in range(31)))
    config = workdir / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = workdir / f"{name}-{cmd}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([cmd, "--config", str(config), "--out", str(out)]) == 0
    return {f"{out.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def read_digests() -> dict:
    pairs = (line.split() for line in DIGESTS.read_text().splitlines())
    return {path: digest for digest, path in pairs}


def test_digest_file_covers_the_45_files_of_the_20_runs():
    digests = read_digests()
    assert len(digests) == 45
    assert {path.split("/")[0] for path in digests} == {f"{n}-{c}" for n, c in RUNS}


@pytest.mark.parametrize("name, cmd", RUNS, ids=[f"{n}-{c}" for n, c in RUNS])
def test_ci_config_files_match_their_digests(tmp_path, name, cmd):
    expected = {path: d for path, d in read_digests().items()
                if path.startswith(f"{name}-{cmd}/")}
    assert run_digests(name, cmd, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name, cmd in RUNS:
            digests.update(run_digests(name, cmd, Path(tmp)))
    DIGESTS.write_text("".join(f"{d}  {path}\n" for path, d in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
