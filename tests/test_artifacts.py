"""The files of the CI-config runs, byte for byte.

Runs in process the 20 CLI runs that ``ci_runs.py`` defines, the same runs
the ``no-dependencies`` CI job makes through the installed console script
(King, Wilson l = -0.4, the 31-node ``expm1`` table and the n = 3
polytrope, each through solve, check, sweep and portrait, three backward
portraits, and a King l = -0.4 solve at omega_c = 6, whose kernel runs the
continued fraction above a + 1 = 3.1), and compares the SHA-256 of each
file written with ``artifacts.sha256``.

A change that moves an artifact on purpose rewrites the digest file with

    PYTHONPATH=src python tests/test_artifacts.py

and lists each moved file in CHANGES.md.  The digests depend on the
platform libm's exp, log, tanh, erf and pow.
"""

import hashlib
import sys
import warnings
from pathlib import Path

import pytest

from vpequil.cli import main

from ci_runs import RUNS, arguments, write_inputs

DIGESTS = Path(__file__).with_name("artifacts.sha256")


def run_digests(name, cmd, workdir: Path) -> dict:
    """{"<name>-<cmd>/<file>": sha256} of the files one run writes, with
    every warning an error; `write_inputs` has filled ``workdir``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(arguments(name, cmd, workdir)) == 0
    out = workdir / f"{name}-{cmd}"
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
    write_inputs(tmp_path)
    assert run_digests(name, cmd, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        digests = {}
        for name, cmd in RUNS:
            digests.update(run_digests(name, cmd, Path(tmp)))
    DIGESTS.write_text("".join(f"{d}  {path}\n" for path, d in sorted(digests.items())))
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
