"""CLI start-up: what a command imports, and its output byte for byte.

Every CLI run is a fresh process, so the modules it imports are part of
its cost.  These tests run each command in a fresh ``python -S`` child (no
site hooks preload anything), so imports made on an output path start
cold there.  Nothing here measures time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quintic_mirror

SRC = str(Path(quintic_mirror.__file__).parents[1])
GOLDEN = Path(__file__).parent / "golden"

# Runs one command and reports, on stderr, the modules it newly loaded.
CHILD = """
import sys
before = set(sys.modules)
import quintic_mirror.cli
code = quintic_mirror.cli.main(sys.argv[1:])
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# Used by none of the text path; dataclasses also loads inspect.
NOT_ON_TEXT_PATH = {"dataclasses", "inspect", "typing", "json", "csv"}


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          check=False, env={**os.environ, "PYTHONPATH": SRC})


def _loaded_by(*argv: str) -> set[str]:
    proc = _child("-c", CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.decode().split())


def test_text_path_imports_nothing_it_does_not_use():
    loaded = _loaded_by("verify", "descendents")
    assert "quintic_mirror.verify" in loaded
    assert not loaded & NOT_ON_TEXT_PATH


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_formats_load_their_module(fmt):
    assert fmt in _loaded_by("verify", "descendents", "--format", fmt)


@pytest.mark.parametrize("argv, golden", [
    ("verify descendents", "verify-descendents.txt"),
    ("verify descendents --format json", "verify-descendents.json"),
    ("verify descendents --format csv", "verify-descendents.csv"),
    ("oracle --degree 1 --seed 0 --format csv", "oracle-degree-1-seed-0.csv"),
    # The trivalent vertices and degree-3 edges of the graph sum.
    ("oracle --degree 3 --seed 0", "oracle-degree-3-seed-0.txt"),
    ("invariants --order 3 --format json", "invariants-order-3.json"),
    ("invariants --order 3 --format csv", "invariants-order-3.csv"),
    # Exactness at depth: the reversion's blocks up to size 10 and the
    # powers of q(q') that the composition packs at about 1000 bits.
    ("invariants --order 100", "invariants-order-100.txt"),
])
def test_output_matches_golden_bytes(argv, golden):
    proc = _child("-m", "quintic_mirror.cli", *argv.split())
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / golden).read_bytes()
