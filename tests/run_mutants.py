"""Apply each recorded mutant to a copy of src/ and run the test that should kill it.

Usage: python tests/run_mutants.py

For every (file, old, new, test) row of mutants.MUTANTS, src/ is copied to a
temporary directory, the one occurrence of ``old`` in ``file`` is replaced by
``new``, and the named test runs in one pytest subprocess with PYTHONPATH set
to the copy, one subprocess at a time, each within TIMEOUT_S seconds.  Each
named test first runs once on an unmutated copy; the rows of a test that
fails or times out there are reported as errors.  Otherwise a failing test
or a timeout kills the mutant; a passing test lets it survive, and any
other pytest exit (no such test, a usage error) is reported as an error.
Prints one line per row and exits 1 if any row survives or errs.
Stdlib only; pytest does not collect this file.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(TESTS))

from mutants import MUTANTS  # noqa: E402

# the slowest named test takes a few seconds; a mutant that loops is killed here
TIMEOUT_S = 300


def _test_files() -> dict[str, Path]:
    # test name -> the test module that defines it
    where = {}
    for path in sorted(TESTS.glob("test_*.py")):
        for name in re.findall(r"^def (test_\w+)", path.read_text(), re.MULTILINE):
            where[name] = path
    return where


def _pytest(src: Path, test: Path, name: str) -> int | None:
    """pytest's exit code for the one named test against the package in src;
    None when it runs past TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"{test}::{name}"]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _baseline(where: dict[str, Path]) -> dict[str, int | None]:
    # each named test once on an unmutated copy: one that fails there would
    # count every mutant it names as killed
    names = dict.fromkeys(name for *_, name in MUTANTS if name in where)
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        return {name: _pytest(src, where[name], name) for name in names}


def _run(file: str, old: str, new: str, test: Path, name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        target = Path(tmp) / file
        text = target.read_text()
        if text.count(old) != 1:
            return "error: old text does not occur exactly once"
        target.write_text(text.replace(old, new))
        code = _pytest(src, test, name)
    if code is None:
        return "killed (timeout)"
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")


def main() -> int:
    where = _test_files()
    baseline = _baseline(where)
    bad = 0
    for number, (file, old, new, name) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        if name not in where:
            outcome = "error: no such test"
        elif baseline[name] != 0:
            outcome = "error: test fails unmutated"
        else:
            outcome = _run(file, old, new, where[name], name)
        bad += not outcome.startswith("killed")
        elapsed = time.perf_counter() - start
        first = old.strip().splitlines()[0]
        print(f"{number:3d} {outcome:<16} {elapsed:6.1f}s {file}: {first!r} -> {name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
