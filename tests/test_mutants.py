"""The recorded mutants still point at the code they mutate."""

import re
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_names_one_place_in_src():
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    for file, old, new, _ in MUTANTS:
        assert new != old, old
        assert sources[ROOT / file].count(old) == 1, (file, old)
        assert sum(text.count(old) for text in sources.values()) == 1, (file, old)


def test_each_mutant_names_a_test_that_exists():
    defined = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        defined |= set(re.findall(r"^def (test_\w+)", path.read_text(), re.MULTILINE))
    assert {test for _, _, _, test in MUTANTS} <= defined
