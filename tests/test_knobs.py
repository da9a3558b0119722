"""Every environment knob the package reads is documented, and only those.

The inventory is the set of ``"REPRO_*"`` string literals under ``src/``
(every ``os.environ`` lookup in the package names its variable as a
literal); the documentation is the environment-variable table in
``docs/profiling.md``.  A knob that lands without a table row, or a row
left behind by a deleted knob, fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")
ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def source_knobs() -> set[str]:
    knobs = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if NAME.fullmatch(node.value):
                    knobs.add(node.value)
    return knobs


def documented_knobs() -> set[str]:
    text = (ROOT / "docs" / "profiling.md").read_text()
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return set(ROW.findall(section))


def test_env_table_matches_source():
    knobs = source_knobs()
    assert knobs, "no REPRO_* literals found under src/"
    assert knobs == documented_knobs()
