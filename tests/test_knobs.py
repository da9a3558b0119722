"""Every environment knob the package has is documented, and only those.

The inventory is the set of ``"REPRO_*"`` string literals under
``src/`` (every ``os.environ`` lookup in the package names its variable
as a literal).  The documentation is the environment table in
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


def doc_section(heading: str) -> str:
    text = (ROOT / "docs" / "profiling.md").read_text()
    return text.split(heading, 1)[1].split("\n## ", 1)[0]


def documented_knobs() -> set[str]:
    return set(ROW.findall(doc_section("## Environment variables")))


def test_env_table_matches_source():
    knobs = source_knobs()
    assert knobs, "no REPRO_* literals found under src/"
    assert knobs == documented_knobs()

