"""Start-up footprint: numpy is the only third-party module repro loads.

Every entry point is imported in a fresh interpreter (``sys.modules`` of
this process already holds whatever earlier tests loaded).  The probe
snapshots ``sys.modules`` before ``import repro`` and, after the import
and again after a t-test call, checks that every new top-level module is
``numpy``, ``repro`` or part of the standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = ["repro", "repro.serve", "repro.runtime.table1", "repro.cli"]

PROBE = """
import json, sys

before = set(sys.modules)

def foreign():
    main = sys.modules["__main__"]
    roots = {{
        name.split(".")[0] for name in set(sys.modules) - before
        # multiprocessing registers __main__ again as __mp_main__
        if sys.modules[name] is not main
    }}
    return sorted(
        root for root in roots
        if root not in ("numpy", "repro") and root not in sys.stdlib_module_names
    )

import {module}
at_import = foreign()

from repro.eval.significance import two_sided_t_test

candidate, baseline = [0.61, 0.64, 0.59, 0.66], [0.58, 0.60, 0.59, 0.61]
paired = two_sided_t_test(candidate, baseline)
welch = two_sided_t_test(candidate, baseline, paired=False)

print(json.dumps({{
    "at_import": at_import,
    "after_test": foreign(),
    "paired": [paired.statistic, paired.p_value, paired.significant],
    "welch": [welch.statistic, welch.p_value, welch.significant],
}}))
"""


def _probe(module: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_numpy_is_the_only_third_party_import(module):
    probe = _probe(module)
    assert probe["at_import"] == [], f"import {module} loaded {probe['at_import']}"
    assert probe["after_test"] == [], f"the t-test loaded {probe['after_test']}"

    # The numpy t-test gives the values scipy gave.
    assert probe["paired"] == pytest.approx(
        [2.7774602993176547, 0.06913686926442872, False], rel=1e-12
    )
    assert probe["welch"] == pytest.approx(
        [1.7822655773580138, 0.1492069391477913, False], rel=1e-12
    )
