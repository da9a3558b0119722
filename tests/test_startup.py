"""Start-up footprint: importing repro loads neither scipy nor networkx.

scipy serves only the Table I t-test and networkx only
``TensorNetwork.graph()``; each is imported inside that one function.  Every
entry point is imported in a fresh interpreter (``sys.modules`` of this
process already holds whatever earlier tests loaded), which then calls both
functions to check they still work and now load their dependency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = ["repro", "repro.serve", "repro.runtime.table1", "repro.cli"]

HEAVY = ("scipy", "networkx")

PROBE = """
import json, sys
import {module}

def loaded():
    return sorted(
        name for name in sys.modules if name.split(".")[0] in {heavy!r}
    )

at_import = loaded()

import numpy as np
from repro.eval.significance import two_sided_t_test
from repro.tensornet import TensorNetwork

candidate, baseline = [0.61, 0.64, 0.59, 0.66], [0.58, 0.60, 0.59, 0.61]
paired = two_sided_t_test(candidate, baseline)
welch = two_sided_t_test(candidate, baseline, paired=False)
after_test = {{name.split(".")[0] for name in loaded()}}

net = TensorNetwork()
net.add("A", np.ones((2, 3)), ("i", "r"))
net.add("B", np.ones((3, 4)), ("r", "j"))
graph = net.graph()
after_graph = {{name.split(".")[0] for name in loaded()}}

print(json.dumps({{
    "at_import": at_import,
    "after_test": sorted(after_test),
    "after_graph": sorted(after_graph),
    "paired": [paired.statistic, paired.p_value, paired.significant],
    "welch": [welch.statistic, welch.p_value, welch.significant],
    "graph_type": type(graph).__module__.split(".")[0] + "." + type(graph).__name__,
    "nodes": {{n: [d["order"], list(d["shape"])] for n, d in graph.nodes(data=True)}},
    "edges": [[a, b, d["label"], d["dim"]] for a, b, d in graph.edges(data=True)],
}}))
"""


def _probe(module: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module, heavy=HEAVY)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_heavy_dependencies_load_on_first_use(module):
    probe = _probe(module)
    assert probe["at_import"] == [], f"import {module} loaded {probe['at_import']}"

    # The t-test loads scipy (and only scipy); its results are unchanged.
    assert probe["after_test"] == ["scipy"]
    assert probe["paired"] == pytest.approx(
        [2.7774602993176547, 0.06913686926442872, False]
    )
    assert probe["welch"] == pytest.approx(
        [1.7822655773580138, 0.1492069391477913, False]
    )

    # graph() loads networkx and still returns the same networkx.Graph.
    assert probe["after_graph"] == ["networkx", "scipy"]
    assert probe["graph_type"] == "networkx.Graph"
    assert probe["nodes"] == {"A": [2, [2, 3]], "B": [2, [3, 4]]}
    assert probe["edges"] == [["A", "B", "r", 3]]
