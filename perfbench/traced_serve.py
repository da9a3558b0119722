"""``repro serve`` with spans recorded at its layer boundaries.

    python perfbench/traced_serve.py SPANS.jsonl serve --tenants 3

Installs the serving wrappers of :func:`layers.install_serving`, runs
``repro.cli.main`` with the remaining arguments, and once SIGINT has
drained the server writes every span to ``SPANS.jsonl``.  ``run.py``
starts this in place of ``python -m repro serve`` for traced runs.
"""

from __future__ import annotations

import sys

from layers import install_serving
from spans import Recorder


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install_serving(recorder, frontend=True)
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
