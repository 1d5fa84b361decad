"""Run one `coarsecert` command with layer tracing and write its spans.

    python3 bench/traced_cli.py SPANS.json RUN_ID <coarsecert arguments...>

The command runs in this process exactly as `python3 -m coarsecert.cli`
would run it, with its cross-layer calls wrapped (see tracer.py).  The spans
and counters are written to SPANS.json when the command ends, and the exit
code is the command's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.tracer import Tracer, layer_patches  # noqa: E402


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    from coarsecert import cli
    tracer = Tracer(run_id)
    try:
        with layer_patches(tracer):
            return tracer.span("cli.main", cli.main)(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.to_json()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
