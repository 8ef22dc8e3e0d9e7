"""Run the ``repro`` CLI with the layer tracer installed.

    python -m bench.child LAYERS.json serve --profile reality ...

A traced live run launches ``repro serve`` through this module, so the
service's own layers (``service.answer``, ``service.ingest``, ...) are
timed inside the serving process.  The per-layer totals are written to
``LAYERS.json`` when the command returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench.tracer import Tracer


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    with tracer:
        code = repro_main(args)
    out.write_text(json.dumps({"layers": tracer.layers(),
                               "tallies": tracer.tallies}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
