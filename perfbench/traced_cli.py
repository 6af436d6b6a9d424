"""Run one specproj CLI command with layer spans recorded.

    python traced_cli.py SUMMARY_JSON RUN_ID -- CLI_ARGS...

Imports ``specproj.cli`` (timing the import), installs the span wrappers of
``tracing.py``, runs the command and writes the span summary to SUMMARY_JSON.
The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    summary_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY_JSON RUN_ID -- CLI_ARGS...")
    start = time.perf_counter()
    import specproj.cli as cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer(run_id)
    tracing.install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        summary = {
            "run_id": run_id,
            "import_s": import_s,
            "spans": len(tracer.spans),
            "layers": tracing.summarize(tracer.spans),
            "bytes": tracer.bytes,
        }
        Path(summary_path).write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
