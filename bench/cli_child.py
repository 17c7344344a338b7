"""Run one sddlab command with the span wrappers installed.

    python3 bench/cli_child.py STATS_JSON ARGS...

Behaves like ``sddlab ARGS...`` (same outputs, same exit code) and also
writes the traced per-span totals to STATS_JSON.  The traced cli_cold jobs
use it in place of the plain entry point.
"""

import json
import sys

import sddlab.cli

from tracer import Tracer


def main() -> int:
    stats_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer:
            return sddlab.cli.main(args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats, fh)


if __name__ == "__main__":
    sys.exit(main())
