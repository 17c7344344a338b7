"""Record the expected cli_cold output digests into bench/cli_digests.json.

    python3 bench/record_digests.py

Run it only on a commit whose CLI outputs are known to be right: the
cli_cold workload counts every later difference as a failed command.
"""

import json
import sys

from run import import_package
from workloads import BENCH, CliCold


def main() -> int:
    workload = CliCold(import_package(), tiny=False, digests={})
    table = {}
    for kind in workload.kinds:
        expected_code, _ = workload.COMMANDS[kind]
        seeds = range(workload.SEED_VARIANTS) if kind in workload.SEEDED else [0]
        for seed in seeds:
            code, files = workload.run_command(kind, seed)
            if code != expected_code:
                print(f"{kind} seed {seed}: exit {code}, expected {expected_code}",
                      file=sys.stderr)
                return 1
            table.setdefault(kind, {})[workload.variant(kind, seed)] = files
    path = BENCH / "cli_digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
