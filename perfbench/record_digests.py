#!/usr/bin/env python3
"""Record the output digests that the benchmark checks against.

    python3 perfbench/record_digests.py

Runs every benchmark command once, plus the self-test's command, and
writes the sha256 of each command's "checks" array to
perfbench/digests.json.  Run it only when a change is meant to alter the
verifiers' output, and commit the new file with that change.
"""

import json
import sys

from run import DIGESTS, WORKLOADS, run_command
from selftest import TINY


def main() -> int:
    commands = [c for cmds in WORKLOADS.values() for c in cmds] + [TINY]
    digests = {}
    for command in commands:
        rec, _ = run_command(command, False, None)
        if rec["digest"] is None or rec["exit"] != 0:
            print(f"error: {command}: {rec['errors']}", file=sys.stderr)
            return 1
        digests[command] = rec["digest"]
        print(f"{rec['digest']}  {command}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
