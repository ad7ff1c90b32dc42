"""Record a digest of every op's results on the default seed (0).

    python3 perfbench/record.py

Run it from the root of a checkout whose results are trusted.  It runs the
three workloads untimed, refuses to write anything if an op fails any other
check, and rewrites perfbench/digests.json.  The digest oracle then holds
later commits to byte-identical results for every request that the default
seed makes, on whichever seed a request turns up.
"""

from __future__ import annotations

import json
import os
import sys

import plans
import run


def main():
    src = os.path.join(os.getcwd(), "src")
    modules = run.load_glsmx(src)
    digests = {}
    for workload in plans.WORKLOADS:
        plan = plans.build(workload, 0)
        _, checker = run.execute(modules, plan, digests={})
        if checker.failures:
            for rid, messages in sorted(checker.failures.items()):
                print(f"FAILED {rid}: {messages[0]}", file=sys.stderr)
            return 1
        digests.update(checker.seen_digests)
        print(f"{workload}: {len(checker.seen_digests)} digests")
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": 0, "digests": dict(sorted(digests.items()))}, handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
