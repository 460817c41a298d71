"""Record the artifact hashes that ``run.py`` checks on the default seed.

Usage (from the repository root): python3 perfbench/record_hashes.py

Run it only on a commit whose artifacts are known to be right: it runs each
workload once on ``run.DEFAULT_SEED`` and rewrites ``expected_hashes.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def main() -> int:
    env = run.child_env()
    recorded = {}
    for name in run.WORKLOADS:
        target = run.WORK / "record" / name
        shutil.rmtree(target, ignore_errors=True)
        work = run.prepare(name, run.DEFAULT_SEED, target, env, {})
        sample = run.run_once(work, env, work.command, "record")
        if sample.problems:
            print("\n".join(sample.problems), file=sys.stderr)
            return 1
        recorded[name] = checks.artifact_hashes(target / "out")
    run.EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
