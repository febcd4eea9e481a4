"""Regenerate ``perfbench/pins.json`` from one pass at the default seed.

Usage (from the repository root)::

    python3 perfbench/make_pins.py

The pins are the simulated cycles, event counts, trace digests and fleet
result digests the benchmark's oracles expect at the default seed. They
move only when the simulated model changes on purpose; a change that moves
them says why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, ROOT, isolate_environment
from runner import DEFAULT_SEED, UNTRACED, Runner


def main() -> int:
    tmp = ROOT / ".perfbench_tmp" / f"pins-{os.getpid()}"
    isolate_environment(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pins = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            if not cls.pinned:
                continue
            workload = cls(DEFAULT_SEED, tmp)
            try:
                workload.setup()
                runner = Runner(workload, None)
                records = runner.run_phase(UNTRACED, 0)
            finally:
                workload.close()
            failed = [r for r in records if r.problems]
            if failed:
                print(f"{name}: {len(failed)} ops failed their oracles; "
                      f"no pins written:\n{failed[0].problems}",
                      file=sys.stderr)
                return 1
            pins[name] = runner.seen
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH_DIR / "pins.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
