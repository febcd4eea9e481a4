"""The repository benchmark: one closed-loop workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stw_gc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the same untraced measurement for half the time, then a traced set-up and
traced passes with spans around every layer's public entry points, then a
fixed op list under ``cProfile``; it reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it list
every metric with its unit. Workloads, metrics and oracles are described
in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from runner import (DEFAULT_SEED, UNTRACED, OpRecord, Runner, host_scale,
                    ops_per_s, timed_setups)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("stw_gc", "fleet_sweep", "heap_store")
#: ``setup_s`` is the median of this many complete set-ups.
SETUP_REPEATS = 3
#: ``op_s.p90`` needs this many samples (ten beyond the percentile).
P90_MIN_SAMPLES = 100


def isolate_environment(tmp: Path) -> None:
    """Drop every inherited ``REPRO_*`` switch; own both disk caches.

    Neither ``REPRO_ENGINE`` nor ``REPRO_FASTPATH`` is ever set here: the
    program's defaults run.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_HEAP_CACHE"] = str(tmp / "heaps")
    os.environ["REPRO_SIM_CACHE"] = str(tmp / "simcache")


def end_to_end(records: List[OpRecord], setup_s: float) -> Dict[str, tuple]:
    import resource

    return {
        "ops_per_s": (ops_per_s(records), "ops/s"),
        "op_s.p50": (statistics.median(r.ref_seconds for r in records), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def p90_line(records: List[OpRecord]) -> str:
    seconds = sorted(r.ref_seconds for r in records)
    if len(seconds) < P90_MIN_SAMPLES:
        return (f"op_s.p90: not reported ({len(seconds)} samples, fewer "
                f"than {P90_MIN_SAMPLES})")
    p90 = statistics.quantiles(seconds, n=10)[-1]
    return f"op_s.p90: {p90:.6f} s ({len(seconds)} samples)"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    isolate_environment(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import workloads  # imports the program from src/
    import_s = (time.perf_counter() - import_start) * host_scale()

    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
    try:
        return measure(args, workload, pins.get(args.workload, {}), import_s)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass


def measure(args, workload, pins: Dict[str, Any], import_s: float) -> int:
    from repro.engine.simulator import Simulator

    runner = Runner(workload, pins if args.seed == DEFAULT_SEED
                    and workload.pinned else None)
    # A traced run reports no setup_s, so one set-up is enough there.
    setups = timed_setups(workload, 1 if args.trace else SETUP_REPEATS)
    setup_s = import_s + statistics.median(setups)
    untraced_s = args.seconds if not args.trace else args.seconds / 2
    untraced = runner.run_phase(UNTRACED, untraced_s)
    print(f"workload: {args.workload}, seed {args.seed}, simulator "
          f"{type(Simulator()).__name__}, {len(untraced)} untraced ops")
    print(f"setup: import {import_s:.3f} s + median of "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    e2e = end_to_end(untraced, setup_s)
    wall = [r.seconds for r in untraced]
    print(f"wall clock: {len(wall) / sum(wall):.4f} ops/s, op p50 "
          f"{statistics.median(wall):.4f} s; host scale median "
          f"{statistics.median(r.scale for r in untraced):.4f}")
    print(p90_line(untraced))
    if args.trace:
        import layers

        metrics = layers.traced_metrics(runner, workload, untraced,
                                        args.seconds / 2)
        out_dir = ROOT / ".perfbench_out"
        runner.recorder.write(
            out_dir / f"{args.workload}-seed{args.seed}-spans.json",
            {"workload": args.workload, "seed": args.seed,
             "simulator": type(Simulator()).__name__,
             "ops": [[r.op_id, r.phase, r.pass_index, r.kind, r.key,
                      r.seconds] for r in runner.records]})
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    failed = [r for r in runner.records if r.problems]
    for record in failed[:10]:
        print(f"FAILED op {record.op_id} ({record.key}): "
              + " | ".join(record.problems), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
