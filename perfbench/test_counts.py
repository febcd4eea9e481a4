"""The benchmark's own gates: exact counts repeat, a held-out seed passes.

Run from the repository root (a few minutes; not part of tier-1)::

    python -m pytest perfbench/test_counts.py -q

Host times are noisy, but every count the traced run reports is a
deterministic function of the seed, so two traced runs at one seed must
agree on all of them exactly. A seed no pin was made from must run with
zero failed ops.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOAD_NAMES  # noqa: E402
from layers import TIME_UNITS  # noqa: E402
from runner import DEFAULT_SEED  # noqa: E402

HELD_OUT_SEED = 7


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload):
    first, second = (bench(workload, DEFAULT_SEED, 1) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] not in TIME_UNITS}
    assert counts, "a traced run reports exact counts"
    assert {n: first["metrics"][n] for n in counts} \
        == {n: second["metrics"][n] for n in counts}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_held_out_seed_has_no_failed_ops(workload):
    result = bench(workload, HELD_OUT_SEED, 0)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
