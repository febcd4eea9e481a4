"""The closed loop: timed ops, untimed oracles, pins and passes."""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: The seed at which simulated results must equal ``pins.json``.
DEFAULT_SEED = 1

UNTRACED, TRACED, PROFILED = 1, 2, 3

#: Seconds the calibration loop takes on an uncontended x86-64 host with
#: Python 3.11.
REFERENCE_CALIBRATION_S = 0.005


def host_scale() -> float:
    """Reference speed ÷ current host speed, from a fixed pure-Python loop.

    On a shared host the speed of the CPU drifts by tens of percent over
    minutes, and the program's ops slow with it. Every timed interval is
    multiplied by this factor, taken just before it, so a run reports its
    time on a host of the reference speed. The loop does not touch the
    program, so no change to the program can move it. The median of three
    samples ignores a single preemption.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(40_000):
            acc += i * i
            table[i & 1023] = acc
        samples.append(time.perf_counter() - start)
    return REFERENCE_CALIBRATION_S / statistics.median(samples)


@dataclass
class OpRecord:
    op_id: int
    phase: int
    pass_index: int
    kind: str
    key: str
    #: Wall seconds of the op.
    seconds: float = 0.0
    #: ``host_scale()`` taken just before the op.
    scale: float = 1.0
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def ref_seconds(self) -> float:
        """The op's time on a host of the reference speed."""
        return self.seconds * self.scale


class Runner:
    """Runs ops of one workload, timing each and applying its oracles."""

    def __init__(self, workload, pins: Optional[Dict[str, Any]]):
        self.workload = workload
        #: Expected pin values by op key, or None to check only that ops
        #: with one key agree within the run.
        self.pins = pins
        self.seen: Dict[str, Any] = {}
        self.records: List[OpRecord] = []
        self.recorder = None
        self.profiler = None

    def run_op(self, op, phase: int, pass_index: int) -> OpRecord:
        wl = self.workload
        record = OpRecord(len(self.records), phase, pass_index, op.kind,
                          op.key)
        self.records.append(record)
        if self.recorder is not None:
            self.recorder.op = record.op_id
        # Every op starts with the previous ops' garbage (cyclic simulator
        # object graphs) collected, so it does not pay for another's.
        gc.collect()
        try:
            wl.prepare(op)
            record.scale = host_scale()
            if self.profiler is not None:
                self.profiler.enable()
            start = time.perf_counter()
            try:
                result = wl.run(op)
            finally:
                record.seconds = time.perf_counter() - start
                if self.profiler is not None:
                    self.profiler.disable()
            outcome = wl.check(op, result)
        except Exception:  # an op that raises is a failed op, never dropped
            record.problems.append(traceback.format_exc())
            return record
        finally:
            if self.recorder is not None:
                self.recorder.op = -1
        record.problems.extend(outcome.problems)
        record.counts = outcome.counts
        if outcome.pin is not None:
            self._check_pin(record, outcome.pin)
        return record

    def _check_pin(self, record: OpRecord, value: Any) -> None:
        first = self.seen.setdefault(record.key, value)
        if value != first:
            record.problems.append(f"{record.key}: {value} differs from "
                                   f"{first} earlier in this run")
        if self.pins is not None:
            pinned = self.pins.get(record.key)
            if pinned != value:
                record.problems.append(f"{record.key}: {value} != pinned "
                                       f"{pinned}")

    def run_phase(self, phase: int, seconds: float,
                  max_ops: Optional[int] = None) -> List[OpRecord]:
        """Whole passes until ``seconds`` of wall time (at least one), or
        the first ``max_ops`` ops of one pass."""
        out: List[OpRecord] = []
        start = time.perf_counter()
        pass_index = 0
        while True:
            ops = self.workload.ops(phase, pass_index)
            for op in ops[:max_ops]:
                out.append(self.run_op(op, phase, pass_index))
            pass_index += 1
            if max_ops is not None or time.perf_counter() - start >= seconds:
                return out


def timed_setups(workload, repeats: int) -> List[float]:
    """Reference-speed seconds of ``repeats`` complete set-ups."""
    times = []
    for _ in range(repeats):
        gc.collect()
        before = host_scale()
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
        # A set-up runs for seconds: scale by the host speed at both ends.
        times.append(seconds * (before + host_scale()) / 2)
    return times


def ops_per_s(records: List[OpRecord]) -> float:
    """Ops completed per reference-speed second of timed op time."""
    return len(records) / sum(r.ref_seconds for r in records)
