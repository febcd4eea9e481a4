"""The one-pass DRAM pump against the two-helper scheduler it replaced.

``ReferenceController`` keeps the earlier scheduler: every pick calls
``_pick``, which scans both windows with ``_scan`` and builds tuples, and
the pump re-picks after each dispatch. Both controllers share bank timing
(``_dispatch``), so any difference in dispatch order, completion cycles or
event count comes from the scheduler alone.
"""

import itertools
import random

import pytest

from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.memory.config import DRAMConfig
from repro.memory.dram import DRAMController
from repro.memory.request import AccessKind, MemRequest


class ReferenceController(DRAMController):
    """The pre-one-pass scheduler, kept as the oracle for the new one."""

    def _scan(self, queue, limit, now):
        busy, rows = self._bank_busy, self._bank_row
        first_ready = wake = None
        for pos, entry in enumerate(queue):
            if pos >= limit:
                break
            busy_until = busy[entry[2]]
            if busy_until <= now:
                if first_ready is None:
                    first_ready = (pos, entry)
                if rows[entry[2]] == entry[3]:
                    return first_ready, (pos, entry), wake
            elif wake is None or busy_until < wake:
                wake = busy_until
        return first_ready, None, wake

    def _pick(self, now):
        read_ready, read_hit, wake = self._scan(
            self._reads, self._read_window, now)
        write_ready, write_hit, wwake = self._scan(
            self._writes, self._write_window, now)
        if wwake is not None and (wake is None or wwake < wake):
            wake = wwake
        if self._fifo or (read_hit is None and write_hit is None):
            read, write = read_ready, write_ready
        else:
            read, write = read_hit, write_hit
        if read is None:
            return (None if write is None else (self._writes,) + write), wake
        if write is None or read[1][0].issue_time <= write[1][0].issue_time:
            return (self._reads,) + read, wake
        return (self._writes,) + write, wake

    def _pump(self, target=None):
        if target is not None and target != self._next_pump_at:
            return
        self._next_pump_at = None
        now = self.sim.now
        while True:
            choice, wake = self._pick(now)
            if choice is None:
                break
            queue, pos, entry = choice
            del queue[pos]
            self._dispatch(entry, now)
        if self._reads or self._writes:
            if self._next_pump_at is None or wake < self._next_pump_at:
                self._next_pump_at = wake
                self.sim.schedule(wake - now, self._pump, wake)


def recording(cls):
    """``cls`` with every dispatch logged as (request tag, cycle)."""

    class Recording(cls):
        def _dispatch(self, entry, now):
            self.order.append((entry[0].tag, now))
            super()._dispatch(entry, now)

    return Recording


KINDS = (AccessKind.READ, AccessKind.READ, AccessKind.WRITE, AccessKind.AMO)


def drive(cls, config, seed):
    """Run one seeded stream through ``cls``; return everything observable.

    The stream mixes bursts larger than any window (many submits in one
    cycle), lone requests, and closed-loop follow-ups submitted from
    completion callbacks. Rows are drawn from a small set so row hits,
    conflicts and same-bank queueing all occur.
    """
    rng = random.Random(seed)
    sim = Simulator()
    dram = recording(cls)(sim, config, stats=StatsRegistry())
    dram.order = []
    done = {}
    tags = itertools.count()

    def submit():
        size = rng.choice((8, 16, 32, 64))
        row = rng.randrange(3 * config.n_banks)
        addr = row * config.row_bytes + rng.randrange(
            config.row_bytes // size) * size
        req = MemRequest(addr=addr, size=size, kind=rng.choice(KINDS),
                         source=rng.choice(("cpu", "marker", "tracer")),
                         tag=next(tags))
        dram.submit(req).add_callback(
            lambda t, tag=req.tag: complete(tag, t))

    def complete(tag, t):
        done[tag] = t
        if rng.random() < 0.5 and len(done) < 600:
            submit()

    def burst(n):
        for _ in range(n):
            submit()

    t = 0
    for _ in range(16):
        t += rng.choice((0, 1, 3, 40, 200))
        sim.schedule(t, burst, rng.choice((1, 1, 2, 5, 20, 40)))
    sim.run(max_events=1_000_000)
    assert dram.pending == 0
    return dram.order, done, sim.events_processed, dram.stats.as_dict()


CONFIGS = [
    DRAMConfig(scheduler=scheduler, read_window=window, write_window=window,
               n_banks=banks)
    for scheduler in ("frfcfs", "fifo")
    for window in (1, 2, 16)
    for banks in (1, 8)
] + [DRAMConfig(), DRAMConfig(scheduler="fifo", read_window=8)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: (
    f"{c.scheduler}-r{c.read_window}w{c.write_window}-b{c.n_banks}"))
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_pump_matches_reference(config, seed):
    new = drive(DRAMController, config, seed)
    ref = drive(ReferenceController, config, seed)
    assert new[0] == ref[0], "dispatch order or cycle differs"
    assert new[1] == ref[1], "completion cycles differ"
    assert new[2] == ref[2], "events processed differ"
    assert new[3] == ref[3], "stats differ"
    assert len(new[1]) > 150
