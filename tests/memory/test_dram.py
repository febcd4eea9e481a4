"""DDR3 controller timing: rows, banks, schedulers, windows."""

import pytest

from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry
from repro.memory.config import DRAMConfig
from repro.memory.dram import DRAMController
from repro.memory.request import AccessKind, MemRequest


def make(sim=None, **kwargs):
    sim = sim or Simulator()
    stats = StatsRegistry()
    return sim, DRAMController(sim, DRAMConfig(**kwargs), stats=stats)


def read(addr, size=64, source="t"):
    return MemRequest(addr=addr, size=size, kind=AccessKind.READ,
                      source=source)


class TestLatency:
    def test_first_access_is_row_closed(self):
        sim, dram = make()
        done = []
        dram.submit(read(0)).add_callback(done.append)
        sim.run()
        # tRCD + tCAS + transfer(4 cycles for 64B at 16B/cyc).
        assert done == [14 + 14 + 4]

    def test_row_hit_is_cheaper(self):
        sim, dram = make()
        times = []
        dram.submit(read(0)).add_callback(times.append)
        sim.run()
        dram.submit(read(64)).add_callback(times.append)  # same row
        sim.run()
        hit_latency = times[1] - times[0]
        assert hit_latency == 14 + 4  # tCAS + transfer

    def test_row_conflict_pays_precharge(self):
        sim, dram = make(n_banks=1, row_bytes=2048)
        times = []
        dram.submit(read(0)).add_callback(times.append)
        sim.run()
        dram.submit(read(2048)).add_callback(times.append)  # other row
        sim.run()
        conflict = times[1] - times[0]
        assert conflict >= 14 + 14 + 14 + 4  # tRP + tRCD + tCAS + transfer

    def test_small_request_shorter_transfer(self):
        sim, dram = make()
        done = []
        dram.submit(read(0, size=8)).add_callback(done.append)
        sim.run()
        assert done == [14 + 14 + 1]


class TestParallelism:
    def test_banks_overlap(self):
        """Requests to different banks overlap; same bank serializes."""
        sim, dram = make()
        done = []
        for i in range(4):
            # Row-interleaved mapping: consecutive rows hit distinct banks.
            dram.submit(read(i * 2048)).add_callback(done.append)
        sim.run()
        parallel_time = sim.now

        sim2, dram2 = make(n_banks=1)
        done2 = []
        for i in range(4):
            dram2.submit(read(i * 2048)).add_callback(done2.append)
        sim2.run()
        assert sim2.now > parallel_time

    def test_bus_serializes_transfers(self):
        sim, dram = make()
        for i in range(8):
            dram.submit(read(i * 2048))
        sim.run()
        # 8 x 64B transfers need at least 8 x 4 bus cycles after the first
        # access latency.
        assert sim.now >= 28 + 8 * 4


class TestScheduler:
    def _run_pattern(self, scheduler):
        sim, dram = make(scheduler=scheduler)
        order = []
        # One row-conflict stream and one row-hit stream on the same bank.
        dram.submit(read(0, source="a"))
        sim.run(until=1)
        conflicting = read(2048 * 8, source="conflict")  # same bank, new row
        hitting = read(64, source="hit")  # open row
        dram.submit(conflicting).add_callback(lambda _t: order.append("conflict"))
        dram.submit(hitting).add_callback(lambda _t: order.append("hit"))
        sim.run()
        return order

    def test_frfcfs_prefers_row_hit(self):
        assert self._run_pattern("frfcfs")[0] == "hit"

    def test_fifo_is_arrival_order(self):
        assert self._run_pattern("fifo")[0] == "conflict"

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(scheduler="magic")

    # The same check for the fields that used to hang the controller (a
    # window of 0 re-arms the pump every cycle forever) or crash it (a
    # 0 B/cycle bus divides by zero): each error names its field.
    @pytest.mark.parametrize("field, value", [
        ("read_window", 0),
        ("write_window", 0),
        ("bus_bytes_per_cycle", 0),
        ("t_cas", -1),
        ("t_rcd", -1),
        ("t_rp", -1),
        ("t_ras", -1),
    ])
    def test_bad_timing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DRAMConfig(**{field: value})

class TestStats:
    def test_attribution_and_bytes(self):
        sim, dram = make()
        dram.submit(read(0, source="marker"))
        dram.submit(MemRequest(addr=64, size=8, kind=AccessKind.WRITE,
                               source="queue"))
        dram.submit(MemRequest(addr=128, size=8, kind=AccessKind.AMO,
                               source="marker"))
        sim.run()
        stats = dram.stats
        assert stats.get("mem.requests.marker") == 2
        assert stats.get("mem.requests.queue") == 1
        assert stats.get("dram.bytes_read") == 64 + 8
        assert stats.get("dram.bytes_written") == 8 + 8  # write + AMO
        assert stats.get("dram.activates") >= 1

    def test_request_intervals(self):
        sim, dram = make()
        sim.schedule(0, lambda: dram.submit(read(0)))
        sim.schedule(10, lambda: dram.submit(read(64)))
        sim.run()
        assert dram.request_intervals.count == 2
        assert dram.request_intervals.mean_interval() == 10


class TestProgress:
    def test_many_random_requests_all_complete(self):
        import random
        rng = random.Random(0)
        sim, dram = make()
        done = []
        for _ in range(300):
            addr = rng.randrange(0, 1 << 20) // 8 * 8
            size = rng.choice([8, 16, 32, 64])
            addr -= addr % size
            kind = rng.choice([AccessKind.READ, AccessKind.WRITE])
            dram.submit(MemRequest(addr=addr, size=size, kind=kind)) \
                .add_callback(done.append)
        sim.run()
        assert len(done) == 300
        assert dram.pending == 0

    def test_late_submission_pumps_immediately(self):
        """A request arriving while a far-future wakeup is pending must not
        wait for it (regression test for the pump-scheduling bug)."""
        sim, dram = make(n_banks=1)
        dram.submit(read(0))
        dram.submit(read(2048))  # same bank: wakeup scheduled far out
        times = []
        # Different-bank request arrives in between; bank 1 is free.
        sim.schedule(5, lambda: dram.submit(read(2048 * 9)).add_callback(
            times.append))
        sim.run()
        assert times, "third request completed"


class TestWindow:
    def test_window_limits_visibility(self):
        """With a 1-deep window the controller cannot reorder around the
        head request; with 16 it can serve a row hit first."""
        sim, dram = make(scheduler="frfcfs", read_window=1)
        order = []
        dram.submit(read(0))
        sim.run(until=1)
        dram.submit(read(2048 * 8, source="conflict")).add_callback(
            lambda _t: order.append("conflict"))
        dram.submit(read(64, source="hit")).add_callback(
            lambda _t: order.append("hit"))
        sim.run()
        assert order[0] == "conflict"
