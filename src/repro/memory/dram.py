"""DDR3 bank/row timing model with FIFO and FR-FCFS schedulers.

Models the paper's memory system (Table I): DDR3-2000, single rank, 8 banks,
open-page policy, latencies 14-14-14-47 ns at a 1 GHz SoC clock, and a
memory-access scheduler with a visibility window of 16 reads / 8 writes.

The model tracks per-bank open rows and busy times plus a shared data bus.
A request's service latency is:

* row hit: ``t_cas``
* row conflict (another row open): ``t_rp + t_rcd + t_cas``
* row closed (first touch): ``t_rcd + t_cas``

followed by a data-bus occupancy of ``ceil(size / 16B)`` cycles (DDR3-2000
peak bandwidth is 16 GB/s). ``t_ras`` limits back-to-back activates to the
same bank. FR-FCFS prefers row hits (oldest first), then the oldest request,
with reads prioritized over writes; FIFO is strict arrival order.

Scheduling is one pump (``_pump``) per wakeup. A pick is one pass over
each visible window (the first 16 reads and 8 writes) that finds the
oldest ready entry, the oldest ready row hit, how many entries are ready
and the earliest time a busy bank frees. A dispatch leaves its bank busy
for the rest of the wakeup, so after dispatching the only ready entry
the next pick could find nothing but the request the dispatch slid into
the window: the pump checks that one entry instead of passing over the
windows again, and a lone queued request skips arbitration altogether.
The pump then sleeps until the earliest bank-free time it saw. Stats
attribution (the completion event's name, per-source and per-kind
counters) is looked up once per request at submit and carried in the
queue entry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.engine.simulator import Event, Simulator
from repro.engine.stats import BandwidthTracker, IntervalTracker, StatsRegistry
from repro.memory.config import DRAMConfig
from repro.memory.request import AccessKind, MemRequest

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


class DRAMController:
    """Event-driven DDR3 controller; ``submit`` returns a completion event."""

    def __init__(
        self,
        sim: Simulator,
        config: DRAMConfig,
        stats: Optional[StatsRegistry] = None,
        bandwidth: Optional[BandwidthTracker] = None,
    ):
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthTracker("dram")
        self.request_intervals = IntervalTracker("dram.requests")
        # Bank state lives in parallel columns indexed by bank number —
        # the scheduler's scan touches ``_bank_busy[idx]`` as one list
        # index instead of chasing a per-bank object's attribute.
        self._bank_busy: List[int] = [0] * config.n_banks
        self._bank_row: List[Optional[int]] = [None] * config.n_banks
        self._bank_activate: List[int] = [-(10**9)] * config.n_banks
        self._bus_free_at = 0
        # Queue entries are (request, completion event, bank index, row,
        # account): the bank/row decode and the stats lookup are done once
        # at submit so the scheduler's passes never recompute them.
        self._reads: Deque[tuple] = deque()
        self._writes: Deque[tuple] = deque()
        self._next_pump_at: Optional[int] = None
        # Per kind, source -> its account; see :meth:`_account`.
        self._read_accounts: dict = {}
        self._write_accounts: dict = {}
        self._amo_accounts: dict = {}
        self._c_activates = self.stats.counter("dram.activates")
        self._c_bytes_read = self.stats.counter("dram.bytes_read")
        self._c_bytes_written = self.stats.counter("dram.bytes_written")
        # Scheduler-hot config fields, captured once: the pump and dispatch
        # run per wakeup and dominate DRAM model cost, so they must not
        # chase ``self.config.<field>`` attribute chains.
        self._read_window = config.read_window
        self._write_window = config.write_window
        self._fifo = config.scheduler == "fifo"
        self._t_cas = config.t_cas
        self._t_rcd_cas = config.t_rcd + config.t_cas
        self._t_rp_rcd_cas = config.t_rp + config.t_rcd + config.t_cas
        self._t_ras = config.t_ras
        self._bus_bpc = config.bus_bytes_per_cycle
        self._row_bytes = config.row_bytes
        self._n_banks = config.n_banks

    # -- public interface --------------------------------------------------

    def submit(self, req: MemRequest) -> Event:
        """Enqueue a request; the returned event triggers at completion."""
        now = self.sim.now
        req.issue_time = now
        kind = req.kind
        # Identity tests, not a dict keyed by the enum: hashing an enum
        # member runs Python code on every request.
        if kind is _WRITE:
            queue, accounts = self._writes, self._write_accounts
        elif kind is _READ:
            queue, accounts = self._reads, self._read_accounts
        else:
            queue, accounts = self._reads, self._amo_accounts
        acct = accounts.get(req.source)
        if acct is None:
            acct = accounts[req.source] = self._account(kind, req.source)
        acct[1].value += 1
        acct[2].value += 1
        event = Event(self.sim, acct[0])
        row_index = req.addr // self._row_bytes
        queue.append((req, event, row_index % self._n_banks,
                      row_index // self._n_banks, acct))
        self.request_intervals.record(now)
        next_at = self._next_pump_at
        if next_at is None or now < next_at:
            self._next_pump_at = now
            self.sim.schedule(0, self._pump, now)
        return event

    @property
    def pending(self) -> int:
        return len(self._reads) + len(self._writes)

    def _account(self, kind: AccessKind, source: str) -> tuple:
        """Everything ``submit`` and ``_dispatch`` record for one (kind,
        source): the completion event's name, the per-source request and
        per-kind counters, whether the bytes count as read / written (an
        AMO both reads and writes its word), and the kind's trace label."""
        label = kind.value
        return (f"dram.{source}",
                self.stats.counter(f"mem.requests.{source}"),
                self.stats.counter(f"mem.{label}s.{source}"),
                kind is not _WRITE,
                kind is not _READ,
                label)

    # -- scheduling ----------------------------------------------------------

    def _pump(self, target: Optional[int] = None) -> None:
        """Dispatch every ready request, then sleep until a bank frees.

        One wakeup drains all picks that are ready this cycle, so
        back-to-back hits to open rows issue without event-queue round
        trips. The module docstring describes a pick.

        A wakeup whose ``target`` no longer matches ``_next_pump_at`` was
        superseded by an earlier one. Such a pump can never dispatch: the
        scheduler window only changes inside pumps, and every completed pump
        re-arms the earliest useful wakeup for the window it left behind.
        Returning at once skips a pointless pass without moving any
        dispatch time.
        """
        if target is not None and target != self._next_pump_at:
            return
        self._next_pump_at = None
        plane = self.stats.hwfaults
        if plane is not None and plane.is_stuck("dram"):
            # Stuck controller: requests accumulate, nothing dispatches,
            # and no further wakeup is armed — the watchdog's outstanding
            # tracking (or the queue-drain deadlock) names us.
            return
        now = self.sim.now
        reads, writes = self._reads, self._writes
        busy = self._bank_busy
        if len(reads) + len(writes) == 1:
            # A lone request needs no arbitration: every policy issues it
            # the moment its bank frees. Most wakeups in the blocking CPU
            # phases see exactly this.
            queue = reads or writes
            wake = busy[queue[0][2]]
            if wake <= now:
                self._dispatch(queue.popleft(), now)
            else:
                self._next_pump_at = wake
                self.sim.schedule(wake - now, self._pump, wake)
            return
        rows = self._bank_row
        read_window = self._read_window
        write_window = self._write_window
        while reads or writes:
            # Queue order is issue order, so the first ready entry (and the
            # first ready row hit) found is the oldest. ``wake`` is the
            # earliest bank-free time among the visible busy entries.
            wake = None
            ready = 0
            read_ready = read_hit = write_ready = write_hit = -1
            pos = 0
            for entry in reads:
                if pos == read_window:
                    break
                bank = entry[2]
                busy_until = busy[bank]
                if busy_until <= now:
                    ready += 1
                    if read_ready < 0:
                        read_ready = pos
                    if read_hit < 0 and rows[bank] == entry[3]:
                        read_hit = pos
                elif wake is None or busy_until < wake:
                    wake = busy_until
                pos += 1
            pos = 0
            for entry in writes:
                if pos == write_window:
                    break
                bank = entry[2]
                busy_until = busy[bank]
                if busy_until <= now:
                    ready += 1
                    if write_ready < 0:
                        write_ready = pos
                    if write_hit < 0 and rows[bank] == entry[3]:
                        write_hit = pos
                elif wake is None or busy_until < wake:
                    wake = busy_until
                pos += 1
            if not ready:
                break
            # FR-FCFS serves row hits first when either window has one;
            # FIFO takes the oldest ready entry. Reads win ties on age.
            if self._fifo or (read_hit < 0 and write_hit < 0):
                read_pick, write_pick = read_ready, write_ready
            else:
                read_pick, write_pick = read_hit, write_hit
            if read_pick < 0 or (write_pick >= 0
                                 and reads[read_pick][0].issue_time
                                 > writes[write_pick][0].issue_time):
                queue, pos, window = writes, write_pick, write_window
            else:
                queue, pos, window = reads, read_pick, read_window
            entry = queue[pos]
            del queue[pos]
            self._dispatch(entry, now)
            if ready > 1:
                continue
            # The sole ready entry left, so every other visible entry waits
            # on a busy bank and ``wake`` still holds. Only the entry the
            # dispatch slid into the window can be ready now.
            if len(queue) >= window:
                busy_until = busy[queue[window - 1][2]]
                if busy_until <= now:
                    continue
                if wake is None or busy_until < wake:
                    wake = busy_until
            break
        if reads or writes:
            self._next_pump_at = wake
            self.sim.schedule(wake - now, self._pump, wake)

    def _dispatch(self, entry: tuple, now: int) -> None:
        req, event, bank_idx, row, acct = entry
        open_row = self._bank_row[bank_idx]
        if open_row == row:
            access_latency = self._t_cas
        else:
            if open_row is None:
                access_latency = self._t_rcd_cas
            else:
                access_latency = self._t_rp_rcd_cas
            # Respect the minimum row-cycle time before re-activating.
            earliest_activate = self._bank_activate[bank_idx] + self._t_ras
            if now < earliest_activate:
                access_latency += earliest_activate - now
                self._bank_activate[bank_idx] = earliest_activate
            else:
                self._bank_activate[bank_idx] = now
            self._bank_row[bank_idx] = row
            self._c_activates.value += 1
        size = req.size
        # Requests are at least one byte, so this is at least one cycle.
        transfer = -(-size // self._bus_bpc)
        data_start = now + access_latency
        if data_start < self._bus_free_at:
            data_start = self._bus_free_at
        done = data_start + transfer
        self._bus_free_at = done
        self._bank_busy[bank_idx] = done
        if acct[3]:
            self._c_bytes_read.value += size
        if acct[4]:
            self._c_bytes_written.value += size
        self.bandwidth.record(done, size, transfer)
        stats = self.stats
        trace = stats.trace
        if trace is not None:
            trace.events.append((now, "req", req.source, acct[5],
                                 req.addr, size, req.issue_time, done))
        if stats.hwfaults is not None or stats.watchdog is not None:
            self._dispatch_supervised(req, event, now, done)
            return
        self.sim.schedule(done - now, event.trigger, done)

    def _dispatch_supervised(self, req: MemRequest, event: Event,
                             now: int, done: int) -> None:
        """Response delivery with fault injection and/or watchdog tracking.

        Off the hot path: :meth:`_dispatch` only lands here when a fault
        plane or watchdog is attached. Tracking is registered *before* the
        fault is applied so a dropped or wedged response stays visible as
        the oldest outstanding request in the stall diagnosis.
        """
        wd = self.stats.watchdog
        if wd is not None:
            wd.beat("dram", now)
            wd.note_submit(
                "dram", id(event), req.issue_time,
                f"{req.kind.value} {req.size}B @0x{req.addr:x} "
                f"from {req.source}")
        plane = self.stats.hwfaults
        fault = plane.fire("dram", now) if plane is not None else None
        if fault is not None:
            if fault.kind in ("drop", "stuck"):
                # The response never arrives (stuck also wedges the pump
                # via the is_stuck latch checked there).
                return
            if fault.kind == "delay":
                done += fault.delay_cycles
            elif fault.kind == "corrupt":
                # Flip a payload bit in the backing store: the functional
                # read/write split means whoever consumes this word next
                # observes the corruption.
                plane.corrupt_word(None, req.addr - req.addr % 8)
        if wd is not None:
            self.sim.schedule(done - now, self._complete_tracked, event, done)
        else:
            self.sim.schedule(done - now, event.trigger, done)

    def _complete_tracked(self, event: Event, done: int) -> None:
        wd = self.stats.watchdog
        if wd is not None:
            wd.note_complete("dram", id(event))
        event.trigger(done)

    def abort_pending(self) -> int:
        """Drop every queued request and cancel the pump (safety-net abort
        of an abandoned collection). Returns how many were discarded."""
        dropped = len(self._reads) + len(self._writes)
        self._reads.clear()
        self._writes.clear()
        self._next_pump_at = None
        return dropped
