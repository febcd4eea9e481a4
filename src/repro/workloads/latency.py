"""Query-latency simulation with coordinated-omission correction (Fig. 1b).

"We took the lusearch DaCapo benchmark ... and recorded request latencies
of a 10K query run (discarding the first 1K queries for warm-up), assuming
that a request is issued every 100ms and accounting for coordinated
omission."

The simulator replays an open-loop query schedule against a benchmark
timeline (mutator segments interleaved with GC pauses from a
:class:`~repro.workloads.mutator.MutatorRunResult`, tiled to cover the
run). A query's service only progresses during mutator segments; queries
arriving during (or queueing behind) a pause absorb its full duration.
Coordinated omission is handled the way Tene prescribes: latency is
measured from the *intended* arrival time, never from a delayed issue.

One loop, :meth:`QuerySimulator.replay`, serves every schedule: Fig. 1b's
regular schedule (:meth:`~QuerySimulator.run_queries`) and each fleet
tenant's irregular slice alike. Two things keep it one forward pass, and
both are exact:

* **A forward-only pause cursor.** The pauses of one run period tile the
  timeline; pause ``j`` of epoch ``k`` is shifted by ``k * period``. The
  rule is "the first pause of epoch ``t // period`` or later, in list
  order, that ends after ``t``". Query start times never decrease, so a
  cursor over the tiled list only moves forward: before each lookup it
  jumps to the first pause of epoch ``t // period`` if it lags behind, and
  every pause it has since stepped over ended at or before an earlier
  ``t``, hence before this one. Scanning on from the cursor therefore
  finds the pause the rule names, also when a pause runs past the period
  end and its tiled copy overlaps the next epoch (the rule skips it).
* **Service times drawn once.** :func:`draw_services` makes one lognormal
  draw per arrival, shed arrivals included. The draws depend on the seed,
  the mean and the arrival count only, never on the pause timeline, so
  the fleet draws each tenant's list once per
  :func:`~repro.fleet.report.simulate_fleet` call and replays every
  policy with it: the same list each replay would have drawn itself.

Scale note: our simulated pauses are milliseconds (scaled-down heaps), so
the default inter-arrival gap is scaled to preserve the paper's ratio of
pause duration to arrival interval; the CDF's *shape* — a short head and a
pause-induced tail two orders of magnitude long — is the reproduced result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.workloads.mutator import MutatorRunResult


@dataclass
class QueryRecord:
    """One query of the open-loop run."""

    index: int
    intended_start: int  # cycles on the run timeline
    completion: int
    near_gc: bool  # overlapped (or queued behind) a GC pause

    @property
    def latency_cycles(self) -> int:
        return self.completion - self.intended_start

    @property
    def latency_ms(self) -> float:
        return self.latency_cycles / 1e6


#: Log-space spread of the lognormal service-time distribution.
SERVICE_SIGMA = 0.35


def draw_services(n: int, mean_cycles: int, seed: int,
                  sigma: float = SERVICE_SIGMA) -> List[int]:
    """Service times of ``n`` consecutive arrivals, in cycles.

    One lognormal draw per arrival from ``random.Random(seed)``, floored
    at 1000 cycles. ``Random.lognormvariate(mu, sigma)`` is defined as
    ``exp(normalvariate(mu, sigma))``; calling ``normalvariate`` directly
    with ``mu`` computed once makes the same RNG calls and the same floats.
    """
    normal = random.Random(seed).normalvariate
    mu = math.log(mean_cycles)
    exp = math.exp
    draws = []
    for _ in range(n):
        cycles = int(exp(normal(mu, sigma)))
        draws.append(cycles if cycles > 1000 else 1000)
    return draws


def _limit(cycle: Optional[int]) -> float:
    return math.inf if cycle is None else cycle


class QuerySimulator:
    """Open-loop single-server query replay over a GC-pause timeline."""

    def __init__(
        self,
        run: MutatorRunResult,
        interval_cycles: int = 1_000_000,  # 1 ms at 1 GHz (scaled 100 ms)
        service_mean_cycles: int = 120_000,
        service_sigma: float = SERVICE_SIGMA,
        seed: int = 42,
    ):
        self.run = run
        self.interval = interval_cycles
        self.service_mean = service_mean_cycles
        self.service_sigma = service_sigma
        self.seed = seed
        self.period = run.total_cycles
        self._pauses = self._tile_pauses()

    def _tile_pauses(self) -> List[Tuple[int, int]]:
        """Pause windows [(start, end)] from the run, tiled so the schedule
        can extend past one benchmark iteration (DaCapo loops internally).

        A run whose pauses cover the entire window leaves no mutator time
        for service to progress, so the replay would spin forever hopping
        from one tiled pause straight into the next; such degenerate
        timelines are rejected here, at construction.
        """
        segments = self.run.timeline()
        period = self.period
        base = [(s, e) for kind, s, e in segments if kind == "gc"]
        if not base or period <= 0:
            return []
        covered = sum(end - start for start, end in base)
        if covered >= period:
            raise ValueError(
                f"GC pauses cover the entire run window ({covered} of "
                f"{period} cycles): queries could never complete")
        return base  # tiling handled modulo `period` by the replay cursor

    def run_queries(self, n_queries: int = 10_000,
                    warmup: int = 1_000) -> List[QueryRecord]:
        """Replay the regular schedule ``[i * interval]``; returns the
        post-warmup records.

        When fewer queries arrive than the warm-up discards
        (``n_queries <= warmup``) the returned list is empty — every query
        was warm-up — and downstream summaries (:func:`percentile_summary`,
        :func:`tail_ratio`) raise ``ValueError("no records")`` rather than
        emitting NaNs.
        """
        return self.replay([i * self.interval for i in range(n_queries)],
                           warmup).records

    def replay(
        self,
        arrivals: Sequence[int],
        warmup: int = 0,
        horizon: Optional[int] = None,
        shed_backlog_cycles: Optional[int] = None,
        offline_after_cycle: Optional[int] = None,
        services: Optional[Sequence[int]] = None,
    ) -> ReplayResult:
        """Run the schedule; latency is measured from intended arrival.

        ``warmup`` discards the first N records (they are still simulated:
        they consume service draws and queue behind-schedule work).
        ``horizon`` splits serviced queries into completed vs in-flight at
        a cutoff cycle; ``None`` means no cutoff (everything serviced
        counts as completed). ``shed_backlog_cycles`` models load
        shedding: a query arriving when the server is running more than
        that many cycles behind is dropped without service.
        ``offline_after_cycle`` models a crashed tenant (fleet fault
        plane): arrivals at or after that cycle are shed and stay
        accounted by the conservation law. ``services`` gives the service
        time of each arrival, as :func:`draw_services` returns them for
        this simulator's mean, seed and sigma (drawn here when omitted);
        shed arrivals keep their draw, so the pre-crash prefix replays
        byte-identically to the fault-free run. An empty schedule returns
        a zero-count result.
        """
        if services is None:
            services = draw_services(len(arrivals), self.service_mean,
                                     self.seed, self.service_sigma)
        elif len(services) != len(arrivals):
            raise ValueError(f"{len(services)} service times for "
                             f"{len(arrivals)} arrivals")
        starts = [start for start, _end in self._pauses]
        ends = [end for _start, end in self._pauses]
        n_pauses = len(ends)
        period = self.period
        # The pause cursor: pause j of epoch k spans
        # [starts[j] + offset, ends[j] + offset) with offset = k * period;
        # epoch k ends at next_epoch.
        j = offset = 0
        next_epoch = period
        if n_pauses:
            pause_start, pause_end = starts[0], ends[0]
        # Absent limits compare as infinity: no arrival reaches them.
        offline = _limit(offline_after_cycle)
        backlog = _limit(shed_backlog_cycles)
        cutoff = _limit(horizon)
        records: List[QueryRecord] = []
        prev_completion = 0
        prev_intended = 0
        prev_near_gc = False
        completed = in_flight = shed = 0
        for i, intended in enumerate(arrivals):
            if intended < prev_intended:
                raise ValueError(
                    f"arrival schedule must be non-decreasing: "
                    f"arrivals[{i}] == {intended} < {prev_intended}")
            prev_intended = intended
            if intended >= offline or prev_completion - intended > backlog:
                shed += 1
                continue
            service = work = services[i]
            start = t = (intended if intended > prev_completion
                         else prev_completion)
            # Serve ``work`` cycles from ``t``, frozen during pauses.
            while n_pauses:
                # Find the first pause of epoch t // period or later that
                # ends after t. Start times never decrease, so the cursor
                # only moves forward, but it must not lag t's epoch.
                if t >= next_epoch:
                    j, offset = 0, t // period * period
                    next_epoch = offset + period
                    pause_start, pause_end = starts[0] + offset, \
                        ends[0] + offset
                while pause_end <= t:
                    j += 1
                    if j == n_pauses:
                        j = 0
                        offset = next_epoch
                        next_epoch += period
                    pause_start, pause_end = starts[j] + offset, \
                        ends[j] + offset
                if t < pause_start:
                    if work <= pause_start - t:
                        break
                    work -= pause_start - t
                t = pause_end  # inside or reaching the pause: wait it out
            completion = t + work
            # "The colors indicate whether a query was close to a pause":
            # either it absorbed a pause directly, or it queued behind a
            # pause-delayed predecessor (ordinary queueing doesn't count).
            near_gc = (completion - start > service) or (
                start > intended and prev_near_gc
            )
            prev_completion = completion
            prev_near_gc = near_gc
            if completion > cutoff:
                in_flight += 1
            else:
                completed += 1
            if i >= warmup:
                records.append(QueryRecord(i, intended, completion, near_gc))
        return ReplayResult(records=records, arrived=len(arrivals),
                            completed=completed, in_flight=in_flight,
                            shed=shed)


@dataclass
class ReplayResult:
    """Outcome of replaying an explicit arrival schedule.

    ``records`` holds the post-warm-up *serviced* queries (shed queries
    never execute and leave no record); the counters account for every
    arrival exactly once: ``arrived == completed + in_flight + shed``.
    """

    records: List[QueryRecord]
    arrived: int
    completed: int  # serviced with completion <= horizon (incl. warm-up)
    in_flight: int  # serviced but still running at the horizon
    shed: int       # dropped by the backlog admission check

    @property
    def conserved(self) -> bool:
        return self.arrived == self.completed + self.in_flight + self.shed


#: The fleet layer's name for the simulator: it replays each tenant's
#: irregular slice of one global arrival stream through :meth:`replay`.
QueryReplay = QuerySimulator


def latency_cdf(records: Sequence[QueryRecord]) -> List[Tuple[float, float]]:
    """[(latency_ms, cumulative_fraction), ...] sorted by latency."""
    if not records:
        return []
    latencies = sorted(r.latency_ms for r in records)
    n = len(latencies)
    return [(lat, (i + 1) / n) for i, lat in enumerate(latencies)]


def _sorted_latency_cycles(records: Sequence[QueryRecord]) -> List[int]:
    """Integer latencies, ascending. Dividing by 1e6 afterwards gives the
    same floats in the same order as sorting ``latency_ms`` (the division
    is monotone), without a float per record."""
    cycles = [r.completion - r.intended_start for r in records]
    cycles.sort()
    if not cycles:
        raise ValueError("no records")
    return cycles


def _percentile_ms(cycles: Sequence[int], p: float) -> float:
    """The nearest-rank ``p``-th percentile of sorted ``cycles``, in ms."""
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p!r} outside (0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(cycles)))
    return cycles[rank - 1] / 1e6


def percentile_summary(
    records: Sequence[QueryRecord],
    percentiles: Sequence[float] = (50.0, 90.0, 99.0, 99.9),
) -> dict:
    """{"p50": ms, ..., "max": ms} latency summary of a query run.

    Raises ``ValueError`` on no records or a percentile outside (0, 100].
    """
    cycles = _sorted_latency_cycles(records)
    out = {f"p{p:g}": _percentile_ms(cycles, p) for p in percentiles}
    out["max"] = cycles[-1] / 1e6
    return out


@dataclass
class LatencyComparison:
    """STW vs concurrent collection under the same open-loop query stream.

    The schedule (inter-arrival gap, service-time distribution, RNG seed)
    is derived once from the STW run and applied to both timelines, so any
    difference in the percentile columns is pause-attributed by
    construction.
    """

    stw: dict  # percentile_summary of the STW run
    concurrent: dict
    stw_max_pause_ms: float
    concurrent_max_pause_ms: float
    interval_cycles: int
    service_mean_cycles: int
    n_queries: int

    @property
    def tail_improvement(self) -> float:
        """p99.9 ratio, STW over concurrent (>1 means concurrent wins)."""
        conc = self.concurrent["p99.9"]
        return self.stw["p99.9"] / conc if conc > 0 else float("inf")


def compare_stw_concurrent(
    stw_run: MutatorRunResult,
    concurrent_run: MutatorRunResult,
    n_queries: int = 10_000,
    warmup: int = 1_000,
    interval_cycles: int = 0,
    service_mean_cycles: int = 0,
    seed: int = 42,
) -> LatencyComparison:
    """Replay one query schedule against both timelines (Fig. 1b extended).

    Zero ``interval_cycles``/``service_mean_cycles`` means "derive from the
    STW run's mean pause", preserving the paper's ratio of pause duration
    to arrival interval at our scaled-down heap sizes.
    """
    if not stw_run.pauses:
        raise ValueError("STW run has no pauses to scale the schedule from")
    mean_pause = stw_run.gc_cycles // len(stw_run.pauses)
    interval = interval_cycles or max(50_000, mean_pause // 6)
    service = service_mean_cycles or max(4_000, mean_pause // 60)

    def summarize(run: MutatorRunResult) -> dict:
        sim = QuerySimulator(run, interval_cycles=interval,
                             service_mean_cycles=service, seed=seed)
        return percentile_summary(sim.run_queries(n_queries, warmup))

    return LatencyComparison(
        stw=summarize(stw_run),
        concurrent=summarize(concurrent_run),
        stw_max_pause_ms=max(p.pause_ms for p in stw_run.pauses),
        concurrent_max_pause_ms=max(
            p.pause_ms for p in concurrent_run.pauses),
        interval_cycles=interval,
        service_mean_cycles=service,
        n_queries=n_queries - warmup,
    )


def tail_ratio(records: Sequence[QueryRecord],
               p_low: float = 50.0, p_high: float = 99.9) -> float:
    """How many times longer the p_high tail is than the median —
    the 'two orders of magnitude' stragglers of §II."""
    cycles = _sorted_latency_cycles(records)
    low = _percentile_ms(cycles, p_low)
    high = _percentile_ms(cycles, p_high)
    return high / low if low > 0 else float("inf")
