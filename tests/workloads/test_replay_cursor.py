"""Differential test of the replay loop's forward-only pause cursor.

:class:`ReferenceReplay` is the replay as it was before the cursor: every
lookup rescans the tiled pause list from epoch ``t // period``, and every
arrival draws its service time inline with ``lognormvariate``. It shares
no code with :meth:`QuerySimulator.replay` beyond the result types, so
agreement on records, counters and service draws is evidence that the
cursor and the up-front draws are exact.
"""

import math
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.latency import (
    QueryRecord,
    QueryReplay,
    ReplayResult,
    draw_services,
)
from repro.workloads.mutator import GCPauseRecord, MutatorRunResult


class ReferenceReplay:
    """The rescanning replay the cursor replaced."""

    def __init__(self, run, interval_cycles, service_mean_cycles, seed,
                 service_sigma=0.35):
        self.run = run
        self.service_mean = service_mean_cycles
        self.service_sigma = service_sigma
        self.seed = seed
        self.pauses = [(s, e) for kind, s, e in run.timeline()
                       if kind == "gc"]
        self.draws = []

    def _pause_after(self, t):
        period = self.run.total_cycles
        epoch = t // period
        while True:
            offset = epoch * period
            for start, end in self.pauses:
                if end + offset > t:
                    return start + offset, end + offset
            epoch += 1

    def _advance_through_pauses(self, t, work):
        if not self.pauses:
            return t + work
        while True:
            start, end = self._pause_after(t)
            if t >= start:
                t = end
                continue
            available = start - t
            if work <= available:
                return t + work
            work -= available
            t = end

    def replay(self, arrivals, warmup=0, horizon=None,
               shed_backlog_cycles=None, offline_after_cycle=None):
        rng = random.Random(self.seed)
        records = []
        prev_completion, prev_near_gc = 0, False
        completed = in_flight = shed = 0
        for i, intended in enumerate(arrivals):
            service = max(1000, int(rng.lognormvariate(
                math.log(self.service_mean), self.service_sigma)))
            self.draws.append(service)
            if (offline_after_cycle is not None
                    and intended >= offline_after_cycle):
                shed += 1
                continue
            if (shed_backlog_cycles is not None
                    and prev_completion - intended > shed_backlog_cycles):
                shed += 1
                continue
            start = max(intended, prev_completion)
            completion = self._advance_through_pauses(start, service)
            near_gc = (completion - start > service) or (
                start > intended and prev_near_gc)
            prev_completion, prev_near_gc = completion, near_gc
            if horizon is not None and completion > horizon:
                in_flight += 1
            else:
                completed += 1
            if i >= warmup:
                records.append(QueryRecord(i, intended, completion, near_gc))
        return ReplayResult(records, len(arrivals), completed, in_flight,
                            shed)


def timeline(pauses, mutator_cycles):
    """A run with pauses ``[(start, length), ...]`` in list order."""
    run = MutatorRunResult(collector="hw", mutator_cycles=mutator_cycles)
    for i, (start, length) in enumerate(pauses):
        run.pauses.append(GCPauseRecord(
            index=i, start_cycle=start, mark_cycles=length, sweep_cycles=0,
            objects_marked=0, cells_freed=0))
    return run


@contextmanager
def time_budget(seconds):
    """Fail instead of hanging: a replay that stops making progress
    raises ``TimeoutError`` after ``seconds`` of wall time."""
    def expire(_signum, _frame):
        raise TimeoutError(f"replay made no progress in {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_same_replay(run, arrivals, interval=100_000, mean=30_000, seed=3,
                       **options):
    reference = ReferenceReplay(run, interval, mean, seed)
    expected = reference.replay(arrivals, **options)
    with time_budget(10):
        got = QueryReplay(run, interval_cycles=interval,
                          service_mean_cycles=mean, seed=seed).replay(
            arrivals, **options)
    assert got.records == expected.records
    assert (got.arrived, got.completed, got.in_flight, got.shed) == \
        (expected.arrived, expected.completed, expected.in_flight,
         expected.shed)
    # One draw per arrival, shed arrivals included, in the same order.
    assert len(reference.draws) == len(arrivals)
    assert draw_services(len(arrivals), mean, seed) == reference.draws
    return got


#: Named timelines: (pauses [(start, length)], mutator cycles).
TIMELINES = {
    # Three pauses in a 2.2M-cycle period; the schedules below run for
    # tens of periods.
    "multi_epoch": ([(500_000, 200_000), (900_000, 50_000),
                     (1_500_000, 150_000)], 1_800_000),
    # The last pause ends at 1.25M, past the 1.05M-cycle period: its tiled
    # copy overlaps the start of the next epoch, which the rule ignores.
    "past_period_end": ([(300_000, 150_000), (1_000_000, 250_000)],
                        650_000),
    # Widened admission pauses can overlap, and list order is not end
    # order: the second pause ends before the first.
    "overlapping": ([(200_000, 400_000), (300_000, 100_000),
                     (550_000, 200_000)], 900_000),
    "pause_ends_at_period_end": ([(400_000, 100_000)], 400_000),
    "zero_length_pauses": ([(100_000, 0), (100_000, 80_000),
                            (600_000, 0)], 700_000),
    "zero_pauses": ([], 1_000_000),
}


def regular(n, interval):
    return [i * interval for i in range(n)]


class TestCursorMatchesReference:
    @pytest.mark.parametrize("name", sorted(TIMELINES))
    @pytest.mark.parametrize("interval,mean", [
        (100_000, 30_000),   # light load: queries meet pauses one by one
        (40_000, 35_000),    # near saturation: long pause-driven backlogs
        (700_000, 20_000),   # one query every few epochs
    ])
    def test_regular_schedule(self, name, interval, mean):
        run = timeline(*TIMELINES[name])
        assert_same_replay(run, regular(600, interval), interval=interval,
                           mean=mean, warmup=50)

    @pytest.mark.parametrize("name", sorted(TIMELINES))
    def test_shedding_offline_and_horizon(self, name):
        run = timeline(*TIMELINES[name])
        arrivals = regular(800, 45_000)
        got = assert_same_replay(
            run, arrivals, interval=45_000, mean=40_000, warmup=30,
            horizon=arrivals[-1] // 2, shed_backlog_cycles=90_000,
            offline_after_cycle=arrivals[600])
        assert got.shed >= 200  # every arrival from the crash on
        assert got.in_flight > 0

    @pytest.mark.parametrize("name", sorted(TIMELINES))
    def test_warmup_that_discards_everything(self, name):
        run = timeline(*TIMELINES[name])
        got = assert_same_replay(run, regular(40, 90_000), warmup=40)
        assert got.records == []
        assert got.completed == 40

    def test_arrivals_on_pause_boundaries(self):
        """Queries that arrive exactly at a pause start or end take the
        equality edges of both lookups."""
        pauses, mutator = TIMELINES["past_period_end"]
        run = timeline(pauses, mutator)
        period = run.total_cycles
        edges = sorted({k * period + x for k in range(4)
                        for s, length in pauses for x in (s, s + length)})
        assert_same_replay(run, edges, mean=5_000)

    def test_empty_schedule(self):
        got = assert_same_replay(timeline(*TIMELINES["multi_epoch"]), [])
        assert got.arrived == 0

    @settings(deadline=None, max_examples=150)
    @given(
        pauses=st.lists(st.tuples(st.integers(0, 600_000),
                                  st.integers(0, 300_000)), max_size=5),
        mutator=st.integers(20_000, 900_000),
        gaps=st.lists(st.integers(0, 500_000), max_size=60),
        mean=st.integers(1_000, 100_000),
        seed=st.integers(0, 20),
        warmup=st.integers(0, 70),
        shed=st.one_of(st.none(), st.integers(0, 400_000)),
        horizon=st.one_of(st.none(), st.integers(0, 20_000_000)),
        offline=st.one_of(st.none(), st.integers(0, 20_000_000)),
    )
    def test_generated_timelines(self, pauses, mutator, gaps, mean, seed,
                                 warmup, shed, horizon, offline):
        arrivals, t = [], 0
        for gap in gaps:
            t += gap
            arrivals.append(t)
        assert_same_replay(timeline(pauses, mutator), arrivals, mean=mean,
                           seed=seed, warmup=warmup, horizon=horizon,
                           shed_backlog_cycles=shed,
                           offline_after_cycle=offline)


class TestServiceDraws:
    def test_explicit_draws_replay_like_own_draws(self):
        run = timeline(*TIMELINES["multi_epoch"])
        arrivals = regular(300, 60_000)
        sim = QueryReplay(run, interval_cycles=60_000,
                          service_mean_cycles=25_000, seed=11)
        own = sim.replay(arrivals, warmup=10)
        shared = sim.replay(arrivals, warmup=10,
                            services=draw_services(300, 25_000, 11))
        assert shared == own

    def test_draw_count_must_match_arrivals(self):
        sim = QueryReplay(timeline(*TIMELINES["multi_epoch"]), seed=1)
        with pytest.raises(ValueError, match="2 service times for 3"):
            sim.replay([0, 1, 2], services=[5_000, 5_000])
