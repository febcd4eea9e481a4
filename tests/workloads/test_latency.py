"""Query-latency simulation: pause freezing and coordinated omission."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.latency import (
    QueryReplay,
    QuerySimulator,
    latency_cdf,
    percentile_summary,
    tail_ratio,
)
from repro.workloads.mutator import GCPauseRecord, MutatorRunResult


def synthetic_run(pause_at=1_000_000, pause_len=500_000,
                  total_mutator=10_000_000, n_pauses=1):
    """A hand-built timeline with known pauses."""
    run = MutatorRunResult(collector="sw")
    cursor = 0
    for i in range(n_pauses):
        cursor += pause_at
        run.pauses.append(GCPauseRecord(
            index=i, start_cycle=cursor, mark_cycles=pause_len,
            sweep_cycles=0, objects_marked=0, cells_freed=0,
        ))
        cursor += pause_len
    run.mutator_cycles = n_pauses * pause_at
    return run


class TestPauseFreezing:
    def test_query_before_pause_completes_normally(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=10_000, seed=1)
        records = sim.run_queries(n_queries=5, warmup=0)
        assert records[0].latency_cycles < 100_000
        assert not records[0].near_gc

    def test_query_overlapping_pause_absorbs_it(self):
        run = synthetic_run(pause_at=1_000_000, pause_len=500_000)
        sim = QuerySimulator(run, interval_cycles=990_000,
                             service_mean_cycles=50_000, seed=1)
        records = sim.run_queries(n_queries=3, warmup=0)
        straggler = records[1]  # arrives at 990k, runs into the 1M pause
        assert straggler.latency_cycles > 500_000
        assert straggler.near_gc

    def test_coordinated_omission_measured_from_intent(self):
        """Queries queued behind a pause-delayed predecessor still measure
        from their intended start."""
        run = synthetic_run(pause_at=500_000, pause_len=2_000_000)
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=50_000, seed=2)
        records = sim.run_queries(n_queries=20, warmup=0)
        # Several queries arrive during the pause; their latencies decrease
        # roughly by the interval as their intended starts advance.
        in_pause = [r for r in records if r.near_gc]
        assert len(in_pause) >= 3
        assert in_pause[0].latency_cycles > in_pause[2].latency_cycles
        # The backlog queries measure from intent, not from issue.
        assert in_pause[1].latency_cycles > 1_000_000

    def test_pauses_tile_past_one_iteration(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=3_000_000,
                             service_mean_cycles=10_000, seed=3)
        records = sim.run_queries(n_queries=30, warmup=0)
        assert len(records) == 30  # timeline wrapped without error


class TestAggregation:
    def test_cdf_monotone(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=150_000,
                             service_mean_cycles=20_000, seed=4)
        cdf = latency_cdf(sim.run_queries(n_queries=200, warmup=10))
        xs = [x for x, _y in cdf]
        ys = [y for _x, y in cdf]
        assert xs == sorted(xs)
        assert ys[-1] == pytest.approx(1.0)

    def test_tail_ratio_reflects_pauses(self):
        # Same GC duty cycle cannot saturate the open-loop system; only the
        # pause length differs.
        short = synthetic_run(pause_at=10_000_000, pause_len=100_000)
        long = synthetic_run(pause_at=10_000_000, pause_len=1_200_000)
        ratios = {}
        for label, run in (("short", short), ("long", long)):
            sim = QuerySimulator(run, interval_cycles=150_000,
                                 service_mean_cycles=15_000, seed=5)
            ratios[label] = tail_ratio(sim.run_queries(1000, warmup=0))
        assert ratios["long"] > ratios["short"]

    def test_empty_records(self):
        assert latency_cdf([]) == []
        with pytest.raises(ValueError):
            tail_ratio([])

    @pytest.mark.parametrize("p", [101.0, 100.5, 0.0, -5.0, float("nan")])
    def test_out_of_range_percentile(self, p):
        run = synthetic_run()
        records = QuerySimulator(run, interval_cycles=150_000,
                                 service_mean_cycles=20_000,
                                 seed=4).run_queries(50, warmup=0)
        with pytest.raises(ValueError, match="outside"):
            percentile_summary(records, percentiles=(p,))
        with pytest.raises(ValueError, match="outside"):
            tail_ratio(records, p_high=p)
        assert percentile_summary(records, percentiles=(100.0,))["p100"] \
            == percentile_summary(records)["max"]


class TestEdgeCases:
    """The degenerate inputs the fleet layer now feeds this module."""

    def test_pause_covering_entire_window_rejected(self):
        """No mutator time at all would spin the replay forever; the
        simulator must refuse at construction."""
        run = MutatorRunResult(collector="sw", mutator_cycles=0)
        run.pauses.append(GCPauseRecord(
            index=0, start_cycle=0, mark_cycles=1_000_000, sweep_cycles=0,
            objects_marked=0, cells_freed=0))
        with pytest.raises(ValueError, match="entire run window"):
            QuerySimulator(run, seed=1)

    def test_warmup_discarding_everything_is_empty_not_nan(self):
        run = synthetic_run()
        sim = QuerySimulator(run, interval_cycles=100_000,
                             service_mean_cycles=10_000, seed=1)
        records = sim.run_queries(n_queries=50, warmup=100)
        assert records == []
        with pytest.raises(ValueError, match="no records"):
            percentile_summary(records)
        with pytest.raises(ValueError, match="no records"):
            tail_ratio(records)

    def test_empty_replay_schedule(self):
        sim = QueryReplay(synthetic_run(), service_mean_cycles=10_000,
                          seed=1)
        result = sim.replay([])
        assert (result.arrived, result.completed, result.in_flight,
                result.shed) == (0, 0, 0, 0)
        assert result.records == []
        assert result.conserved

    def test_replay_rejects_decreasing_arrivals(self):
        sim = QueryReplay(synthetic_run(), service_mean_cycles=10_000,
                          seed=1)
        with pytest.raises(ValueError, match="non-decreasing"):
            sim.replay([0, 200_000, 100_000])


class TestQueryReplay:
    def test_regular_schedule_matches_run_queries(self):
        """The differential identity simulate_fleet's dedicated path rests
        on: an explicit [i*interval] schedule replays to the exact records
        run_queries produces (same RNG draws, same completions)."""
        run = synthetic_run(pause_at=700_000, pause_len=400_000, n_pauses=3)
        kwargs = dict(interval_cycles=120_000, service_mean_cycles=30_000,
                      seed=9)
        reference = QuerySimulator(run, **kwargs).run_queries(
            n_queries=300, warmup=25)
        replayed = QueryReplay(run, **kwargs).replay(
            [i * 120_000 for i in range(300)], warmup=25)
        assert replayed.records == reference
        assert replayed.arrived == 300
        assert replayed.shed == 0
        assert replayed.conserved

    @settings(deadline=None, max_examples=60)
    @given(
        gaps=st.lists(st.integers(0, 400_000), min_size=0, max_size=80),
        warmup=st.integers(0, 90),
        shed_intervals=st.one_of(st.none(), st.integers(1, 6)),
        use_horizon=st.booleans(),
        seed=st.integers(0, 5),
    )
    def test_conservation(self, gaps, warmup, shed_intervals, use_horizon,
                          seed):
        """Every arrival is exactly one of completed/in-flight/shed."""
        arrivals = []
        t = 0
        for gap in gaps:
            t += gap
            arrivals.append(t)
        sim = QueryReplay(synthetic_run(), interval_cycles=100_000,
                          service_mean_cycles=40_000, seed=seed)
        shed_cycles = (shed_intervals * 100_000
                       if shed_intervals is not None else None)
        horizon = (arrivals[-1] + 200_000
                   if use_horizon and arrivals else None)
        result = sim.replay(arrivals, warmup=warmup, horizon=horizon,
                            shed_backlog_cycles=shed_cycles)
        assert result.arrived == len(arrivals)
        assert result.conserved
        serviced = result.completed + result.in_flight
        # Records are the post-warmup slice of the serviced queries.
        assert len(result.records) <= serviced
        assert all(r.index >= warmup for r in result.records)
        if shed_cycles is None:
            assert result.shed == 0
        # Latency is measured from intent and is never negative.
        assert all(r.latency_cycles >= 0 for r in result.records)
