"""Fleet replay invariants that need the real simulation stack."""

from repro.fleet import report
from repro.fleet.balancer import spray, tenant_arrivals
from repro.fleet.faults import FleetFaultSpec
from repro.fleet.report import simulate_fleet
from repro.fleet.spec import FleetSpec
from repro.fleet.timeline import base_run, tenant_timeline
from repro.workloads.latency import QueryReplay

SPEC = FleetSpec(n_tenants=2, profiles_cycle=("luindex", "avrora"),
                 scale=0.008, seed=1, n_gcs=1, n_queries=400, warmup=40)


class TestBalancer:
    def test_spray_is_seeded_and_partitioning(self):
        a = spray(500, 3, seed=4)
        assert a == spray(500, 3, seed=4)
        assert a != spray(500, 3, seed=5)
        assert set(a) <= {0, 1, 2}
        per_tenant = [tenant_arrivals(a, 1000, t, 100) for t in range(3)]
        assert sum(len(arr) for arr, _w in per_tenant) == 500
        assert sum(w for _arr, w in per_tenant) == 100
        # Arrival cycles are the global slots, strictly increasing.
        for arrivals, _w in per_tenant:
            assert arrivals == sorted(set(arrivals))

    def test_unpicked_tenant_gets_empty_slice(self):
        arrivals, warm = tenant_arrivals([0, 0, 0], 1000, tenant=2, warmup=2)
        assert (arrivals, warm) == ([], 0)


class TestDedicatedIdentity:
    def test_dedicated_equals_single_tenant_replay(self):
        """Under ``dedicated`` a tenant's latency must be exactly what a
        standalone QueryReplay of its own timeline and arrival slice
        yields — other tenants must have zero effect on it."""
        fleet = simulate_fleet(SPEC, policies=("dedicated",))
        assignments = spray(SPEC.n_queries, SPEC.n_tenants, SPEC.seed)
        for tenant in SPEC.tenants():
            run = tenant_timeline(
                base_run(tenant.benchmark, "hw", SPEC.scale, SPEC.seed,
                         SPEC.n_gcs),
                tenant.phase_frac)
            arrivals, n_warm = tenant_arrivals(
                assignments, fleet.interval_cycles, tenant.index,
                SPEC.warmup)
            solo = QueryReplay(
                run, interval_cycles=fleet.interval_cycles,
                service_mean_cycles=fleet.service_mean_cycles,
                seed=tenant.seed,
            ).replay(arrivals, warmup=n_warm,
                     horizon=SPEC.n_queries * fleet.interval_cycles)
            report = fleet.reports[(tenant.index, "dedicated")]
            assert report.replay.records == solo.records
            assert (report.replay.arrived, report.replay.completed,
                    report.replay.in_flight, report.replay.shed) == \
                (solo.arrived, solo.completed, solo.in_flight, solo.shed)

    def test_removing_a_tenant_does_not_move_the_others(self):
        """Cell independence: replaying a subset reproduces the full
        fleet's rows for those tenants byte-for-byte (all policies)."""
        full = simulate_fleet(SPEC)
        subset = simulate_fleet(SPEC, tenant_indices=(1,))
        for policy in full.policies:
            assert subset.reports[(1, policy)].row() == \
                full.reports[(1, policy)].row()


class TestConservation:
    def test_conservation_across_policies(self):
        spec = FleetSpec(n_tenants=2, profiles_cycle=("luindex", "avrora"),
                         scale=0.008, seed=3, n_gcs=1, n_queries=400,
                         warmup=40, shed_backlog_intervals=2)
        fleet = simulate_fleet(spec)
        for report in fleet.reports.values():
            assert report.replay.conserved


class _PerPolicyDraws(QueryReplay):
    """Ignores the shared draws: each replay draws its own service times."""

    def replay(self, arrivals, *args, services=None, **kwargs):
        return super().replay(arrivals, *args, **kwargs)


class TestSharedDraws:
    def test_shared_draws_match_per_policy_draws(self, monkeypatch):
        """simulate_fleet draws each tenant's service times once and hands
        them to every policy's replay. Drawing afresh in each replay must
        give the same rows, with shedding and a crashed tenant too."""
        spec = FleetSpec(n_tenants=3, profiles_cycle=("luindex", "avrora"),
                         scale=0.008, seed=3, n_gcs=1, n_queries=600,
                         warmup=40, shed_backlog_intervals=2)
        faults = FleetFaultSpec.parse("crash:t1@2000000")
        shared = [simulate_fleet(spec), simulate_fleet(spec, faults=faults)]
        monkeypatch.setattr(report, "QueryReplay", _PerPolicyDraws)
        own = [simulate_fleet(spec), simulate_fleet(spec, faults=faults)]
        for a, b in zip(shared, own):
            assert a.rows() == b.rows()
            assert [r.replay.records for r in a.reports.values()] == \
                [r.replay.records for r in b.reports.values()]
        crashed = shared[1].reports[(1, "shared")].replay
        assert crashed.shed > 0
