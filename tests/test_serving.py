"""Tests for repro.serving: workload, pool, engine, scorer, bench."""

import json
import time

import pytest

from repro import telemetry
from repro.errors import ScenarioError
from repro.netsim.rand import SeededRng
from repro.serving import (
    BenchConfig,
    ConnectionReusePool,
    ResolverScorecard,
    ServingConfig,
    ServingEngine,
    ServingWorld,
    ServingWorldConfig,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfSampler,
    assign_protocols,
    validate_document,
)
from repro.serving.bench import run_overload_leg, run_repro_check


@pytest.fixture(autouse=True)
def _clean_registry():
    telemetry.reset_registry()
    yield
    telemetry.reset_registry()


def small_world(seed=11, **overrides):
    config = dict(seed=seed, clients=6, names=64)
    config.update(overrides)
    return ServingWorld.build(ServingWorldConfig(**config))


def small_spec(**overrides):
    config = dict(duration_s=4.0, qps_start=50.0, clients=6, names=64)
    config.update(overrides)
    return WorkloadSpec(**config)


class TestWorkloadSpec:
    def test_validate_rejects_bad_duration(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(duration_s=0.0).validate()

    def test_validate_rejects_unknown_protocol(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(protocol_mix={"doq": 1.0}).validate()

    def test_validate_rejects_zero_weight_mix(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(protocol_mix={"dot": 0.0}).validate()

    def test_validate_rejects_negative_qps(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(qps_start=-1.0).validate()

    def test_flat_rate_without_ramp(self):
        spec = WorkloadSpec(qps_start=100.0)
        assert spec.qps_at(0.0) == spec.qps_at(30.0) == 100.0

    def test_linear_ramp(self):
        spec = WorkloadSpec(duration_s=10.0, qps_start=0.0, qps_end=100.0)
        assert spec.qps_at(5.0) == pytest.approx(50.0)
        assert spec.qps_at(10.0) == pytest.approx(100.0)


class TestZipfSampler:
    def test_hot_ranks_dominate(self):
        sampler = ZipfSampler(100, s=1.1)
        rng = SeededRng(3, "zipf")
        counts = [0] * 100
        for _ in range(4000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[10] > counts[50]
        assert counts[0] > 4000 * 0.1

    def test_samples_cover_only_the_universe(self):
        sampler = ZipfSampler(5, s=1.0)
        rng = SeededRng(4, "zipf")
        assert {sampler.sample(rng) for _ in range(500)} <= set(range(5))

    def test_empty_universe_rejected(self):
        with pytest.raises(ScenarioError):
            ZipfSampler(0)


class TestProtocolAssignment:
    def test_exact_apportionment_when_divisible(self):
        spec = WorkloadSpec(clients=9, protocol_mix={"do53": 1.0,
                                                     "dot": 1.0,
                                                     "doh": 1.0})
        assignment = assign_protocols(spec, SeededRng(5, "mix"))
        assert sorted(assignment).count("do53") == 3
        assert sorted(assignment).count("dot") == 3
        assert sorted(assignment).count("doh") == 3

    def test_largest_remainder_rounds_fairly(self):
        spec = WorkloadSpec(clients=10, protocol_mix={"do53": 2.0,
                                                      "dot": 1.0})
        assignment = assign_protocols(spec, SeededRng(5, "mix"))
        assert assignment.count("do53") == 7
        assert assignment.count("dot") == 3

    def test_assignment_is_seed_stable(self):
        spec = WorkloadSpec(clients=12)
        first = assign_protocols(spec, SeededRng(6, "mix"))
        second = assign_protocols(spec, SeededRng(6, "mix"))
        assert first == second


class TestWorkloadGenerator:
    def test_event_count_tracks_flat_rate(self):
        generator = WorkloadGenerator(small_spec(duration_s=10.0,
                                                 qps_start=50.0),
                                      SeededRng(7, "wl"))
        assert sum(len(batch) for _, batch in generator.batches()) == 500

    def test_event_count_tracks_ramp(self):
        # 0→100 qps over 10 s integrates to ~500 queries.
        generator = WorkloadGenerator(
            small_spec(duration_s=10.0, qps_start=0.0, qps_end=100.0),
            SeededRng(7, "wl"))
        total = sum(len(batch) for _, batch in generator.batches())
        assert total == pytest.approx(500, abs=5)

    def test_events_arrive_in_order_within_batches(self):
        generator = WorkloadGenerator(small_spec(), SeededRng(8, "wl"))
        for tick, batch in generator.batches():
            offsets = [event.at_s for event in batch]
            assert offsets == sorted(offsets)
            assert all(tick <= at < tick + 1.0 for at in offsets)

    def test_same_seed_same_stream(self):
        first = list(WorkloadGenerator(small_spec(),
                                       SeededRng(9, "wl")).events())
        second = list(WorkloadGenerator(small_spec(),
                                        SeededRng(9, "wl")).events())
        assert first == second

    def test_different_seeds_differ(self):
        first = list(WorkloadGenerator(small_spec(),
                                       SeededRng(9, "wl")).events())
        second = list(WorkloadGenerator(small_spec(),
                                        SeededRng(10, "wl")).events())
        assert first != second

    def test_protocol_follows_client_assignment(self):
        generator = WorkloadGenerator(small_spec(), SeededRng(11, "wl"))
        for event in generator.events():
            assert event.protocol == \
                generator.client_protocols[event.client]

    def test_census_covers_population(self):
        generator = WorkloadGenerator(small_spec(), SeededRng(12, "wl"))
        assert sum(generator.protocol_census().values()) == 6


class TestConnectionReusePool:
    def test_warm_queries_reuse_sessions(self):
        world = small_world()
        pool = ConnectionReusePool(world, SeededRng(13, "pool"))
        name = WorkloadGenerator(small_spec(),
                                 SeededRng(13, "wl")).name_for(0)
        first = pool.query(0, "dot", name, 1)
        world.network.clock.advance(1.0)
        second = pool.query(0, "dot", name, 1)
        assert first.ok and second.ok
        assert not first.reused_connection
        assert second.reused_connection
        assert pool.handshakes == 1 and pool.reused == 1

    def test_idle_past_keepalive_forces_rehandshake(self):
        world = small_world()  # advertises 30 s on every stream frontend
        pool = ConnectionReusePool(world, SeededRng(14, "pool"))
        name = WorkloadGenerator(small_spec(),
                                 SeededRng(14, "wl")).name_for(0)
        for protocol in ("do53-tcp", "dot"):
            pool.query(1, protocol, name, 1)
            world.network.clock.advance(120.0)  # way past the window
            lapsed = pool.query(1, protocol, name, 1)
            assert lapsed.ok
            assert not lapsed.reused_connection
        assert pool.expired == 2

    def test_udp_never_counts_reuse(self):
        world = small_world()
        pool = ConnectionReusePool(world, SeededRng(15, "pool"))
        name = WorkloadGenerator(small_spec(),
                                 SeededRng(15, "wl")).name_for(0)
        pool.query(2, "do53", name, 1)
        pool.query(2, "do53", name, 1)
        assert pool.reused == 0

    def test_unknown_protocol_rejected(self):
        world = small_world()
        pool = ConnectionReusePool(world, SeededRng(16, "pool"))
        name = WorkloadGenerator(small_spec(),
                                 SeededRng(16, "wl")).name_for(0)
        with pytest.raises(ScenarioError):
            pool.query(0, "doq", name, 1)


class TestWorldBuildScaling:
    """The world build is linear in the name universe (8x names <= 10x time)."""

    def test_eight_times_the_names_costs_at_most_ten_times_the_build(self):
        best = {512: float("inf"), 4096: float("inf")}
        # Interleave the sizes so a slow phase of the host hits both.
        for _ in range(3):
            for names in best:
                start = time.perf_counter()
                ServingWorld.build(ServingWorldConfig(seed=11, names=names))
                best[names] = min(best[names], time.perf_counter() - start)
        ratio = best[4096] / best[512]
        assert ratio <= 10.0, (
            f"4096-name build took {ratio:.1f}x the 512-name build "
            f"({best[4096]:.3f} s vs {best[512]:.3f} s)")


class TestServingEngine:
    def run_small(self, seed=17, spec=None, config=None):
        world = small_world(seed=seed)
        engine = ServingEngine(world, config or ServingConfig(
            concurrency=16, max_queue=64))
        report = engine.run(spec or small_spec())
        engine.close()
        return report

    def test_accounting_adds_up(self):
        report = self.run_small()
        assert report.offered == 200  # 4 s × 50 qps
        assert report.served + report.shed == report.offered
        for stats in report.protocols.values():
            assert stats.ok <= stats.served
            assert stats.latency.count == stats.served
            assert stats.cold.count + stats.warm.count == stats.served

    def test_streams_go_warm_under_load(self):
        report = self.run_small()
        for protocol in ("dot", "doh"):
            stats = report.protocols[protocol]
            assert stats.warm.count > stats.cold.count

    def test_telemetry_counters_emitted(self):
        registry, _ = telemetry.reset_registry()
        self.run_small()
        served = sum(
            registry.value("serving.queries_served", protocol=p)
            for p in ("do53", "dot", "doh"))
        assert served == 200
        assert registry.get("serving.latency_ms", protocol="dot") is not None

    def test_overload_sheds_and_completes(self):
        report = self.run_small(
            spec=small_spec(qps_start=400.0),
            config=ServingConfig(concurrency=2, max_queue=8))
        assert report.shed > 0
        assert report.served + report.shed == report.offered
        # Shedding is load-, not protocol-, driven: with every client
        # overloaded, each protocol takes losses.
        assert all(stats.shed > 0 for stats in report.protocols.values())

    def test_shed_counter_in_registry(self):
        registry, _ = telemetry.reset_registry()
        self.run_small(
            spec=small_spec(qps_start=400.0),
            config=ServingConfig(concurrency=2, max_queue=8))
        shed = sum(registry.value("serving.shed", protocol=p)
                   for p in ("do53", "dot", "doh"))
        assert shed > 0

    def test_cache_warms_over_the_run(self):
        report = self.run_small()
        assert report.cache.hits > 0
        assert report.cache.hit_ratio > 0.3

    def test_cache_churn_under_tiny_capacity(self):
        # A cache far smaller than the name universe must show
        # LRU pressure, and the run must still complete cleanly.
        world = small_world(seed=18, cache_entries=8)
        engine = ServingEngine(world, ServingConfig(concurrency=16,
                                                    max_queue=64))
        report = engine.run(small_spec())
        engine.close()
        assert report.cache.pressure_lru > 0
        assert report.served == report.offered

    def test_invalid_config_rejected(self):
        world = small_world()
        with pytest.raises(ValueError):
            ServingEngine(world, ServingConfig(concurrency=0))
        with pytest.raises(ValueError):
            ServingEngine(world, ServingConfig(max_queue=-1))


class TestScorecard:
    def card(self, seed=19):
        world = small_world(seed=seed)
        engine = ServingEngine(world, ServingConfig(concurrency=16,
                                                    max_queue=64))
        report = engine.run(small_spec())
        engine.close()
        return ResolverScorecard.from_report(report, seed=seed)

    def test_same_seed_byte_identical(self):
        telemetry.reset_registry()
        first = self.card().to_json_bytes()
        telemetry.reset_registry()
        second = self.card().to_json_bytes()
        assert first == second

    def test_different_seed_differs(self):
        assert self.card(seed=19).to_json_bytes() != \
            self.card(seed=20).to_json_bytes()

    def test_scores_are_bounded(self):
        for entry in self.card().protocols:
            assert 0.0 <= entry.score <= 100.0
            assert 0.0 <= entry.success_rate <= 1.0

    def test_quantile_presets_present_and_monotone(self):
        for entry in self.card().protocols:
            quantiles = [entry.p50_ms, entry.p95_ms, entry.p99_ms,
                         entry.p999_ms]
            assert all(value is not None for value in quantiles)
            assert quantiles == sorted(quantiles)

    def test_shed_queries_lower_the_score(self):
        world = small_world(seed=21)
        engine = ServingEngine(world, ServingConfig(concurrency=2,
                                                    max_queue=4))
        report = engine.run(small_spec(qps_start=400.0))
        engine.close()
        card = ResolverScorecard.from_report(report, seed=21)
        assert any(entry.score < 100.0 for entry in card.protocols)
        assert any(entry.success_rate < 1.0 for entry in card.protocols)

    def test_table_renders_every_protocol(self):
        text = self.card().to_table()
        for protocol in ("do53", "dot", "doh"):
            assert protocol in text
        assert "p99.9" in text

    def test_json_carries_schema_version(self):
        document = json.loads(self.card().to_json_bytes())
        assert document["schema_version"] == 1
        assert document["cache"]["hits"] > 0


class TestBench:
    def small_config(self):
        return BenchConfig(queries_per_protocol=150, qps=75.0, clients=6,
                           names=64, concurrency=16, max_queue=64,
                           overload_duration_s=2.0, repro_queries=100)

    def test_overload_leg_completes_with_shed(self):
        leg = run_overload_leg(self.small_config())
        assert leg["completed"]
        assert leg["shed"] > 0
        assert leg["served"] + leg["shed"] == leg["offered"]

    def test_repro_check_is_identical(self):
        repro = run_repro_check(self.small_config())
        assert repro["identical"]
        assert repro["digest_a"] == repro["digest_b"]

    def test_validator_accepts_the_committed_artifact_shape(self):
        document = {
            "schema_version": 1, "seed": 2019,
            "queries_per_protocol": 100,
            "protocols": {
                protocol: {"served": 100, "qps_wall": 1000.0,
                           "p50_ms": 10.0, "p95_ms": 20.0,
                           "p99_ms": 30.0, "p999_ms": 40.0,
                           "success_rate": 1.0}
                for protocol in ("do53", "dot", "doh")},
            "overload": {"completed": True, "shed": 5},
            "reproducibility": {"identical": True},
        }
        validate_document(document)

    def test_validator_rejects_missing_leg(self):
        with pytest.raises(ValueError, match="missing protocol leg"):
            validate_document({
                "schema_version": 1, "seed": 1,
                "queries_per_protocol": 1, "protocols": {},
                "overload": {}, "reproducibility": {}})

    def test_validator_rejects_low_served(self):
        document = {
            "schema_version": 1, "seed": 1, "queries_per_protocol": 100,
            "protocols": {
                protocol: {"served": 10, "qps_wall": 1.0, "p50_ms": 1.0,
                           "p95_ms": 2.0, "p99_ms": 3.0, "p999_ms": 4.0,
                           "success_rate": 1.0}
                for protocol in ("do53", "dot", "doh")},
            "overload": {"completed": True, "shed": 5},
            "reproducibility": {"identical": True},
        }
        with pytest.raises(ValueError, match="below"):
            validate_document(document)

    def test_validator_rejects_shed_free_overload(self):
        document = {
            "schema_version": 1, "seed": 1, "queries_per_protocol": 10,
            "protocols": {
                protocol: {"served": 10, "qps_wall": 1.0, "p50_ms": 1.0,
                           "p95_ms": 2.0, "p99_ms": 3.0, "p999_ms": 4.0,
                           "success_rate": 1.0}
                for protocol in ("do53", "dot", "doh")},
            "overload": {"completed": True, "shed": 0},
            "reproducibility": {"identical": True},
        }
        with pytest.raises(ValueError, match="shed nothing"):
            validate_document(document)

    def test_validator_rejects_non_identical_repro(self):
        document = {
            "schema_version": 1, "seed": 1, "queries_per_protocol": 10,
            "protocols": {
                protocol: {"served": 10, "qps_wall": 1.0, "p50_ms": 1.0,
                           "p95_ms": 2.0, "p99_ms": 3.0, "p999_ms": 4.0,
                           "success_rate": 1.0}
                for protocol in ("do53", "dot", "doh")},
            "overload": {"completed": True, "shed": 5},
            "reproducibility": {"identical": False},
        }
        with pytest.raises(ValueError, match="byte-identical"):
            validate_document(document)


class TestCli:
    def test_serve_table(self, capsys):
        from repro.cli import main
        assert main(["serve", "--duration", "3", "--qps", "40",
                     "--clients", "6", "--names", "64"]) == 0
        out = capsys.readouterr().out
        assert "serving scorecard" in out
        assert "do53" in out and "dot" in out and "doh" in out

    def test_serve_json_is_seed_stable(self, capsys):
        from repro.cli import main
        runs = []
        for _ in range(2):
            assert main(["--seed", "5", "serve", "--duration", "2",
                         "--qps", "30", "--clients", "4", "--names", "32",
                         "--format", "json"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["seed"] == 5

    def test_serve_rejects_bad_mix(self, capsys):
        from repro.cli import main
        assert main(["serve", "--mix", "dot=x"]) == 2

    def test_bench_serving_validate_mode(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "BENCH_SERVING.json"
        assert main(["bench-serving", "--queries", "120", "--qps", "60",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench-serving", "--validate", str(out),
                     "--min-queries", "120"]) == 0
        assert "valid serving benchmark" in capsys.readouterr().out

    def test_bench_serving_validate_rejects_garbage(self, tmp_path):
        from repro.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench-serving", "--validate", str(bad)]) == 1
