"""Longitudinal campaign engine: queue, checkpoints, dynamics, goldens.

The tier proves four things:

- the two growth-table bugfixes (union ranking with explicit new
  entrants; clear errors instead of bare IndexError on empty campaigns);
- churn/rotation world dynamics are pure functions of (seed, round) —
  any materialisation order, any world mode, any shard plan agrees;
- incremental (fragment-folded) analysis is byte-identical to the batch
  path at workers 1 and 4;
- a killed campaign resumes from its checkpoint with byte-identical
  final artefacts and digest.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import figures, tables
from repro.campaign import (
    CampaignEngine,
    CheckpointStore,
    FragmentAccumulator,
    RoundFragment,
    chain_digest,
)
from repro.core.parallel import ParallelConfig
from repro.core.scan import churn
from repro.core.scan.campaign import (
    CampaignResult,
    ScanCampaign,
    rank_country_growth,
)
from repro.errors import CampaignError
from repro.tlssim.certs import (
    CaStore,
    CertificateAuthority,
    make_chain,
    validate_chain,
)
from repro.world.scenario import ScenarioConfig, build_scenario

from tests.conftest import tiny_config


def longitudinal_config(seed: int = 2019, rounds: int = 4,
                        **overrides) -> ScenarioConfig:
    base = tiny_config(seed)
    return dataclasses.replace(base, scan_rounds=rounds, **overrides)


def artefact_bundle(summary) -> tuple:
    accumulator = summary.accumulator
    return (accumulator.table2_text(),
            accumulator.figure3_series(),
            accumulator.figure4_series(),
            accumulator.churn,
            accumulator.survival)


# -- satellite bugfix regressions -------------------------------------------


@pytest.mark.longitudinal
class TestCountryGrowthRanking:
    """country_growth ranks on the union and flags new entrants."""

    def test_new_entrant_appears_and_is_flagged(self):
        first = Counter({"US": 100, "DE": 50})
        last = Counter({"US": 150, "DE": 40, "BR": 90})
        rows = rank_country_growth(first, last, top_n=3)
        codes = [row[0] for row in rows]
        assert codes == ["US", "BR", "DE"]
        by_code = {row[0]: row for row in rows}
        # BR was absent at round 0: present in the table, growth None.
        assert by_code["BR"][1] == 0 and by_code["BR"][2] == 90
        assert by_code["BR"][3] is None

    def test_departed_country_still_ranked(self):
        first = Counter({"CN": 300, "US": 10})
        last = Counter({"US": 12})
        rows = rank_country_growth(first, last, top_n=2)
        assert rows[0][0] == "CN"
        assert rows[0][2] == 0 and rows[0][3] == -100.0

    def test_ranking_key_prefers_final_count_on_ties(self):
        first = Counter({"AA": 10, "BB": 5})
        last = Counter({"AA": 5, "BB": 10})
        rows = rank_country_growth(first, last, top_n=2)
        # Same max(first,last); BB's larger final count wins.
        assert [row[0] for row in rows] == ["BB", "AA"]

    def test_table2_renders_new_for_new_entrants(self):
        text = tables.table2_text_from(
            "2019-02-01", "2019-05-01",
            [("US", 100, 531, 431.0), ("BR", 0, 90, None)])
        lines = text.splitlines()
        br_line = next(line for line in lines if line.startswith("BR"))
        assert "new" in br_line and "%" not in br_line
        us_line = next(line for line in lines if line.startswith("US"))
        assert "+431%" in us_line


@pytest.mark.longitudinal
class TestEmptyCampaignSafety:
    """Empty campaigns raise CampaignError / return empty, never IndexError."""

    def test_first_last_raise_campaign_error(self):
        empty = CampaignResult(rounds=[])
        with pytest.raises(CampaignError):
            empty.first
        with pytest.raises(CampaignError):
            empty.last

    def test_reports_are_empty_not_crashing(self):
        empty = CampaignResult(rounds=[])
        assert empty.country_growth() == []
        assert empty.resolvers_per_round() == []
        text = tables.table2_text(empty)
        assert "Table 2" in text

    def test_empty_accumulator_renders_empty_artefacts(self):
        accumulator = FragmentAccumulator()
        assert accumulator.country_growth() == []
        assert "Table 2" in accumulator.table2_text()
        dates, series = accumulator.figure3_series()
        assert dates == [] and series == {"others": []}


@pytest.mark.longitudinal
class TestValidationMemoBound:
    """CaStore's validation memo is a bounded LRU with an eviction count."""

    def _store_and_chains(self, size):
        ca = CertificateAuthority.root("Memo Test Root")
        store = CaStore(validation_memo_size=size)
        store.trust(ca)
        chains = [make_chain(ca, f"memo-{index}.example",
                             "2018-01-01", "2020-01-01")
                  for index in range(size + 3)]
        return store, chains

    def test_memo_never_exceeds_bound(self):
        store, chains = self._store_and_chains(size=4)
        now = 1.55e9
        for chain in chains:
            validate_chain(chain, store, now)
        assert len(store._validation_memo) == 4
        assert store.memo_evictions == len(chains) - 4

    def test_lru_order_keeps_hot_entries(self):
        store, chains = self._store_and_chains(size=2)
        now = 1.55e9
        validate_chain(chains[0], store, now)
        validate_chain(chains[1], store, now)
        validate_chain(chains[0], store, now)  # refresh 0
        validate_chain(chains[2], store, now)  # evicts 1, not 0
        before = store.memo_evictions
        validate_chain(chains[0], store, now)  # still memoised: no grow
        assert store.memo_evictions == before
        assert len(store._validation_memo) == 2

    def test_trust_change_clears_memo(self):
        store, chains = self._store_and_chains(size=4)
        validate_chain(chains[0], store, 1.55e9)
        assert len(store._validation_memo) == 1
        store.trust(CertificateAuthority.root("Another Root"))
        assert len(store._validation_memo) == 0


# -- churn / rotation determinism -------------------------------------------


@pytest.mark.longitudinal
class TestDynamicsDeterminism:
    """Same seed => identical round plans, in any materialisation order."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=2**30),
           churn_rate=st.floats(min_value=0.05, max_value=0.6),
           order=st.permutations(list(range(4))))
    def test_churned_layouts_ignore_build_order(self, seed, churn_rate,
                                                order):
        config = longitudinal_config(seed=seed, churn_rate=churn_rate,
                                     cert_rotation_rounds=2)
        forward = build_scenario(config)
        shuffled = build_scenario(config)
        plans = {}
        for round_index in range(4):
            layout = forward.round_layout(round_index)
            plans[round_index] = (tuple(layout.addresses),
                                  dict(layout.tcp_ports),
                                  dict(layout.udp_ports))
        for round_index in order:  # arbitrary materialisation order
            layout = shuffled.round_layout(round_index)
            assert tuple(layout.addresses) == plans[round_index][0]
            assert dict(layout.tcp_ports) == plans[round_index][1]
            assert dict(layout.udp_ports) == plans[round_index][2]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=2**30))
    def test_rotation_windows_ignore_query_order(self, seed):
        config = longitudinal_config(seed=seed, rounds=8,
                                     cert_rotation_rounds=2)
        forward = build_scenario(config)
        backward = build_scenario(config)
        samples = [spec.address
                   for provider in forward.providers[:6]
                   for spec in provider.addresses[:2]]

        def windows(scenario, round_order):
            seen = {}
            for round_index in round_order:
                layout = scenario.round_layout(round_index)
                for address in samples:
                    entry = layout.builders.get(address)
                    if entry is None or entry[0] != "resolver":
                        continue
                    provider, spec = entry[1]
                    tls = scenario._tls_config_for(provider, spec,
                                                   round_index)
                    leaf = tls.cert_chain[0]
                    seen[(address, round_index)] = (
                        leaf.subject_cn, leaf.not_before, leaf.not_after)
            return seen

        assert (windows(forward, range(8))
                == windows(backward, reversed(range(8))))

    def test_churn_spares_advertised_addresses(self):
        config = longitudinal_config(churn_rate=0.5)
        scenario = build_scenario(config)
        advertised = {spec.address
                      for provider in scenario.providers
                      for spec in provider.addresses
                      if spec.advertised and spec.active_in_round(2)}
        layout = scenario.round_layout(2)
        missing = advertised - set(layout.builders)
        assert not missing

    def test_zero_churn_reproduces_static_population(self):
        static = build_scenario(longitudinal_config())
        dynamic = build_scenario(longitudinal_config(churn_rate=0.0))
        for round_index in range(4):
            assert (static.round_layout(round_index).addresses
                    == dynamic.round_layout(round_index).addresses)

    def test_rotation_expiry_crosses_round_boundaries(self):
        """Laggard chains expire partway through an epoch, then recover."""
        config = longitudinal_config(rounds=12, cert_rotation_rounds=3)
        summary = CampaignEngine(build_scenario(config)).run(
            include_doh=False)
        invalid = summary.accumulator.invalid_provider_series
        baseline = CampaignEngine(
            build_scenario(longitudinal_config(rounds=12))).run(
                include_doh=False).accumulator.invalid_provider_series
        assert invalid != baseline
        # Non-monotone movement: counts rise (expiries) and fall again
        # (rotations land), not a single step at an epoch edge.
        assert any(b > a for a, b in zip(invalid, invalid[1:]))
        assert any(b < a for a, b in zip(invalid, invalid[1:]))

    def test_adoption_curve_densifies_open_plan(self):
        config = longitudinal_config(adoption_curve="linear",
                                     world_scale=4.0, world_mode="lazy")
        scenario = build_scenario(config)
        strides = [scenario.round_layout(r).scaled.stride
                   for r in range(4)]
        assert strides[0] > strides[-1]
        estimates = [scenario.background_open853(r) for r in range(4)]
        assert estimates[-1] > estimates[0]
        flat = build_scenario(longitudinal_config(world_scale=4.0,
                                                  world_mode="lazy"))
        assert (flat.round_layout(0).scaled.stride
                == flat.round_layout(3).scaled.stride)


# -- incremental == batch goldens -------------------------------------------


@pytest.mark.longitudinal
class TestIncrementalEqualsBatch:
    """Fragment-folded artefacts are byte-identical to the batch path."""

    CONFIG_KW = dict(churn_rate=0.15, cert_rotation_rounds=2)

    def _batch_bundle(self, parallel=None):
        campaign = ScanCampaign(
            build_scenario(longitudinal_config(**self.CONFIG_KW)),
            parallel=parallel).run(include_doh=False)
        return (tables.table2_text(campaign),
                figures.figure3_series(campaign),
                figures.figure4_series(campaign),
                churn.round_churn(campaign),
                churn.cohort_survival(campaign))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_incremental_equals_batch(self, workers):
        parallel = ParallelConfig(workers=workers)
        batch = self._batch_bundle()
        engine = CampaignEngine(
            build_scenario(longitudinal_config(**self.CONFIG_KW)),
            parallel=parallel)
        incremental = artefact_bundle(engine.run(include_doh=False))
        assert incremental == batch

    @settings(max_examples=8, deadline=None)
    @given(split=st.integers(min_value=0, max_value=4))
    def test_fold_is_associative_across_wire_roundtrip(self, split):
        """fold(all) == fold(prefix) -> wire roundtrip -> fold(suffix)."""
        campaign = ScanCampaign(build_scenario(
            longitudinal_config(**self.CONFIG_KW))).run(include_doh=False)
        fragments = [RoundFragment.from_round(r) for r in campaign.rounds]
        whole = FragmentAccumulator()
        for fragment in fragments:
            whole.fold(fragment)
        spliced = FragmentAccumulator()
        for fragment in fragments[:split]:
            spliced.fold(fragment)
        for fragment in fragments[split:]:
            spliced.fold(RoundFragment.from_wire(fragment.to_wire()))
        assert whole.table2_text() == spliced.table2_text()
        assert whole.figure3_series() == spliced.figure3_series()
        assert whole.figure4_series() == spliced.figure4_series()
        assert whole.churn == spliced.churn
        assert whole.survival == spliced.survival

    def test_out_of_order_fold_is_rejected(self):
        campaign = ScanCampaign(build_scenario(
            longitudinal_config())).run(rounds=2, include_doh=False)
        fragments = [RoundFragment.from_round(r) for r in campaign.rounds]
        accumulator = FragmentAccumulator()
        accumulator.fold(fragments[1])
        with pytest.raises(CampaignError):
            accumulator.fold(fragments[0])


# -- checkpoint / resume ----------------------------------------------------


@pytest.mark.longitudinal
class TestCheckpointResume:
    CONFIG_KW = dict(rounds=5, churn_rate=0.1)

    def _engine(self, tmp_path=None):
        path = str(tmp_path / "campaign.jsonl") if tmp_path else None
        return CampaignEngine(
            build_scenario(longitudinal_config(**self.CONFIG_KW)),
            checkpoint_path=path)

    def test_kill_then_resume_is_byte_identical(self, tmp_path):
        straight = self._engine().run(include_doh=False)
        partial = self._engine(tmp_path).run(include_doh=False,
                                             stop_after_round=2)
        assert not partial.completed and partial.executed_rounds == 3
        resumed = self._engine(tmp_path).run(include_doh=False,
                                             resume=True)
        assert resumed.completed
        assert resumed.restored_rounds == 3
        assert resumed.executed_rounds == 2
        assert resumed.digest == straight.digest
        assert artefact_bundle(resumed) == artefact_bundle(straight)

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        straight = self._engine().run(include_doh=False)
        self._engine(tmp_path).run(include_doh=False, stop_after_round=1)
        path = tmp_path / "campaign.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"round": 2, "dig')  # kill mid-append
        resumed = self._engine(tmp_path).run(include_doh=False,
                                             resume=True)
        assert resumed.digest == straight.digest

    def test_config_mismatch_is_refused(self, tmp_path):
        self._engine(tmp_path).run(include_doh=False, stop_after_round=1)
        other = CampaignEngine(
            build_scenario(longitudinal_config(seed=7, **self.CONFIG_KW)),
            checkpoint_path=str(tmp_path / "campaign.jsonl"))
        with pytest.raises(CampaignError):
            other.run(include_doh=False, resume=True)

    def test_tampered_digest_chain_is_refused(self, tmp_path):
        self._engine(tmp_path).run(include_doh=False, stop_after_round=2)
        path = tmp_path / "campaign.jsonl"
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]  # reorder rounds
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CampaignError):
            self._engine(tmp_path).run(include_doh=False, resume=True)

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(CampaignError):
            self._engine().run(include_doh=False, resume=True)

    def test_wire_version_pin(self):
        with pytest.raises(CampaignError):
            RoundFragment.from_wire(
                ("roundfragment", 999, 0, 0.0, 0, 0, 0, [], [], []))

    def test_digest_chain_orders_fragments(self):
        wire_a = ("roundfragment", 1, 0, 0.0, 1, 1, 1,
                  [["US", 1]], [["p", 1, 0]], ["1.2.3.4"])
        wire_b = ("roundfragment", 1, 1, 1.0, 1, 1, 1,
                  [["US", 1]], [["p", 1, 0]], ["1.2.3.4"])
        ab = chain_digest(chain_digest("", wire_a), wire_b)
        ba = chain_digest(chain_digest("", wire_b), wire_a)
        assert ab != ba

    @pytest.mark.parametrize("line", ["[]", "5", "null"])
    def test_non_object_header_is_refused(self, tmp_path, line):
        path = tmp_path / "ck.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CampaignError, match="header"):
            CheckpointStore(str(path)).load(longitudinal_config())

    @pytest.mark.parametrize("line", ["[]", "5", "null"])
    def test_non_object_middle_line_is_refused(self, tmp_path, line):
        config = longitudinal_config()
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.start(config, 2)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n" + line + "\n")
        with pytest.raises(CampaignError, match=":2:"):
            store.load(config)

    @pytest.mark.parametrize("line", ["[]", "5", "null"])
    def test_non_object_trailing_line_is_a_torn_write(self, tmp_path, line):
        config = longitudinal_config()
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.start(config, 2)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert store.load(config) == ([], "")


# -- flat memory (cache-eviction contract) ----------------------------------


@pytest.mark.longitudinal
class TestFlatMemoryContract:
    def test_engine_releases_finished_rounds(self):
        engine = CampaignEngine(
            build_scenario(longitudinal_config(rounds=6)))
        engine.run(include_doh=False)
        scenario = engine.scenario
        # Only the final round's caches may remain resident.
        assert set(scenario._networks) <= {5}
        assert set(scenario._layouts) <= {5}
        assert set(scenario._pristine_networks) <= {5}

    def test_release_is_pure_cache_eviction(self):
        scenario = build_scenario(longitudinal_config())
        before = tuple(scenario.round_layout(0).addresses)
        released = scenario.release_rounds_before(4)
        assert released > 0
        assert tuple(scenario.round_layout(0).addresses) == before

    def test_store_checkpoint_roundtrip(self, tmp_path):
        config = longitudinal_config()
        campaign = ScanCampaign(build_scenario(config)).run(
            rounds=2, include_doh=False)
        fragments = [RoundFragment.from_round(r) for r in campaign.rounds]
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.start(config, 2)
        digest = ""
        for fragment in fragments:
            digest = chain_digest(digest, fragment.to_wire())
            store.append(fragment, digest)
        loaded, loaded_digest = store.load(config)
        assert loaded == fragments
        assert loaded_digest == digest
