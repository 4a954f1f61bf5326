"""Differential pin for the four-protocol pipeline (ISSUE 9).

The contract: the four-protocol performance/reachability tables — DoQ
and DNSCrypt alongside Do53/DoT/DoH — are a pure function of the
scenario seed. World materialisation (eager vs lazy) and execution plan
(serial, workers 1 or 4 over the same shard plan) must never change a
byte of the rendered tables or a field of a single timing series.

``scripts/check.sh`` runs this module twice under different
``PYTHONHASHSEED`` values (like the chaos/parallel/procedural suites)
to prove none of it leans on hash ordering.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis import tables
from repro.core.client.fourproto import (
    FOURPROTO_PROTOCOLS,
    FourProtoStudy,
    fourproto_targets,
)
from repro.core.client.reachability import platform_points
from repro.core.parallel import ParallelConfig
from repro.core.scan.dnscrypt_scan import DnscryptScanner
from repro.core.scan.doh_scan import DohDiscovery
from repro.core.scan.doq_scan import DoqScanner
from repro.doe.dnscrypt import (
    DNSCRYPT_PORT,
    CERT_QUERY_PREFIX,
    DnsCryptClient,
    ProviderKey,
    seal,
    unseal,
)
from repro.doe.doq import DOQ_PORT, DoqClient
from repro.dnswire.builder import make_query
from repro.dnswire.names import DnsName
from repro.doe.result import FailureKind
from repro.dnswire.rdtypes import RRType
from repro.errors import WireFormatError
from repro.netsim.network import ClientEnvironment
from repro.netsim.rand import SeededRng
from repro.netsim.transport import UdpExchange
from repro.world.scenario import (
    SELF_BUILT_HOSTNAME,
    SELF_BUILT_IP,
    ScenarioConfig,
    build_scenario,
    dnscrypt_provider_key,
)
from tests.conftest import tiny_config

pytestmark = pytest.mark.fourproto

SEED = 977
SHARDS = 4
#: Down-sample the vantage population — enough endpoints to fill every
#: table cell, small enough to run five full batteries in the suite.
SAMPLE = 0.4


def fourproto_config(world_mode: str = "eager") -> ScenarioConfig:
    config = tiny_config(SEED)
    config.world_mode = world_mode
    return config


# -- golden artefacts ---------------------------------------------------------

#: name -> (world_mode, workers); workers None = the serial path.
_RUNS: Dict[str, Tuple[str, int]] = {
    "eager-serial": ("eager", None),
    "lazy-serial": ("lazy", None),
    "eager-w1": ("eager", 1),
    "lazy-w1": ("lazy", 1),
    "lazy-w4": ("lazy", 4),
}

_SNAPSHOTS: Dict[str, tuple] = {}


def snapshot(name: str) -> tuple:
    """Tables + every timing field + the fallback tally of one run."""
    if name in _SNAPSHOTS:
        return _SNAPSHOTS[name]
    world_mode, workers = _RUNS[name]
    telemetry.reset_registry()
    try:
        scenario = build_scenario(fourproto_config(world_mode))
        study = FourProtoStudy(scenario)
        if workers is None:
            report = study.run(
                platform_points(scenario, "proxyrack", SAMPLE))
        else:
            report = study.run_sharded(
                ParallelConfig(workers=workers, shards=SHARDS),
                platform="proxyrack", sample=SAMPLE)
        _SNAPSHOTS[name] = (
            tables.fourproto_table_text(report).encode(),
            tables.handshake_table_text(report).encode(),
            tuple(map(repr, report.timings)),
            report.fallbacks,
        )
    finally:
        telemetry.reset_registry()
    return _SNAPSHOTS[name]


class TestGoldenFourProto:
    def test_serial_tables_identical_across_eager_and_lazy(self):
        assert snapshot("eager-serial") == snapshot("lazy-serial")

    @pytest.mark.parametrize("name", ["lazy-w1", "lazy-w4"])
    def test_sharded_tables_identical_across_modes_and_workers(self, name):
        assert snapshot(name) == snapshot("eager-w1")

    def test_all_five_protocols_measured(self):
        timings = snapshot("eager-serial")[2]
        for protocol in FOURPROTO_PROTOCOLS:
            assert any(f"protocol='{protocol}'" in timing
                       for timing in timings), protocol

    def test_tables_carry_doq_and_dnscrypt_cells(self):
        table = snapshot("eager-serial")[0].decode()
        assert "doq" in table and "dnscrypt" in table
        quad9_doq = [line for line in table.splitlines()
                     if line.startswith("Quad9") and " doq " in line]
        assert quad9_doq and "n/a" not in quad9_doq[0]

    def test_handshake_breakdown_shows_cheap_resumption(self):
        """0-RTT reconnects skip the handshake exchange entirely, so the
        resumption penalty must be far below the cold 1-RTT cost."""
        handshake = snapshot("eager-serial")[1].decode()
        for line in handshake.splitlines():
            if not line.startswith(("Cloudflare", "Quad9", "Self-built")):
                continue
            fields = line.split()
            one_rtt, zero_rtt = float(fields[-3]), float(fields[-2])
            assert zero_rtt < one_rtt / 2.0, line


# -- fixtures for the property tests ------------------------------------------

@pytest.fixture(scope="module")
def fp_scenario():
    return build_scenario(fourproto_config())


@pytest.fixture(scope="module")
def fp_network(fp_scenario):
    return fp_scenario.client_network()


def _client_env(label: str, index: int) -> ClientEnvironment:
    return ClientEnvironment.in_country(
        f"{label}-{index}", f"203.0.113.{index % 200 + 1}", "US",
        SeededRng(4000 + index).fork(label))


# -- DoQ 0-RTT properties ------------------------------------------------------

class TestDoqZeroRtt:
    @settings(max_examples=12, deadline=None)
    @given(index=st.integers(0, 60),
           resolver=st.sampled_from(["1.1.1.1", "9.9.9.9", SELF_BUILT_IP]))
    def test_second_contact_resumes_at_zero_rtt(self, fp_scenario,
                                                fp_network, index,
                                                resolver):
        """First contact pays the 1-RTT handshake; any reconnect to a
        known resolver resumes with *no* handshake exchange at all."""
        env = _client_env("zrtt", index)
        client = DoqClient(fp_network, SeededRng(index).fork("doq"),
                           fp_scenario.trust_store)
        query = make_query(fp_scenario.probe_name(f"zrtt{index}"),
                           RRType.A, msg_id=index + 1)
        cold = client.query(env, resolver, query, reuse=True)
        assert cold.ok, cold.error
        assert not cold.reused_connection
        # Reconnect: the session is gone, the ticket is not.
        client.close_all()
        assert client._handshake(env, resolver, DOQ_PORT, 5.0) == 0.0
        warm = client.query(env, resolver, query, reuse=True)
        assert warm.ok, warm.error

    def test_fresh_client_always_pays_the_handshake(self, fp_scenario,
                                                    fp_network):
        env = _client_env("cold", 7)
        client = DoqClient(fp_network, SeededRng(7).fork("doq"),
                           fp_scenario.trust_store)
        assert client._handshake(env, "9.9.9.9", DOQ_PORT, 5.0) > 0.0


# -- DNSCrypt bootstrap properties ---------------------------------------------

provider_names = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789.-"),
    min_size=1, max_size=24)
key_texts = st.text(
    alphabet=st.sampled_from("ABCDEFabcdef0123456789"),
    min_size=1, max_size=32)


class TestDnscryptBootstrap:
    @given(name=provider_names, key=key_texts,
           wire=st.binary(min_size=0, max_size=128))
    def test_seal_unseal_round_trip(self, name, key, wire):
        provider = ProviderKey(name, key)
        assert unseal(provider, seal(provider, wire)) == wire

    @given(name=provider_names, key=key_texts, other=key_texts,
           wire=st.binary(min_size=1, max_size=64))
    def test_wrong_key_is_rejected(self, name, key, other, wire):
        if key == other:
            return
        sealed = seal(ProviderKey(name, key), wire)
        with pytest.raises(WireFormatError):
            unseal(ProviderKey(name, other), sealed)

    @pytest.mark.parametrize("payload", [
        b"DNSC",                        # no key-length octet
        b"DNSC\x02\xff\xfe",            # key is not UTF-8
        b"DNSC\x09key",                 # declared key runs past the end
    ])
    def test_malformed_envelope_is_a_wire_format_error(self, payload):
        with pytest.raises(WireFormatError):
            unseal(ProviderKey("p", "key"), payload)

    def test_client_reports_a_malformed_response(self, monkeypatch):
        """A bad envelope from the server fails the query, never the
        client."""
        monkeypatch.setattr(
            UdpExchange, "exchange",
            staticmethod(lambda *args, **kwargs: (b"DNSC\x02\xff\xfe", 1.0)))
        client = DnsCryptClient(None, SeededRng(1))
        result = client.query(None, SELF_BUILT_IP, ProviderKey("p", "key"),
                              make_query(DnsName.from_text("example.com")))
        assert not result.ok
        assert result.failure == FailureKind.PROTOCOL

    @given(name=provider_names, key=key_texts)
    def test_certificate_txt_round_trip(self, name, key):
        provider = ProviderKey(name, key)
        assert ProviderKey.from_txt(provider.to_txt()) == provider

    @given(cn=provider_names)
    def test_provider_key_derivation_is_pure(self, cn):
        """Layout-time key placement must never consume randomness."""
        first = dnscrypt_provider_key(cn)
        assert first == dnscrypt_provider_key(cn)
        assert first.provider_name == f"{CERT_QUERY_PREFIX}.{cn}"

    @settings(max_examples=8, deadline=None)
    @given(index=st.integers(0, 40))
    def test_bootstrap_fetches_the_placed_key(self, fp_scenario,
                                              fp_network, index):
        """The TXT bootstrap returns exactly the key the layout derived
        for the self-built resolver, and it unlocks real service."""
        env = _client_env("dcboot", index)
        client = DnsCryptClient(fp_network, SeededRng(index).fork("dc"))
        fetched = client.fetch_certificate(env, SELF_BUILT_IP)
        assert isinstance(fetched, tuple), getattr(fetched, "error", "")
        key, elapsed = fetched
        assert key == dnscrypt_provider_key(SELF_BUILT_HOSTNAME)
        assert elapsed > 0.0
        query = make_query(fp_scenario.probe_name(f"dc{index}"),
                           RRType.A, msg_id=index + 1)
        result = client.query(env, SELF_BUILT_IP, key, query)
        assert result.ok, result.error
        assert fp_scenario.expected_probe_answer()[0] in \
            result.addresses()


# -- scanners (tentpole: discovery legs) ---------------------------------------

class TestProtocolScanners:
    def test_doq_sweep_finds_exactly_the_placed_services(self, fp_scenario,
                                                         fp_network):
        scanner = DoqScanner(
            fp_network, SeededRng(SEED).fork("doq-scan"),
            fp_scenario.trust_store, fp_scenario.probe_origin,
            fp_scenario.expected_probe_answer())
        records, stats = scanner.discover()
        assert {record.address for record in records} == \
            fp_scenario.doq_addresses()
        assert stats.doq_resolvers == stats.swept == len(records)
        assert all(record.is_doq and record.answer_correct
                   for record in records)

    def test_dnscrypt_sweep_bootstraps_every_placed_service(
            self, fp_scenario, fp_network):
        scanner = DnscryptScanner(
            fp_network, SeededRng(SEED).fork("dnscrypt-scan"),
            fp_scenario.probe_origin,
            fp_scenario.expected_probe_answer())
        records, stats = scanner.discover()
        assert {record.address for record in records} == \
            fp_scenario.dnscrypt_addresses()
        assert stats.dnscrypt_resolvers == len(records)
        assert all(record.is_dnscrypt and record.provider_name.startswith(
            CERT_QUERY_PREFIX) for record in records)

    def test_doq_udp_sweep_is_disjoint_from_dot_tcp(self, fp_scenario,
                                                    fp_network):
        """Port 784 is UDP-only: the TCP view must not leak DoQ hosts."""
        assert not any(True for _ in fp_network.open_tcp_addresses(
            DOQ_PORT, 0, None))
        assert fp_scenario.doq_addresses()


# -- E-DoH probe efficiency (satellite 4) --------------------------------------

def _doh_discovery(scenario):
    return DohDiscovery(
        scenario.client_network(),
        scenario.rng.fork("campaign").fork("doh"),
        scenario.trust_store, scenario.bootstrap, scenario.probe_origin,
        scenario.expected_probe_answer(),
        public_list=scenario.public_doh_list(),
        retry_policy=scenario.retry_policy(op="doh.probe"))


class TestEdohEfficiency:
    @pytest.fixture(scope="class")
    def both_modes(self):
        """Naive and E-DoH runs over identical corpora, isolated
        scenario instances (probing fewer URLs shifts rng streams)."""
        naive_scenario = build_scenario(fourproto_config())
        efficient_scenario = build_scenario(fourproto_config())
        naive = _doh_discovery(naive_scenario)
        efficient = _doh_discovery(efficient_scenario)
        naive_records = naive.discover(naive_scenario.url_dataset())
        efficient_records, stats = efficient.discover_efficient(
            efficient_scenario.url_dataset())
        return naive_records, efficient_records, stats

    def test_confirmed_endpoint_sets_identical(self, both_modes):
        naive_records, efficient_records, _ = both_modes
        naive_hosts = {record.hostname for record in naive_records
                       if record.is_doh}
        efficient_hosts = {record.hostname for record in efficient_records
                           if record.is_doh}
        assert naive_hosts and efficient_hosts == naive_hosts

    def test_strictly_fewer_probes_than_naive(self, both_modes):
        naive_records, _, stats = both_modes
        assert stats.probed < len(naive_records)
        assert stats.candidates == len(naive_records)
        assert stats.skipped_unresolvable + stats.skipped_early_abort > 0

    def test_probes_per_confirmed_beats_naive(self, both_modes):
        naive_records, _, stats = both_modes
        confirmed = sum(1 for record in naive_records if record.is_doh)
        assert stats.confirmed == confirmed > 0
        assert stats.probes_per_confirmed < len(naive_records) / confirmed

    def test_accounting_adds_up(self, both_modes):
        _, efficient_records, stats = both_modes
        assert stats.probed == len(efficient_records)
        assert (stats.probed + stats.skipped_unresolvable
                + stats.skipped_early_abort) == stats.candidates


# -- target plumbing -----------------------------------------------------------

class TestFourProtoTargets:
    def test_targets_follow_provider_placement(self, fp_scenario):
        targets = {spec.name: spec for spec in
                   fourproto_targets(fp_scenario)}
        assert targets["Cloudflare"].doq_ip == "1.1.1.1"
        assert targets["Cloudflare"].dnscrypt_ip is None
        assert targets["Google"].doq_ip is None
        assert targets["Quad9"].doq_ip == "9.9.9.9"
        assert targets["Quad9"].dnscrypt_ip == "9.9.9.9"
        assert targets["Self-built"].doq_ip == SELF_BUILT_IP
        assert targets["Self-built"].dnscrypt_ip == SELF_BUILT_IP
        for spec in targets.values():
            if spec.doq_ip is not None:
                assert spec.doq_ip in fp_scenario.doq_addresses()
            if spec.dnscrypt_ip is not None:
                assert spec.dnscrypt_ip in \
                    fp_scenario.dnscrypt_addresses()

    def test_dnscrypt_port_is_udp_443(self):
        assert DNSCRYPT_PORT == 443
        assert DOQ_PORT == 784
