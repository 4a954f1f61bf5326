"""The self-contained world a serving run executes in.

One resolver host exposing every frontend (Do53 UDP/TCP with RFC 7828
keepalive, DoT, DoH), an authoritative universe holding the workload's
name ranks, and a population of client environments spread over several
countries. Deliberately independent of the heavyweight measurement
scenario: the build is linear in ``names`` (tens of milliseconds for a
few thousand names, about two seconds for 65,536), so benchmarks can
rebuild one per protocol run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.httpsim.uri import UriTemplate
from repro.netsim.clock import SimClock, parse_date
from repro.netsim.geo import country
from repro.netsim.host import Host, TlsConfig
from repro.netsim.network import ClientEnvironment, Network
from repro.netsim.rand import SeededRng
from repro.resolvers import (
    DnsCache,
    DnsUniverse,
    RecursiveBackend,
    install_resolver_frontends,
)
from repro.tlssim.certs import CaStore, CertificateAuthority, make_chain

RESOLVER_IP = "9.9.9.10"
RESOLVER_NAME = "dns.serving.test"
DOH_TEMPLATE = f"https://{RESOLVER_NAME}/dns-query"
START_DATE = "2019-03-01"


@dataclass
class ServingWorldConfig:
    """Shape of the serving world, independent of the workload."""

    seed: int = 2019
    clients: int = 8
    names: int = 512
    #: Resolver cache capacity; size it below ``names`` to watch LRU
    #: pressure, above to watch pure TTL churn.
    cache_entries: int = 4096
    #: TTL of workload names — the knob driving cache churn under load.
    name_ttl_s: int = 120
    #: RFC 7828 window advertised on every stream frontend.
    keepalive_s: Optional[float] = 30.0
    countries: Tuple[str, ...] = ("US", "DE", "JP", "BR",
                                  "IN", "GB", "SG", "ZA")
    #: Bound on the materialised client-environment LRU; environments
    #: outside it are re-derived on touch (field-identical), so a
    #: 10^5+-client population costs memory proportional to this bound.
    client_lru_size: int = 4096


class ClientPopulation(Sequence):
    """The serving world's clients as a procedural stream.

    Indexing derives the environment on demand from its per-index rng
    fork — the same recipe the historical eager loop ran — and keeps a
    bounded LRU of recently-touched environments. Derivation is pure,
    so ``population[i]`` is field-for-field identical no matter when,
    how often, or in what order clients are touched.
    """

    def __init__(self, config: ServingWorldConfig, rng: SeededRng):
        self._config = config
        self._rng = rng
        self._cache: "OrderedDict[int, ClientEnvironment]" = OrderedDict()
        self._cache_size = max(1, config.client_lru_size)
        self.cache_peak = 0

    def __len__(self) -> int:
        return self._config.clients

    def _derive(self, index: int) -> ClientEnvironment:
        config = self._config
        code = config.countries[index % len(config.countries)]
        return ClientEnvironment.in_country(
            f"serve-client-{index:04d}",
            f"10.77.{index // 200}.{index % 200 + 1}",
            code, self._rng.fork(f"client-env/{index}"))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position]
                    for position in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"client index {index} out of range")
        env = self._cache.get(index)
        if env is not None:
            self._cache.move_to_end(index)
            return env
        env = self._derive(index)
        self._cache[index] = env
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        if len(self._cache) > self.cache_peak:
            self.cache_peak = len(self._cache)
        return env


@dataclass
class ServingWorld:
    """Everything a :class:`~repro.serving.engine.ServingEngine` needs."""

    config: ServingWorldConfig
    network: Network
    universe: DnsUniverse
    cache: DnsCache
    backend: RecursiveBackend
    ca_store: CaStore
    envs: Sequence[ClientEnvironment]
    resolver_ip: str = RESOLVER_IP
    doh_template: UriTemplate = field(
        default_factory=lambda: UriTemplate(DOH_TEMPLATE))

    @property
    def seed(self) -> int:
        return self.config.seed

    def bootstrap(self, hostname: str) -> Tuple[str, ...]:
        """DoH bootstrap resolution against the world's ground truth."""
        return self.universe.resolve_public(hostname)

    @classmethod
    def build(cls, config: Optional[ServingWorldConfig] = None,
              **overrides) -> "ServingWorld":
        config = config or ServingWorldConfig(**overrides)
        rng = SeededRng(config.seed, "serving/world")
        network = Network(clock=SimClock(parse_date(START_DATE)))
        universe = DnsUniverse()
        # The workload's name universe: rank i lives at a derived
        # address so answers are self-describing in tests.
        for index in range(config.names):
            universe.host_a(
                f"name-{index:05d}.workload.test",
                f"198.18.{index // 250}.{index % 250 + 1}",
                ttl=config.name_ttl_s)
        universe.host_a(RESOLVER_NAME, RESOLVER_IP)

        ca = CertificateAuthority.root("Serving Root CA")
        ca_store = CaStore()
        ca_store.trust(ca)
        chain = make_chain(ca, RESOLVER_NAME, "2018-06-01", "2020-06-01",
                           san=(RESOLVER_NAME,))
        cache = DnsCache(max_entries=config.cache_entries)
        backend = RecursiveBackend(universe, rng.fork("backend"),
                                   cache=cache,
                                   resolver_label="serving-resolver")
        entry = country("US")
        host = Host(address=RESOLVER_IP, country_code="US",
                    point=entry.point,
                    pops=(entry.point, country("DE").point,
                          country("SG").point, country("JP").point))
        install_resolver_frontends(
            host, backend, TlsConfig(cert_chain=chain),
            do53_keepalive_s=config.keepalive_s,
            webpage_html="<title>serving resolver</title>")
        dot = host.service_on("tcp", 853)
        if dot is not None:
            dot.keepalive_timeout_s = config.keepalive_s
        network.add_host(host)

        envs = ClientPopulation(config, rng)
        return cls(config=config, network=network, universe=universe,
                   cache=cache, backend=backend, ca_store=ca_store,
                   envs=envs)
