"""The authoritative DNS universe of the simulated Internet.

Holds every zone that exists in the world — popular public domains, the
measurement platform's own probe domain, and DoH resolver bootstrap
names — and answers recursive resolvers' upstream lookups with a
distance-flavoured latency cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import Rcode, RRType
from repro.dnswire.records import ResourceRecord
from repro.dnswire.zone import Zone
from repro.errors import ScenarioError


@dataclass
class AuthoritativeLog:
    """Query log of one zone's nameservers.

    The paper verifies reachability/interception "from our authoritative
    server"; this log is what that verification reads.
    """

    entries: List[Tuple[float, DnsName, str]] = field(default_factory=list)

    def record(self, timestamp: float, qname: DnsName,
               via_resolver: str) -> None:
        self.entries.append((timestamp, qname, via_resolver))

    def queries_for(self, qname: DnsName) -> List[Tuple[float, str]]:
        return [(ts, via) for ts, name, via in self.entries if name == qname]

    def __len__(self) -> int:
        return len(self.entries)


class DnsUniverse:
    """All authoritative data plus upstream-latency modelling."""

    def __init__(self, upstream_base_ms: float = 22.0,
                 upstream_sigma: float = 0.5):
        self._zones: Dict[DnsName, Zone] = {}
        self._logs: Dict[DnsName, AuthoritativeLog] = {}
        #: Parameters of the log-normal upstream-resolution cost a
        #: recursive resolver pays on a cache miss.
        self.upstream_base_ms = upstream_base_ms
        self.upstream_sigma = upstream_sigma

    # -- zone management ------------------------------------------------------

    def add_zone(self, zone: Zone, logged: bool = False) -> Zone:
        if zone.origin in self._zones:
            raise ScenarioError(
                f"zone {zone.origin.to_text()} already registered")
        self._zones[zone.origin] = zone
        if logged:
            self._logs[zone.origin] = AuthoritativeLog()
        return zone

    def zone_for(self, qname: DnsName) -> Optional[Zone]:
        """Longest-suffix zone match (the delegation walk, flattened)."""
        candidate = qname
        while True:
            zone = self._zones.get(candidate)
            if zone is not None:
                return zone
            if candidate.is_root():
                return None
            candidate = candidate.parent()

    def release_logs(self) -> int:
        """Drop every accumulated authoritative query-log entry.

        The logs exist so interception studies can check "did this
        query reach our server" *within* one study; no rendered
        artefact reads them across rounds. A longitudinal campaign
        would otherwise grow them by every probe of every round, so
        the per-round cache release empties them. Returns the number
        of entries dropped.
        """
        released = 0
        for log in self._logs.values():
            released += len(log.entries)
            log.entries.clear()
        return released

    def log_for(self, origin: DnsName) -> AuthoritativeLog:
        log = self._logs.get(origin)
        if log is None:
            raise ScenarioError(
                f"zone {origin.to_text()} has no authoritative log")
        return log

    # -- convenience builders ---------------------------------------------------

    def host_a(self, hostname: str, *addresses: str, ttl: int = 300) -> None:
        """Register A records, creating the SLD zone when needed.

        Idempotent: an (name, address) pair already present is skipped,
        so scenario worlds rebuilt from a cached scenario (the persistent
        worker pool rebuilds networks per round) never accumulate
        duplicate records — the universe state stays a function of the
        config, not of how many builds this process has done. The check
        is one zone lookup, which the zone's owner-name index answers in
        O(labels), so an insert costs O(labels) and registering *n* names
        costs O(n) whatever the zone's size.
        """
        name = DnsName.from_text(hostname)
        sld = name.second_level_domain()
        zone = self._zones.get(sld)
        if zone is None:
            zone = Zone(sld, ResourceRecord.soa(
                sld, sld.child("ns1"), sld.child("hostmaster"), serial=1))
            self._zones[sld] = zone
        existing = {record.rdata.to_text()
                    for record in zone.lookup(name, RRType.A).records
                    if record.rrtype == RRType.A}
        for address in addresses:
            if address not in existing:
                zone.add(ResourceRecord.a(name, address, ttl))
                existing.add(address)

    def resolve_public(self, hostname: str) -> Tuple[str, ...]:
        """Ground-truth A lookup used for DoH bootstrap resolution."""
        name = DnsName.from_text(hostname)
        zone = self.zone_for(name)
        if zone is None:
            return ()
        result = zone.lookup(name, RRType.A)
        return tuple(record.rdata.to_text() for record in result.records
                     if record.rrtype == RRType.A)

    # -- recursive resolution --------------------------------------------------

    def authoritative_lookup(
            self, qname: DnsName, qtype: int, timestamp: float,
            via_resolver: str) -> Tuple[int, Tuple[ResourceRecord, ...]]:
        """One upstream lookup, recorded in the zone log when enabled."""
        zone = self.zone_for(qname)
        if zone is None:
            return Rcode.NXDOMAIN, ()
        log = self._logs.get(zone.origin)
        if log is not None:
            log.record(timestamp, qname, via_resolver)
        result = zone.lookup(qname, qtype)
        return result.rcode, result.records

    def upstream_latency_ms(self, rng) -> float:
        """Cost of walking the delegation chain on a cache miss."""
        return self.upstream_base_ms * rng.lognormal(0.0, self.upstream_sigma)

    def zone_count(self) -> int:
        return len(self._zones)
