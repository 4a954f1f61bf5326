"""Authoritative zone data: a name-indexed record store with lookups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import Rcode, RRType
from repro.dnswire.records import ResourceRecord
from repro.errors import ScenarioError


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a zone lookup.

    ``rcode`` is NOERROR or NXDOMAIN; ``records`` holds the answer chain
    (CNAMEs included, in resolution order).
    """

    rcode: int
    records: Tuple[ResourceRecord, ...]

    @property
    def is_empty(self) -> bool:
        return not self.records


_NO_RRSETS: Dict[int, List[ResourceRecord]] = {}


class Zone:
    """One authoritative zone rooted at ``origin``.

    Supports exact-name lookups, CNAME chains within the zone, and
    wildcard owner names (a leftmost ``*`` label), which the measurement
    platform uses for its uniquely-prefixed probe domains.

    Records are indexed by owner name, and every proper ancestor of an
    owner name (empty non-terminals included) is kept in a set, both
    keyed by the name's folded labels, so a lookup costs O(labels)
    whatever the zone's size and building a zone of *n* names costs O(n).
    """

    def __init__(self, origin: DnsName, soa: Optional[ResourceRecord] = None):
        self.origin = origin
        #: Owner name's folded labels -> rrtype -> rrset.
        self._owners: Dict[Tuple[bytes, ...],
                           Dict[int, List[ResourceRecord]]] = {}
        #: Folded labels of every proper ancestor of an owner name. Closed
        #: upwards: an ancestor's own ancestors are always present too.
        self._ancestors: Set[Tuple[bytes, ...]] = set()
        self.soa = soa
        if soa is not None:
            self.add(soa)

    def add(self, record: ResourceRecord) -> None:
        if not record.name.is_subdomain_of(self.origin) and not self._is_wildcard(record.name):
            raise ScenarioError(
                f"record {record.name.to_text()} outside zone "
                f"{self.origin.to_text()}")
        folded = record.name.folded_labels
        rrsets = self._owners.get(folded)
        if rrsets is None:
            rrsets = self._owners[folded] = {}
            for start in range(1, len(folded) + 1):
                if folded[start:] in self._ancestors:
                    break
                self._ancestors.add(folded[start:])
        rrsets.setdefault(record.rrtype, []).append(record)

    def add_all(self, records: Iterable[ResourceRecord]) -> None:
        for record in records:
            self.add(record)

    def contains_name(self, name: DnsName) -> bool:
        return name.folded_labels in self._owners

    def record_count(self) -> int:
        return sum(len(rrset) for rrsets in self._owners.values()
                   for rrset in rrsets.values())

    def lookup(self, name: DnsName, rrtype: int,
               max_cname_depth: int = 8) -> LookupResult:
        """Resolve ``name``/``rrtype`` inside this zone."""
        if not name.is_subdomain_of(self.origin):
            return LookupResult(Rcode.NXDOMAIN, ())
        chain: List[ResourceRecord] = []
        current = name
        for _ in range(max_cname_depth):
            rrsets = self._owners.get(current.folded_labels, _NO_RRSETS)
            exact = rrsets.get(rrtype)
            if exact:
                return LookupResult(Rcode.NOERROR, tuple(chain) + tuple(exact))
            cname = rrsets.get(RRType.CNAME)
            if cname:
                chain.append(cname[0])
                current = cname[0].rdata.target  # type: ignore[attr-defined]
                if not current.is_subdomain_of(self.origin):
                    # Out-of-zone target: return the partial chain.
                    return LookupResult(Rcode.NOERROR, tuple(chain))
                continue
            wildcard = self._wildcard_match(current, rrtype)
            if wildcard is not None:
                synthesized = tuple(
                    ResourceRecord(current, record.rrtype, record.rrclass,
                                   record.ttl, record.rdata)
                    for record in wildcard
                )
                return LookupResult(Rcode.NOERROR,
                                    tuple(chain) + synthesized)
            if self.contains_name(current) or self._has_descendants(current):
                # Name exists (or is an empty non-terminal) without that type.
                return LookupResult(Rcode.NOERROR, tuple(chain))
            return LookupResult(Rcode.NXDOMAIN, tuple(chain))
        return LookupResult(Rcode.SERVFAIL, tuple(chain))

    def _wildcard_match(self, name: DnsName,
                        rrtype: int) -> Optional[List[ResourceRecord]]:
        # Probe ``*.<ancestor>`` for each ancestor of ``name`` (an in-zone
        # name) from its parent up to the origin, nearest first.
        folded = name.folded_labels
        for start in range(len(folded) - len(self.origin.folded_labels)):
            wildcard = (b"*",) + folded[start + 1:]
            match = self._owners.get(wildcard, _NO_RRSETS).get(rrtype)
            if match:
                return match
        return None

    def _has_descendants(self, name: DnsName) -> bool:
        return name.folded_labels in self._ancestors

    @staticmethod
    def _is_wildcard(name: DnsName) -> bool:
        return bool(name.labels) and name.labels[0] == b"*"
