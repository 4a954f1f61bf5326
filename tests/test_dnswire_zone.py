"""Tests for authoritative zones and the builder helpers."""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnswire import DnsName, Rcode, ResourceRecord, RRType, make_query
from repro.dnswire.builder import (
    nxdomain,
    rewrite_answers,
    servfail,
    unique_probe_name,
)
from repro.dnswire.builder import make_response
from repro.dnswire.zone import LookupResult, Zone
from repro.errors import ScenarioError

ORIGIN = DnsName.from_text("probe.example.")


@pytest.fixture()
def zone() -> Zone:
    zone = Zone(ORIGIN, ResourceRecord.soa(
        ORIGIN, ORIGIN.child("ns1"), ORIGIN.child("hostmaster"), serial=1))
    zone.add(ResourceRecord.a(ORIGIN.child("www"), "192.0.2.10"))
    zone.add(ResourceRecord.a(ORIGIN.child("*"), "192.0.2.53"))
    zone.add(ResourceRecord.cname(ORIGIN.child("alias"),
                                  ORIGIN.child("www")))
    return zone


class TestZoneLookups:
    def test_exact_match(self, zone):
        result = zone.lookup(ORIGIN.child("www"), RRType.A)
        assert result.rcode == Rcode.NOERROR
        assert result.records[0].rdata.address == "192.0.2.10"

    def test_wildcard_synthesis(self, zone):
        result = zone.lookup(ORIGIN.child("xyz123"), RRType.A)
        assert result.rcode == Rcode.NOERROR
        assert result.records[0].name == ORIGIN.child("xyz123")
        assert result.records[0].rdata.address == "192.0.2.53"

    def test_exact_match_beats_wildcard(self, zone):
        result = zone.lookup(ORIGIN.child("www"), RRType.A)
        assert result.records[0].rdata.address == "192.0.2.10"

    def test_cname_chain_followed(self, zone):
        result = zone.lookup(ORIGIN.child("alias"), RRType.A)
        assert result.rcode == Rcode.NOERROR
        assert result.records[0].rrtype == RRType.CNAME
        assert result.records[-1].rdata.address == "192.0.2.10"

    def test_out_of_zone_name_is_nxdomain(self, zone):
        result = zone.lookup(DnsName.from_text("other.example."), RRType.A)
        assert result.rcode == Rcode.NXDOMAIN

    def test_existing_name_with_missing_type_is_noerror_empty(self, zone):
        result = zone.lookup(ORIGIN.child("www"), RRType.AAAA)
        # Wildcard doesn't cover AAAA; name exists so NOERROR/NODATA...
        # except the wildcard matches any label. Query the apex instead.
        result = zone.lookup(ORIGIN, RRType.TXT)
        assert result.rcode == Rcode.NOERROR
        assert result.is_empty

    def test_cname_loop_servfails(self):
        zone = Zone(ORIGIN)
        zone.add(ResourceRecord.cname(ORIGIN.child("a"), ORIGIN.child("b")))
        zone.add(ResourceRecord.cname(ORIGIN.child("b"), ORIGIN.child("a")))
        result = zone.lookup(ORIGIN.child("a"), RRType.A)
        assert result.rcode == Rcode.SERVFAIL

    def test_cname_to_external_target_returns_partial_chain(self):
        zone = Zone(ORIGIN)
        external = DnsName.from_text("elsewhere.example.com.")
        zone.add(ResourceRecord.cname(ORIGIN.child("ext"), external))
        result = zone.lookup(ORIGIN.child("ext"), RRType.A)
        assert result.rcode == Rcode.NOERROR
        assert result.records[-1].rdata.target == external

    def test_out_of_zone_record_rejected(self, zone):
        with pytest.raises(ScenarioError):
            zone.add(ResourceRecord.a(DnsName.from_text("evil.example."),
                                      "192.0.2.1"))

    def test_record_count(self, zone):
        assert zone.record_count() == 4  # SOA + www + wildcard + alias


class ScanZone:
    """Brute-force reference: every question answered by scanning records.

    These are the zone's original definitions, before it indexed owner
    names; the indexed :class:`Zone` must agree with them exactly.
    """

    def __init__(self, origin: DnsName):
        self.origin = origin
        self.records: List[ResourceRecord] = []

    def rrset(self, name: DnsName, rrtype: int) -> List[ResourceRecord]:
        return [record for record in self.records
                if record.name == name and record.rrtype == rrtype]

    def contains_name(self, name: DnsName) -> bool:
        return any(record.name == name for record in self.records)

    def has_descendants(self, name: DnsName) -> bool:
        return any(record.name != name and record.name.is_subdomain_of(name)
                   for record in self.records)

    def wildcard_match(self, name: DnsName, rrtype: int):
        candidate = name
        while not candidate.is_root() and candidate != self.origin:
            match = self.rrset(candidate.parent().child("*"), rrtype)
            if match:
                return match
            candidate = candidate.parent()
        return None

    def lookup(self, name: DnsName, rrtype: int,
               max_cname_depth: int = 8) -> LookupResult:
        if not name.is_subdomain_of(self.origin):
            return LookupResult(Rcode.NXDOMAIN, ())
        chain: List[ResourceRecord] = []
        current = name
        for _ in range(max_cname_depth):
            exact = self.rrset(current, rrtype)
            if exact:
                return LookupResult(Rcode.NOERROR, tuple(chain) + tuple(exact))
            cname = self.rrset(current, RRType.CNAME)
            if cname:
                chain.append(cname[0])
                current = cname[0].rdata.target
                if not current.is_subdomain_of(self.origin):
                    return LookupResult(Rcode.NOERROR, tuple(chain))
                continue
            wildcard = self.wildcard_match(current, rrtype)
            if wildcard is not None:
                return LookupResult(Rcode.NOERROR, tuple(chain) + tuple(
                    ResourceRecord(current, record.rrtype, record.rrclass,
                                   record.ttl, record.rdata)
                    for record in wildcard))
            if self.contains_name(current) or self.has_descendants(current):
                return LookupResult(Rcode.NOERROR, tuple(chain))
            return LookupResult(Rcode.NXDOMAIN, tuple(chain))
        return LookupResult(Rcode.SERVFAIL, tuple(chain))


def _in_zone(labels: List[str]) -> DnsName:
    return DnsName(tuple(label.encode() for label in labels) + ORIGIN.labels)


# Few distinct labels in mixed case, so owners collide case-insensitively,
# and paths up to five deep, so empty non-terminals are common.
_relative = st.lists(st.sampled_from(["a", "A", "b", "B", "Www", "www"]),
                     max_size=5)
_in_zone_names = _relative.map(_in_zone)
_wildcards = _relative.map(lambda labels: _in_zone(["*"] + labels))
_outside = st.sampled_from(["example.", "other.example.", "A.Other.Example.",
                            "."]).map(DnsName.from_text)
# ``Zone.add`` accepts wildcard owners outside the origin.
_outside_wildcards = st.sampled_from(
    ["*.other.example.", "*.B.probe.EXAMPLE.org."]).map(DnsName.from_text)
_owners = st.one_of(_in_zone_names, _wildcards, _outside_wildcards)
_records = st.one_of(
    st.builds(lambda name, octet: ResourceRecord.a(name, f"192.0.2.{octet}"),
              _owners, st.integers(0, 3)),
    st.builds(lambda name, text: ResourceRecord.txt(name, text),
              _owners, st.sampled_from(["x", "y"])),
    # In-zone targets build chains and loops; outside ones end a chain.
    st.builds(ResourceRecord.cname, _owners,
              st.one_of(_in_zone_names, _wildcards, _outside)),
)
_questions = st.tuples(
    st.one_of(_in_zone_names, _wildcards, _outside, _outside_wildcards),
    st.sampled_from([RRType.A, RRType.TXT, RRType.CNAME, RRType.AAAA]),
    st.integers(1, 8))


def _exact(result: LookupResult):
    """The result with owner names compared case-sensitively."""
    return result.rcode, tuple((record.name.labels, record)
                               for record in result.records)


class TestIndexMatchesScanReference:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(_records, max_size=24),
           questions=st.lists(_questions, min_size=1, max_size=12))
    def test_index_answers_like_a_record_scan(self, records, questions):
        zone, reference = Zone(ORIGIN), ScanZone(ORIGIN)
        for record in records:
            zone.add(record)
            reference.records.append(record)
        assert zone.record_count() == len(records)
        for name, rrtype, depth in questions:
            assert zone.contains_name(name) == reference.contains_name(name)
            assert (zone._has_descendants(name)
                    == reference.has_descendants(name))
            assert (_exact(zone.lookup(name, rrtype, depth))
                    == _exact(reference.lookup(name, rrtype, depth)))


class TestBuilderHelpers:
    def test_unique_probe_name_lowercases(self):
        name = unique_probe_name(ORIGIN, "ABC123")
        assert name.labels[0] == b"abc123"

    def test_servfail_mirrors_query(self):
        query = make_query(ORIGIN.child("x"), msg_id=9)
        response = servfail(query)
        assert response.rcode() == Rcode.SERVFAIL
        assert response.header.msg_id == 9
        assert not response.answers

    def test_nxdomain_carries_authorities(self):
        query = make_query(ORIGIN.child("x"))
        soa = ResourceRecord.soa(ORIGIN, ORIGIN.child("ns1"),
                                 ORIGIN.child("h"), serial=1)
        response = nxdomain(query, authorities=[soa])
        assert response.rcode() == Rcode.NXDOMAIN
        assert response.authorities == (soa,)

    def test_rewrite_answers_replaces_every_a(self):
        query = make_query(ORIGIN.child("x"))
        response = make_response(query, answers=[
            ResourceRecord.a(ORIGIN.child("x"), "192.0.2.1"),
            ResourceRecord.a(ORIGIN.child("x"), "192.0.2.2"),
        ])
        rewritten = rewrite_answers(response, "198.51.100.7")
        assert rewritten.answer_addresses() == ("198.51.100.7",
                                                "198.51.100.7")

    def test_rewrite_preserves_non_a_records(self):
        query = make_query(ORIGIN.child("x"), RRType.TXT)
        response = make_response(query, answers=[
            ResourceRecord.txt(ORIGIN.child("x"), "keep me")])
        rewritten = rewrite_answers(response, "198.51.100.7")
        assert rewritten.answers[0].rdata.strings == (b"keep me",)
