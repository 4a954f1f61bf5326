"""Resource records and their rdata encodings."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import RRClass, RRType
from repro.dnswire.wire import RR_FIXED, WireReader, WireWriter
from repro.errors import WireFormatError


class Rdata:
    """Base class for typed rdata. Subclasses register a type code."""

    rrtype: ClassVar[int] = 0

    def to_wire(self) -> bytes:
        """The rdata octets, encoded without outer-message compression.

        Rdata is frozen, so the wire form is memoised per instance in
        ``__dict__`` (set via ``object.__setattr__`` past the frozen
        guard, invisible to dataclass eq/repr/replace): zone records are
        shared by every response that carries them.
        """
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            writer = WireWriter(enable_compression=False)
            self.encode(writer)
            wire = writer.getvalue()
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    def encode(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class AData(Rdata):
    """IPv4 address rdata."""

    address: str
    rrtype: ClassVar[int] = RRType.A

    def encode(self, writer: WireWriter) -> None:
        parts = self.address.split(".")
        if len(parts) != 4:
            raise WireFormatError(f"bad IPv4 address {self.address!r}")
        try:
            octets = bytes(int(part) for part in parts)
        except ValueError as exc:
            raise WireFormatError(f"bad IPv4 address {self.address!r}") from exc
        writer.write_bytes(octets)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "AData":
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 octets, got {rdlength}")
        return cls("%d.%d.%d.%d" % tuple(reader.read_bytes(4)))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class AaaaData(Rdata):
    """IPv6 address rdata, stored in compressed text form."""

    address: str
    rrtype: ClassVar[int] = RRType.AAAA

    def encode(self, writer: WireWriter) -> None:
        writer.write_bytes(_ipv6_to_bytes(self.address))

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "AaaaData":
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 octets, got {rdlength}")
        return cls(_ipv6_from_bytes(reader.read_bytes(16)))

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class _SingleNameData(Rdata):
    """Shared implementation for rdata that is exactly one domain name."""

    target: DnsName

    def encode(self, writer: WireWriter) -> None:
        writer.write_name(self.target)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int):
        return cls(reader.read_name())

    def to_text(self) -> str:
        return self.target.to_text()


@dataclass(frozen=True)
class CnameData(_SingleNameData):
    rrtype: ClassVar[int] = RRType.CNAME


@dataclass(frozen=True)
class NsData(_SingleNameData):
    rrtype: ClassVar[int] = RRType.NS


@dataclass(frozen=True)
class PtrData(_SingleNameData):
    rrtype: ClassVar[int] = RRType.PTR


#: SOA serial, refresh, retry, expire and minimum, after the two names.
_SOA_FIXED = struct.Struct("!IIIII")


@dataclass(frozen=True)
class SoaData(Rdata):
    """Start-of-authority rdata."""

    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300
    rrtype: ClassVar[int] = RRType.SOA

    def encode(self, writer: WireWriter) -> None:
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.buf += _SOA_FIXED.pack(self.serial, self.refresh, self.retry,
                                      self.expire, self.minimum)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "SoaData":
        mname = reader.read_name()
        rname = reader.read_name()
        return cls(mname, rname, *reader.unpack(_SOA_FIXED))

    def to_text(self) -> str:
        return (f"{self.mname.to_text()} {self.rname.to_text()} "
                f"{self.serial} {self.refresh} {self.retry} "
                f"{self.expire} {self.minimum}")


@dataclass(frozen=True)
class TxtData(Rdata):
    """TXT rdata: one or more character strings."""

    strings: Tuple[bytes, ...]
    rrtype: ClassVar[int] = RRType.TXT

    @classmethod
    def from_text(cls, text: str) -> "TxtData":
        encoded = text.encode("utf-8")
        chunks = tuple(encoded[index:index + 255]
                       for index in range(0, max(len(encoded), 1), 255))
        return cls(chunks or (b"",))

    def encode(self, writer: WireWriter) -> None:
        for chunk in self.strings:
            if len(chunk) > 255:
                raise WireFormatError("TXT string exceeds 255 octets")
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "TxtData":
        end = reader.offset + rdlength
        strings = []
        while reader.offset < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        if reader.offset != end:
            raise WireFormatError("TXT rdata length mismatch")
        return cls(tuple(strings))

    def to_text(self) -> str:
        return " ".join(
            '"' + chunk.decode("utf-8", errors="replace") + '"'
            for chunk in self.strings
        )


@dataclass(frozen=True)
class MxData(Rdata):
    """Mail exchanger rdata."""

    preference: int
    exchange: DnsName
    rrtype: ClassVar[int] = RRType.MX

    def encode(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "MxData":
        preference = reader.read_u16()
        return cls(preference, reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"


@dataclass(frozen=True)
class OpaqueData(Rdata):
    """Uninterpreted rdata, used for record types we do not model."""

    rrtype_value: int
    data: bytes

    @property
    def rrtype(self) -> int:  # type: ignore[override]
        return self.rrtype_value

    def encode(self, writer: WireWriter) -> None:
        writer.write_bytes(self.data)

    def to_text(self) -> str:
        return "\\# " + str(len(self.data)) + " " + self.data.hex()


_RDATA_CLASSES = {
    RRType.A: AData,
    RRType.AAAA: AaaaData,
    RRType.CNAME: CnameData,
    RRType.NS: NsData,
    RRType.PTR: PtrData,
    RRType.SOA: SoaData,
    RRType.TXT: TxtData,
    RRType.MX: MxData,
}


def decode_rdata(rrtype: int, reader: WireReader, rdlength: int) -> Rdata:
    """Decode rdata of the given type, falling back to opaque bytes."""
    rdata_class = _RDATA_CLASSES.get(rrtype)
    if rdata_class is None:
        return OpaqueData(rrtype, reader.read_bytes(rdlength))
    start = reader.offset
    rdata = rdata_class.decode(reader, rdlength)
    consumed = reader.offset - start
    if consumed != rdlength:
        raise WireFormatError(
            f"rdata length mismatch for type {rrtype}: "
            f"declared {rdlength}, consumed {consumed}"
        )
    return rdata


@dataclass(frozen=True)
class ResourceRecord:
    """One resource record: owner name, type, class, TTL and typed rdata."""

    name: DnsName
    rrtype: int
    rrclass: int
    ttl: int
    rdata: Rdata

    @classmethod
    def a(cls, name: DnsName, address: str, ttl: int = 300) -> "ResourceRecord":
        return cls(name, RRType.A, RRClass.IN, ttl, AData(address))

    @classmethod
    def aaaa(cls, name: DnsName, address: str, ttl: int = 300) -> "ResourceRecord":
        return cls(name, RRType.AAAA, RRClass.IN, ttl, AaaaData(address))

    @classmethod
    def cname(cls, name: DnsName, target: DnsName, ttl: int = 300) -> "ResourceRecord":
        return cls(name, RRType.CNAME, RRClass.IN, ttl, CnameData(target))

    @classmethod
    def ns(cls, name: DnsName, target: DnsName, ttl: int = 3600) -> "ResourceRecord":
        return cls(name, RRType.NS, RRClass.IN, ttl, NsData(target))

    @classmethod
    def ptr(cls, name: DnsName, target: DnsName, ttl: int = 3600) -> "ResourceRecord":
        return cls(name, RRType.PTR, RRClass.IN, ttl, PtrData(target))

    @classmethod
    def soa(cls, name: DnsName, mname: DnsName, rname: DnsName,
            serial: int, ttl: int = 3600) -> "ResourceRecord":
        return cls(name, RRType.SOA, RRClass.IN, ttl,
                   SoaData(mname, rname, serial))

    @classmethod
    def txt(cls, name: DnsName, text: str, ttl: int = 300) -> "ResourceRecord":
        return cls(name, RRType.TXT, RRClass.IN, ttl, TxtData.from_text(text))

    def encode(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        # Rdata names are never compressed against the outer message, so
        # the rdata octets (and their length) do not depend on where the
        # record lands and come from the rdata's memoised wire form.
        payload = self.rdata.to_wire()
        writer.buf += RR_FIXED.pack(self.rrtype, self.rrclass, self.ttl,
                                    len(payload))
        writer.buf += payload

    @classmethod
    def decode(cls, reader: WireReader) -> "ResourceRecord":
        name = reader.read_name()
        rrtype, rrclass, ttl, rdlength = reader.unpack(RR_FIXED)
        return cls(name, rrtype, rrclass, ttl,
                   decode_rdata(rrtype, reader, rdlength))

    def to_text(self) -> str:
        return (f"{self.name.to_text()} {self.ttl} "
                f"{RRClass(self.rrclass).name if self.rrclass in tuple(RRClass) else self.rrclass} "
                f"{RRType.to_text(self.rrtype)} {self.rdata.to_text()}")


def _ipv6_to_bytes(address: str) -> bytes:
    """Encode a textual IPv6 address (with `::` support) to 16 octets."""
    if ":::" in address or address.count("::") > 1:
        raise WireFormatError(f"bad IPv6 address {address!r}")
    if "::" in address:
        head_text, _, tail_text = address.partition("::")
        head = [part for part in head_text.split(":") if part]
        tail = [part for part in tail_text.split(":") if part]
        missing = 8 - len(head) - len(tail)
        if missing < 0:
            raise WireFormatError(f"bad IPv6 address {address!r}")
        groups = head + ["0"] * missing + tail
    else:
        groups = address.split(":")
    if len(groups) != 8:
        raise WireFormatError(f"bad IPv6 address {address!r}")
    try:
        return struct.pack("!8H", *(int(group, 16) for group in groups))
    except (ValueError, struct.error) as exc:
        raise WireFormatError(f"bad IPv6 address {address!r}") from exc


def _ipv6_from_bytes(data: bytes) -> str:
    """Render 16 octets as a compressed textual IPv6 address."""
    groups = struct.unpack("!8H", data)
    # Find the longest run of zero groups for :: compression.
    best_start, best_length = -1, 0
    run_start, run_length = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start = index
            run_length += 1
            if run_length > best_length:
                best_start, best_length = run_start, run_length
        else:
            run_start, run_length = -1, 0
    if best_length < 2:
        return ":".join(f"{group:x}" for group in groups)
    head = ":".join(f"{group:x}" for group in groups[:best_start])
    tail = ":".join(f"{group:x}" for group in groups[best_start + best_length:])
    return f"{head}::{tail}"
