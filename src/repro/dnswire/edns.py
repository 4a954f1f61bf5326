"""EDNS(0) support: the OPT pseudo-record and the padding option.

The padding option (RFC 7830) matters for DNS-over-Encryption: padding
queries to a block size reduces what an on-path observer can infer from
ciphertext lengths, one of the criteria in the paper's comparative study.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dnswire.rdtypes import EdnsOption, RRType
from repro.dnswire.wire import RR_FIXED, WireReader
from repro.errors import WireFormatError

DEFAULT_UDP_PAYLOAD = 1232
RECOMMENDED_PAD_BLOCK = 128

#: An option's code and length, ahead of its payload.
_OPTION_HEAD = struct.Struct("!HH")


@dataclass(frozen=True)
class EdnsOptionValue:
    """One EDNS option as (code, opaque payload)."""

    code: int
    data: bytes

    def wire_length(self) -> int:
        return 4 + len(self.data)


class KeepaliveOption:
    """The edns-tcp-keepalive option (RFC 7828).

    Servers advertise how long a client may hold the TCP/TLS connection
    idle; clients use it to drive connection-reuse lifetimes — the
    mechanism behind the "tens of seconds" keepalive windows the paper
    observes in deployed DoT/DoH stacks.
    """

    @staticmethod
    def make(timeout_s: float) -> EdnsOptionValue:
        """Build a server-side option advertising an idle timeout."""
        deciseconds = max(0, min(0xFFFF, round(timeout_s * 10)))
        return EdnsOptionValue(EdnsOption.KEEPALIVE,
                               deciseconds.to_bytes(2, "big"))

    @staticmethod
    def empty() -> EdnsOptionValue:
        """The client-side form: requests a timeout without stating one."""
        return EdnsOptionValue(EdnsOption.KEEPALIVE, b"")

    @staticmethod
    def timeout_from(opt: "OptRecord") -> Optional[float]:
        """Extract the advertised idle timeout (seconds), if present."""
        for option in opt.options:
            if option.code != EdnsOption.KEEPALIVE:
                continue
            if len(option.data) != 2:
                return None
            return int.from_bytes(option.data, "big") / 10.0
        return None


class PaddingOption:
    """Helpers for the EDNS(0) padding option."""

    @staticmethod
    def make(pad_octets: int) -> EdnsOptionValue:
        return EdnsOptionValue(EdnsOption.PADDING, b"\x00" * pad_octets)

    @staticmethod
    def pad_to_block(current_length: int,
                     block: int = RECOMMENDED_PAD_BLOCK) -> EdnsOptionValue:
        """Build a padding option so the message reaches a block multiple.

        ``current_length`` is the message length *before* adding the
        option; the 4-octet option header is accounted for.
        """
        if block <= 0:
            raise WireFormatError("padding block size must be positive")
        with_header = current_length + 4
        pad = (-with_header) % block
        return PaddingOption.make(pad)


@dataclass(frozen=True)
class OptRecord:
    """The OPT pseudo-RR carrying EDNS(0) fields.

    The record owner is always the root name; class carries the maximum
    UDP payload size and TTL carries extended rcode/version/flags.
    """

    udp_payload: int = DEFAULT_UDP_PAYLOAD
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    options: Tuple[EdnsOptionValue, ...] = field(default_factory=tuple)

    def with_option(self, option: EdnsOptionValue) -> "OptRecord":
        return OptRecord(self.udp_payload, self.extended_rcode,
                         self.version, self.dnssec_ok,
                         self.options + (option,))

    def padding_octets(self) -> int:
        """Total octets of padding carried, 0 when unpadded."""
        return sum(len(option.data) for option in self.options
                   if option.code == EdnsOption.PADDING)

    def without_padding(self) -> "OptRecord":
        """This record with every padding option removed."""
        return OptRecord(self.udp_payload, self.extended_rcode,
                         self.version, self.dnssec_ok,
                         tuple(option for option in self.options
                               if option.code != EdnsOption.PADDING))

    def to_wire(self) -> bytes:
        """The whole OPT record: root owner, fixed fields and options.

        The owner is the root name, which never compresses, so the
        record's octets do not depend on where it lands in a message and
        are memoised per (frozen) instance, like :meth:`Rdata.to_wire`.
        """
        wire = self.__dict__.get("_wire_cache")
        if wire is not None:
            return wire
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= 0x8000
        rdata = bytearray()
        for option in self.options:
            rdata += _OPTION_HEAD.pack(option.code, len(option.data))
            rdata += option.data
        wire = (b"\x00" + RR_FIXED.pack(RRType.OPT, self.udp_payload, ttl,
                                        len(rdata)) + rdata)
        object.__setattr__(self, "_wire_cache", wire)
        return wire

    @classmethod
    def decode_body(cls, reader: WireReader, udp_payload: int, ttl: int,
                    rdlength: int) -> "OptRecord":
        """Decode an OPT record's options from its fixed fields onwards.

        The caller has consumed the owner name and the type, class, TTL
        and rdlength fields (class carries the UDP payload size, TTL the
        extended rcode, version and flags); ``reader`` sits at the rdata.
        """
        extended_rcode = (ttl >> 24) & 0xFF
        version = (ttl >> 16) & 0xFF
        dnssec_ok = bool(ttl & 0x8000)
        end = reader.offset + rdlength
        options = []
        while reader.offset < end:
            code, length = reader.unpack(_OPTION_HEAD)
            options.append(EdnsOptionValue(code, reader.read_bytes(length)))
        if reader.offset != end:
            raise WireFormatError("OPT rdata length mismatch")
        return cls(udp_payload, extended_rcode, version,
                   dnssec_ok, tuple(options))
