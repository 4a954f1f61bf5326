"""DNS message model and codec (RFC 1035 section 4)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional, Tuple

from repro.dnswire.edns import OptRecord, PaddingOption
from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import EdnsOption, Opcode, Rcode, RRClass, RRType
from repro.dnswire.records import ResourceRecord, decode_rdata
from repro.dnswire.wire import (
    HEADER,
    QUESTION_FIXED,
    RR_FIXED,
    WireReader,
    WireWriter,
)
from repro.errors import WireFormatError

HEADER_LENGTH = HEADER.size


@dataclass(frozen=True)
class Flags:
    """The flag bits of a DNS header."""

    qr: bool = False
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False

    def to_bits(self) -> int:
        bits = 0
        if self.qr:
            bits |= 0x8000
        if self.aa:
            bits |= 0x0400
        if self.tc:
            bits |= 0x0200
        if self.rd:
            bits |= 0x0100
        if self.ra:
            bits |= 0x0080
        return bits

    @classmethod
    def from_bits(cls, bits: int) -> "Flags":
        return _FLAGS_BY_BITS[bits & _FLAG_MASK]


_FLAG_MASK = 0x8000 | 0x0400 | 0x0200 | 0x0100 | 0x0080
#: Flags is frozen and has only 32 values, so decoding hands out one
#: shared instance per combination of flag bits.
_FLAGS_BY_BITS = {
    flags.to_bits(): flags
    for flags in (Flags(*bits) for bits in product((False, True), repeat=5))
}


@dataclass(frozen=True)
class Header:
    """DNS header: identifier, opcode, flags and rcode."""

    msg_id: int = 0
    opcode: int = Opcode.QUERY
    flags: Flags = field(default_factory=Flags)
    rcode: int = Rcode.NOERROR


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    name: DnsName
    rrtype: int = RRType.A
    rrclass: int = RRClass.IN

    def encode(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        writer.buf += QUESTION_FIXED.pack(self.rrtype, self.rrclass)

    @classmethod
    def decode(cls, reader: WireReader) -> "Question":
        name = reader.read_name()
        return cls(name, *reader.unpack(QUESTION_FIXED))

    def to_text(self) -> str:
        return (f"{self.name.to_text()} "
                f"{RRClass(self.rrclass).name if self.rrclass in tuple(RRClass) else self.rrclass} "
                f"{RRType.to_text(self.rrtype)}")


@dataclass(frozen=True)
class Message:
    """A complete DNS message."""

    header: Header = field(default_factory=Header)
    questions: Tuple[Question, ...] = ()
    answers: Tuple[ResourceRecord, ...] = ()
    authorities: Tuple[ResourceRecord, ...] = ()
    additionals: Tuple[ResourceRecord, ...] = ()
    opt: Optional[OptRecord] = None

    @property
    def question(self) -> Optional[Question]:
        """The first question, or None for header-only messages."""
        return self.questions[0] if self.questions else None

    def is_response(self) -> bool:
        return self.header.flags.qr

    def rcode(self) -> int:
        base = self.header.rcode
        if self.opt is not None:
            return (self.opt.extended_rcode << 4) | base
        return base

    def answer_addresses(self) -> Tuple[str, ...]:
        """All A/AAAA addresses from the answer section, in order."""
        addresses = []
        for record in self.answers:
            if record.rrtype in (RRType.A, RRType.AAAA):
                addresses.append(record.rdata.to_text())
        return tuple(addresses)

    def with_padding_to_block(self, block: int = 128) -> "Message":
        """Return a copy padded to a multiple of ``block`` octets.

        Any padding already present is replaced, not added to: RFC 7830
        allows one padding option per message.
        """
        opt = self.opt
        if opt is None:
            base = replace(self, opt=OptRecord())
        elif any(option.code == EdnsOption.PADDING
                 for option in opt.options):
            base = replace(self, opt=opt.without_padding())
        else:
            # The baseline is this exact message, whose encoding may be
            # cached already.
            base = self
        base_wire = base.encode()
        base_opt = base.opt
        padded_opt = base_opt.with_option(
            PaddingOption.pad_to_block(len(base_wire), block))
        padded = replace(base, opt=padded_opt)
        # The OPT record is encoded last and holds no compressible name,
        # so the padded wire is the base wire with that record swapped.
        wire = (base_wire[:len(base_wire) - len(base_opt.to_wire())]
                + padded_opt.to_wire())
        object.__setattr__(padded, "_wire_cache", {True: wire})
        return padded

    def encode(self, compress: bool = True) -> bytes:
        # Message and everything it contains are frozen, so the wire
        # form is a pure function of the instance: cache it per
        # compression mode. The cache dict lives in __dict__ (set via
        # object.__setattr__ to bypass the frozen guard) and is invisible
        # to dataclass eq/repr/replace, which only consider fields.
        cache = self.__dict__.get("_wire_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_wire_cache", cache)
        else:
            wire = cache.get(compress)
            if wire is not None:
                return wire
        writer = WireWriter(enable_compression=compress)
        header = self.header
        flag_bits = (header.flags.to_bits()
                     | (header.opcode & 0xF) << 11
                     | header.rcode & 0xF)
        opt = self.opt
        writer.buf += HEADER.pack(
            header.msg_id, flag_bits,
            len(self.questions), len(self.answers),
            len(self.authorities),
            len(self.additionals) + (1 if opt else 0),
        )
        for question in self.questions:
            question.encode(writer)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record.encode(writer)
        if opt is not None:
            writer.buf += opt.to_wire()
        wire = writer.getvalue()
        cache[compress] = wire
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        if len(data) < HEADER_LENGTH:
            raise WireFormatError(
                f"message shorter than header: {len(data)} octets")
        msg_id, flag_bits, qdcount, ancount, nscount, arcount = (
            HEADER.unpack_from(data, 0))
        reader = WireReader(bytes(data), HEADER_LENGTH)
        header = Header(
            msg_id=msg_id,
            opcode=(flag_bits >> 11) & 0xF,
            flags=Flags.from_bits(flag_bits),
            rcode=flag_bits & 0xF,
        )
        questions = tuple(Question.decode(reader) for _ in range(qdcount))
        answers = tuple(ResourceRecord.decode(reader) for _ in range(ancount))
        authorities = tuple(ResourceRecord.decode(reader)
                            for _ in range(nscount))
        additionals = []
        opt = None
        for _ in range(arcount):
            name = reader.read_name()
            rrtype, rrclass, ttl, rdlength = reader.unpack(RR_FIXED)
            if rrtype == RRType.OPT:
                if opt is not None:
                    raise WireFormatError("duplicate OPT record")
                if not name.is_root():
                    raise WireFormatError("OPT owner must be the root name")
                opt = OptRecord.decode_body(reader, rrclass, ttl, rdlength)
            else:
                additionals.append(ResourceRecord(
                    name, rrtype, rrclass, ttl,
                    decode_rdata(rrtype, reader, rdlength)))
        return cls(header, questions, answers, authorities,
                   tuple(additionals), opt)

    def to_text(self) -> str:
        """Multi-line dig-style rendering, for logs and debugging."""
        lines = [
            f";; id {self.header.msg_id} opcode "
            f"{Opcode(self.header.opcode).name if self.header.opcode in tuple(Opcode) else self.header.opcode} "
            f"rcode {Rcode.to_text(self.rcode())}"
        ]
        if self.questions:
            lines.append(";; QUESTION")
            lines.extend("  " + question.to_text()
                         for question in self.questions)
        for title, section in (("ANSWER", self.answers),
                               ("AUTHORITY", self.authorities),
                               ("ADDITIONAL", self.additionals)):
            if section:
                lines.append(f";; {title}")
                lines.extend("  " + record.to_text() for record in section)
        if self.opt is not None:
            lines.append(f";; EDNS version {self.opt.version}, "
                         f"udp {self.opt.udp_payload}, "
                         f"padding {self.opt.padding_octets()}")
        return "\n".join(lines)
