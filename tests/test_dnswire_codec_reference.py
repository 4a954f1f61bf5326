"""Differential and robustness tests for the one-pass DNS wire codec.

The reference is the earlier per-field codec, kept here verbatim in
behaviour: a writer that packs and appends every fixed field on its own,
a reader that unpacks every fixed field on its own and validates every
decoded name through the public ``DnsName`` constructor, and message,
record and rdata encoders and decoders built on those two. The
production codec must produce the same bytes, decode the same values
and accept or reject exactly the same inputs.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Dict, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dnswire import (
    AData,
    AaaaData,
    CnameData,
    DnsName,
    EdnsOptionValue,
    Flags,
    Header,
    KeepaliveOption,
    Message,
    MxData,
    NsData,
    OpaqueData,
    OptRecord,
    PaddingOption,
    PtrData,
    Question,
    ResourceRecord,
    RRType,
    SoaData,
    TxtData,
    make_query,
)
from repro.dnswire.rdtypes import EdnsOption
from repro.dnswire.records import _ipv6_from_bytes, _ipv6_to_bytes
from repro.errors import ReproError, WireFormatError

pytestmark = pytest.mark.robustness


# -- the reference codec --------------------------------------------------------

class ScanWireWriter:
    """Per-field writer: one ``struct.pack`` and one append per field."""

    def __init__(self, enable_compression: bool = True):
        self._chunks: list = []
        self._length = 0
        self._offsets: Dict[Tuple[bytes, ...], int] = {}
        self._compress = enable_compression

    def write_u8(self, value: int) -> None:
        self._append(struct.pack("!B", value))

    def write_u16(self, value: int) -> None:
        self._append(struct.pack("!H", value))

    def write_u32(self, value: int) -> None:
        self._append(struct.pack("!I", value))

    def write_bytes(self, data: bytes) -> None:
        self._append(data)

    def write_name(self, name: DnsName) -> None:
        labels = name.labels
        folded = name.folded_labels
        for index in range(len(labels)):
            suffix = folded[index:]
            known = self._offsets.get(suffix) if self._compress else None
            if known is not None:
                self.write_u16(0xC000 | known)
                return
            if self._compress and self._length <= 0x3FFF:
                self._offsets[suffix] = self._length
            label = labels[index]
            self.write_u8(len(label))
            self.write_bytes(label)
        self.write_u8(0)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def _append(self, data: bytes) -> None:
        self._chunks.append(data)
        self._length += len(data)


class ScanWireReader:
    """Per-field reader: one bounds check and one unpack per field."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    def remaining(self) -> int:
        return len(self._data) - self._offset

    def read_u8(self) -> int:
        return self._read_struct("!B", 1)[0]

    def read_u16(self) -> int:
        return self._read_struct("!H", 2)[0]

    def read_u32(self) -> int:
        return self._read_struct("!I", 4)[0]

    def read_bytes(self, count: int) -> bytes:
        if self.remaining() < count:
            raise WireFormatError("truncated message")
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def read_name(self) -> DnsName:
        labels = []
        offset = self._offset
        jumped = False
        seen_offsets = set()
        while True:
            if offset >= len(self._data):
                raise WireFormatError("name runs past end of message")
            length = self._data[offset]
            if length & 0xC0 == 0xC0:
                if offset + 1 >= len(self._data):
                    raise WireFormatError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | self._data[offset + 1]
                if target >= offset:
                    raise WireFormatError("compression pointer is not backward")
                if target in seen_offsets:
                    raise WireFormatError("compression pointer loop")
                seen_offsets.add(target)
                if not jumped:
                    self._offset = offset + 2
                    jumped = True
                offset = target
                continue
            if length & 0xC0:
                raise WireFormatError(f"reserved label type 0x{length:02x}")
            if length == 0:
                if not jumped:
                    self._offset = offset + 1
                return DnsName(tuple(labels))
            if offset + 1 + length > len(self._data):
                raise WireFormatError("label runs past end of message")
            labels.append(self._data[offset + 1:offset + 1 + length])
            offset += 1 + length

    def _read_struct(self, fmt: str, size: int):
        if self.remaining() < size:
            raise WireFormatError("truncated message")
        values = struct.unpack_from(fmt, self._data, self._offset)
        self._offset += size
        return values


def scan_encode_rdata(rdata, writer: ScanWireWriter) -> None:
    if isinstance(rdata, AData):
        parts = rdata.address.split(".")
        if len(parts) != 4:
            raise WireFormatError(f"bad IPv4 address {rdata.address!r}")
        try:
            writer.write_bytes(bytes(int(part) for part in parts))
        except ValueError as exc:
            raise WireFormatError("bad IPv4 address") from exc
    elif isinstance(rdata, AaaaData):
        writer.write_bytes(_ipv6_to_bytes(rdata.address))
    elif isinstance(rdata, (CnameData, NsData, PtrData)):
        writer.write_name(rdata.target)
    elif isinstance(rdata, SoaData):
        writer.write_name(rdata.mname)
        writer.write_name(rdata.rname)
        for value in (rdata.serial, rdata.refresh, rdata.retry,
                      rdata.expire, rdata.minimum):
            writer.write_u32(value)
    elif isinstance(rdata, TxtData):
        for chunk in rdata.strings:
            if len(chunk) > 255:
                raise WireFormatError("TXT string exceeds 255 octets")
            writer.write_u8(len(chunk))
            writer.write_bytes(chunk)
    elif isinstance(rdata, MxData):
        writer.write_u16(rdata.preference)
        writer.write_name(rdata.exchange)
    else:
        writer.write_bytes(rdata.data)


def scan_encode(message: Message, compress: bool = True) -> bytes:
    writer = ScanWireWriter(enable_compression=compress)
    header = message.header
    flag_bits = header.flags.to_bits()
    flag_bits |= (header.opcode & 0xF) << 11
    flag_bits |= header.rcode & 0xF
    writer.write_u16(header.msg_id)
    writer.write_u16(flag_bits)
    writer.write_u16(len(message.questions))
    writer.write_u16(len(message.answers))
    writer.write_u16(len(message.authorities))
    writer.write_u16(len(message.additionals) + (1 if message.opt else 0))
    for question in message.questions:
        writer.write_name(question.name)
        writer.write_u16(question.rrtype)
        writer.write_u16(question.rrclass)
    for record in (message.answers + message.authorities
                   + message.additionals):
        writer.write_name(record.name)
        writer.write_u16(record.rrtype)
        writer.write_u16(record.rrclass)
        writer.write_u32(record.ttl)
        inner = ScanWireWriter(enable_compression=False)
        scan_encode_rdata(record.rdata, inner)
        payload = inner.getvalue()
        writer.write_u16(len(payload))
        writer.write_bytes(payload)
    opt = message.opt
    if opt is not None:
        writer.write_name(DnsName.root())
        writer.write_u16(RRType.OPT)
        writer.write_u16(opt.udp_payload)
        ttl = (opt.extended_rcode << 24) | (opt.version << 16)
        if opt.dnssec_ok:
            ttl |= 0x8000
        writer.write_u32(ttl)
        inner = ScanWireWriter(enable_compression=False)
        for option in opt.options:
            inner.write_u16(option.code)
            inner.write_u16(len(option.data))
            inner.write_bytes(option.data)
        payload = inner.getvalue()
        writer.write_u16(len(payload))
        writer.write_bytes(payload)
    return writer.getvalue()


def scan_decode_rdata(rrtype: int, reader: ScanWireReader, rdlength: int):
    start = reader.offset
    if rrtype == RRType.A:
        if rdlength != 4:
            raise WireFormatError("A rdata must be 4 octets")
        rdata = AData(".".join(str(octet) for octet in reader.read_bytes(4)))
    elif rrtype == RRType.AAAA:
        if rdlength != 16:
            raise WireFormatError("AAAA rdata must be 16 octets")
        rdata = AaaaData(_ipv6_from_bytes(reader.read_bytes(16)))
    elif rrtype in (RRType.CNAME, RRType.NS, RRType.PTR):
        rdata = {RRType.CNAME: CnameData, RRType.NS: NsData,
                 RRType.PTR: PtrData}[rrtype](reader.read_name())
    elif rrtype == RRType.SOA:
        mname = reader.read_name()
        rname = reader.read_name()
        rdata = SoaData(mname, rname,
                        *(reader.read_u32() for _ in range(5)))
    elif rrtype == RRType.TXT:
        end = reader.offset + rdlength
        strings = []
        while reader.offset < end:
            length = reader.read_u8()
            strings.append(reader.read_bytes(length))
        if reader.offset != end:
            raise WireFormatError("TXT rdata length mismatch")
        rdata = TxtData(tuple(strings))
    elif rrtype == RRType.MX:
        preference = reader.read_u16()
        rdata = MxData(preference, reader.read_name())
    else:
        return OpaqueData(rrtype, reader.read_bytes(rdlength))
    if reader.offset - start != rdlength:
        raise WireFormatError("rdata length mismatch")
    return rdata


def scan_decode_record(reader: ScanWireReader) -> ResourceRecord:
    name = reader.read_name()
    rrtype = reader.read_u16()
    rrclass = reader.read_u16()
    ttl = reader.read_u32()
    rdlength = reader.read_u16()
    return ResourceRecord(name, rrtype, rrclass, ttl,
                          scan_decode_rdata(rrtype, reader, rdlength))


def scan_decode_opt_body(reader: ScanWireReader) -> OptRecord:
    udp_payload = reader.read_u16()
    ttl = reader.read_u32()
    rdlength = reader.read_u16()
    end = reader.offset + rdlength
    options = []
    while reader.offset < end:
        code = reader.read_u16()
        length = reader.read_u16()
        options.append(EdnsOptionValue(code, reader.read_bytes(length)))
    if reader.offset != end:
        raise WireFormatError("OPT rdata length mismatch")
    return OptRecord(udp_payload, (ttl >> 24) & 0xFF, (ttl >> 16) & 0xFF,
                     bool(ttl & 0x8000), tuple(options))


def scan_decode(data: bytes) -> Message:
    if len(data) < 12:
        raise WireFormatError("message shorter than header")
    reader = ScanWireReader(data)
    msg_id = reader.read_u16()
    flag_bits = reader.read_u16()
    qdcount, ancount, nscount, arcount = (reader.read_u16()
                                          for _ in range(4))
    header = Header(
        msg_id=msg_id,
        opcode=(flag_bits >> 11) & 0xF,
        flags=Flags(qr=bool(flag_bits & 0x8000), aa=bool(flag_bits & 0x0400),
                    tc=bool(flag_bits & 0x0200), rd=bool(flag_bits & 0x0100),
                    ra=bool(flag_bits & 0x0080)),
        rcode=flag_bits & 0xF,
    )
    questions = []
    for _ in range(qdcount):
        name = reader.read_name()
        rrtype = reader.read_u16()
        questions.append(Question(name, rrtype, reader.read_u16()))
    answers = tuple(scan_decode_record(reader) for _ in range(ancount))
    authorities = tuple(scan_decode_record(reader) for _ in range(nscount))
    additionals = []
    opt = None
    for _ in range(arcount):
        mark = reader.offset
        name = reader.read_name()
        rrtype = reader.read_u16()
        if rrtype == RRType.OPT:
            if opt is not None:
                raise WireFormatError("duplicate OPT record")
            if not name.is_root():
                raise WireFormatError("OPT owner must be the root name")
            opt = scan_decode_opt_body(reader)
        else:
            reader = ScanWireReader(data, mark)
            additionals.append(scan_decode_record(reader))
    return Message(header, tuple(questions), answers, authorities,
                   tuple(additionals), opt)


def exact(value):
    """A comparison key that, unlike ``==``, sees the case of labels."""
    if isinstance(value, DnsName):
        return ("name", value.labels)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            exact(getattr(value, item.name))
            for item in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(exact(item) for item in value)
    return value


def outcome(decode, data: bytes):
    """``("ok", exact value)`` or ``("error", None)``; only a ReproError
    may escape a decoder."""
    try:
        return ("ok", exact(decode(data)))
    except ReproError:
        return ("error", None)


# -- strategies -----------------------------------------------------------------

_LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
labels = st.text(alphabet=_LABEL_ALPHABET, min_size=1, max_size=12).map(
    lambda text: text.encode("ascii"))


def _flip_case(label: bytes, mask: int) -> bytes:
    return bytes(
        octet ^ 0x20 if chr(octet).isalpha() and (mask >> (index % 16)) & 1
        else octet for index, octet in enumerate(label))


@st.composite
def name_pools(draw):
    """A few names sharing suffixes, each drawn in its own mix of case,
    so compression pointers hit case-insensitively."""
    suffixes = draw(st.lists(st.lists(labels, min_size=0, max_size=3),
                             min_size=1, max_size=3))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        suffix = draw(st.sampled_from(suffixes))
        prefix = draw(st.lists(labels, min_size=0, max_size=3))
        mask = draw(st.integers(0, 0xFFFF))
        pool.append(DnsName(tuple(_flip_case(label, mask)
                                  for label in prefix + suffix)))
    return pool


ipv4 = st.tuples(*([st.integers(0, 255)] * 4)).map(
    lambda octets: ".".join(str(octet) for octet in octets))
ipv6 = st.binary(min_size=16, max_size=16).map(_ipv6_from_bytes)
u32 = st.integers(0, 0xFFFFFFFF)
#: Types the codec does not model, so they travel as opaque rdata.
opaque_types = st.sampled_from([13, 33, 43, 99, 257, 65280])


def rdata_for(pool):
    names = st.sampled_from(pool)
    return st.one_of(
        ipv4.map(AData),
        ipv6.map(AaaaData),
        names.map(CnameData),
        names.map(NsData),
        names.map(PtrData),
        st.builds(SoaData, names, names, u32, u32, u32, u32, u32),
        st.builds(MxData, st.integers(0, 0xFFFF), names),
        st.lists(st.binary(max_size=40), min_size=1, max_size=3).map(
            lambda strings: TxtData(tuple(strings))),
        st.builds(OpaqueData, opaque_types, st.binary(max_size=24)),
    )


@st.composite
def records_for(draw, pool):
    rdata = draw(rdata_for(pool))
    return ResourceRecord(draw(st.sampled_from(pool)), rdata.rrtype,
                          draw(st.sampled_from([1, 3, 255])), draw(u32),
                          rdata)


edns_options = st.one_of(
    st.just(KeepaliveOption.empty()),
    st.floats(0, 6553.5).map(KeepaliveOption.make),
    st.integers(0, 40).map(PaddingOption.make),
)
opt_records = st.builds(
    OptRecord, st.integers(512, 0xFFFF), st.integers(0, 0xFF),
    st.integers(0, 1), st.booleans(),
    st.lists(edns_options, max_size=3).map(tuple))


@st.composite
def messages(draw):
    pool = draw(name_pools())
    records = records_for(pool)
    header = Header(
        msg_id=draw(st.integers(0, 0xFFFF)),
        opcode=draw(st.sampled_from([0, 2, 4, 5])),
        flags=Flags(*draw(st.tuples(*([st.booleans()] * 5)))),
        rcode=draw(st.integers(0, 0xF)),
    )
    questions = tuple(
        Question(name, draw(st.sampled_from([1, 2, 5, 6, 15, 16, 28, 99])))
        for name in draw(st.lists(st.sampled_from(pool), max_size=2)))
    return Message(
        header, questions,
        tuple(draw(st.lists(records, max_size=5))),
        tuple(draw(st.lists(records, max_size=2))),
        tuple(draw(st.lists(records, max_size=2))),
        draw(st.none() | opt_records))


@st.composite
def queries(draw):
    pool = draw(name_pools())
    return make_query(draw(st.sampled_from(pool)),
                      draw(st.sampled_from([1, 16, 28])),
                      msg_id=draw(st.integers(0, 0xFFFF)),
                      with_edns=draw(st.booleans()),
                      pad_block=draw(st.sampled_from([None, 32, 128, 468])))


any_message = st.one_of(messages(), queries())
blocks = st.sampled_from([1, 12, 32, 64, 128, 468])
_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# -- properties -----------------------------------------------------------------

class TestEncodeMatchesReference:
    @_SETTINGS
    @given(message=any_message, compress=st.booleans())
    def test_same_bytes(self, message, compress):
        assert message.encode(compress) == scan_encode(message, compress)

    @_SETTINGS
    @given(message=any_message, block=blocks)
    def test_spliced_padding_equals_a_full_encode(self, message, block):
        padded = message.with_padding_to_block(block)
        wire = padded.encode()
        fresh = dataclasses.replace(padded)
        assert "_wire_cache" not in fresh.__dict__
        assert wire == fresh.encode() == scan_encode(padded)
        assert len(wire) % block == 0
        assert [option.code for option in padded.opt.options].count(
            EdnsOption.PADDING) == 1


class TestDecodeMatchesReference:
    @_SETTINGS
    @given(message=any_message, compress=st.booleans())
    def test_valid_wire_decodes_to_the_reference_value(self, message,
                                                       compress):
        wire = message.encode(compress)
        decoded = Message.decode(wire)
        assert exact(decoded) == exact(scan_decode(wire))
        assert decoded.encode(compress) == wire

    @_SETTINGS
    @given(data=st.binary(max_size=96))
    def test_random_wire(self, data):
        assert outcome(Message.decode, data) == outcome(scan_decode, data)

    @_SETTINGS
    @given(message=any_message, cut=st.integers(0, 1 << 16))
    def test_truncated_wire(self, message, cut):
        wire = message.encode()
        data = wire[:cut % (len(wire) + 1)]
        assert outcome(Message.decode, data) == outcome(scan_decode, data)

    @_SETTINGS
    @given(message=any_message,
           flips=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4))
    def test_bit_flipped_wire(self, message, flips):
        data = bytearray(message.encode())
        for flip in flips:
            bit = flip % (len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
        data = bytes(data)
        assert outcome(Message.decode, data) == outcome(scan_decode, data)


class TestHandPickedWire:
    """Inputs random generation rarely reaches, each run through both
    decoders."""

    HEADER_1Q = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"

    @pytest.mark.parametrize("body", [
        b"\xc0\x0c\x00\x01\x00\x01",              # pointer to itself
        b"\xc0\x0e\x00\x00\x01\x00\x01",          # forward, to a root name
        b"\xc0\x12\x00\x01\x00\x01\x00",          # forward, past the fields
        b"\x01a\xc0\x0c\x00\x01\x00\x01",         # pointer loop
        b"\x40a\x00\x00\x01\x00\x01",             # reserved label type
        b"\xc0",                                  # truncated pointer
        b"\x3f" + b"a" * 10,                      # label past the end
        (b"\x3f" + b"a" * 63) * 4 + b"\x00\x00\x01\x00\x01",  # > 255 octets
        b"\x01a\x00\x00\x01",                     # truncated fixed fields
    ])
    def test_rejected_by_both(self, body):
        data = self.HEADER_1Q + body
        assert outcome(Message.decode, data) == ("error", None)
        assert outcome(scan_decode, data) == ("error", None)

    def test_long_name_error_is_a_name_error(self):
        from repro.errors import NameError_
        data = self.HEADER_1Q + (b"\x3f" + b"a" * 63) * 4 + b"\x00\x00\x01\x00\x01"
        with pytest.raises(NameError_):
            Message.decode(data)
