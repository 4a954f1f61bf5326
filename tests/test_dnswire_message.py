"""Tests for the DNS message codec (records, header, full round trips)."""

import pytest

from repro.dnswire import (
    AData,
    DnsName,
    EdnsOption,
    Flags,
    Header,
    Message,
    OptRecord,
    Question,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
    TxtData,
    make_query,
    make_response,
)
from repro.dnswire.records import MxData, SoaData, _ipv6_from_bytes, _ipv6_to_bytes
from repro.dnswire.wire import WireReader, WireWriter
from repro.errors import WireFormatError

NAME = DnsName.from_text("dns.example.com")


def roundtrip(message: Message) -> Message:
    return Message.decode(message.encode())


class TestHeader:
    def test_flag_bits_roundtrip(self):
        flags = Flags(qr=True, aa=True, tc=False, rd=True, ra=True)
        assert Flags.from_bits(flags.to_bits()) == flags

    def test_message_id_roundtrip(self):
        message = make_query(NAME, msg_id=0xBEEF)
        assert roundtrip(message).header.msg_id == 0xBEEF

    def test_opcode_roundtrip(self):
        message = Message(header=Header(opcode=4),
                          questions=(Question(NAME),))
        assert roundtrip(message).header.opcode == 4

    def test_rcode_roundtrip(self):
        query = make_query(NAME)
        response = make_response(query, rcode=Rcode.NXDOMAIN)
        assert roundtrip(response).rcode() == Rcode.NXDOMAIN


class TestQueryResponse:
    def test_query_question(self):
        decoded = roundtrip(make_query(NAME, RRType.AAAA, msg_id=7))
        assert decoded.question.name == NAME
        assert decoded.question.rrtype == RRType.AAAA
        assert decoded.question.rrclass == RRClass.IN

    def test_query_has_rd_set(self):
        assert roundtrip(make_query(NAME)).header.flags.rd

    def test_response_mirrors_id_and_question(self):
        query = make_query(NAME, msg_id=321)
        response = make_response(
            query, answers=[ResourceRecord.a(NAME, "192.0.2.1")])
        decoded = roundtrip(response)
        assert decoded.header.msg_id == 321
        assert decoded.question == query.question
        assert decoded.is_response()

    def test_answer_addresses(self):
        query = make_query(NAME)
        response = make_response(query, answers=[
            ResourceRecord.a(NAME, "192.0.2.1"),
            ResourceRecord.aaaa(NAME, "2001:db8::1"),
        ])
        assert roundtrip(response).answer_addresses() == (
            "192.0.2.1", "2001:db8::1")

    def test_cname_chain_roundtrip(self):
        target = DnsName.from_text("target.example.com")
        query = make_query(NAME)
        response = make_response(query, answers=[
            ResourceRecord.cname(NAME, target),
            ResourceRecord.a(target, "192.0.2.9"),
        ])
        decoded = roundtrip(response)
        assert decoded.answers[0].rdata.target == target
        assert decoded.answer_addresses() == ("192.0.2.9",)

    def test_authority_section_roundtrip(self):
        query = make_query(NAME)
        soa = ResourceRecord.soa(
            DnsName.from_text("example.com"),
            DnsName.from_text("ns1.example.com"),
            DnsName.from_text("hostmaster.example.com"), serial=42)
        response = make_response(query, rcode=Rcode.NXDOMAIN,
                                 authorities=[soa])
        decoded = roundtrip(response)
        assert len(decoded.authorities) == 1
        assert decoded.authorities[0].rdata.serial == 42


class TestRdataTypes:
    def test_a_rejects_bad_address(self):
        writer = WireWriter()
        with pytest.raises(WireFormatError):
            AData("999.1.2.3").encode(writer)

    def test_a_rejects_short_address(self):
        writer = WireWriter()
        with pytest.raises(WireFormatError):
            AData("1.2.3").encode(writer)

    def test_txt_roundtrip(self):
        query = make_query(NAME, RRType.TXT)
        response = make_response(query, answers=[
            ResourceRecord.txt(NAME, "hello dns-over-encryption")])
        decoded = roundtrip(response)
        assert decoded.answers[0].rdata.strings == (
            b"hello dns-over-encryption",)

    def test_txt_splits_long_strings(self):
        data = TxtData.from_text("x" * 600)
        assert [len(chunk) for chunk in data.strings] == [255, 255, 90]

    def test_mx_roundtrip(self):
        mx = ResourceRecord(NAME, RRType.MX, RRClass.IN, 300,
                            MxData(10, DnsName.from_text("mail.example.com")))
        query = make_query(NAME, RRType.MX)
        decoded = roundtrip(make_response(query, answers=[mx]))
        assert decoded.answers[0].rdata.preference == 10

    def test_ipv6_compression(self):
        assert _ipv6_from_bytes(_ipv6_to_bytes("2001:db8::1")) == "2001:db8::1"

    def test_ipv6_all_zero(self):
        assert _ipv6_from_bytes(b"\x00" * 16) == "::"

    def test_ipv6_bad_text(self):
        with pytest.raises(WireFormatError):
            _ipv6_to_bytes("2001:::1")

    def test_soa_to_text(self):
        soa = SoaData(DnsName.from_text("ns1.x."),
                      DnsName.from_text("admin.x."), 7)
        assert "7" in soa.to_text()


class TestWireRobustness:
    def test_truncated_header_rejected(self):
        with pytest.raises(WireFormatError):
            Message.decode(b"\x00\x01\x00")

    def test_truncated_question_rejected(self):
        wire = make_query(NAME).encode()
        with pytest.raises(WireFormatError):
            Message.decode(wire[:-3])

    def test_garbage_rejected(self):
        with pytest.raises(WireFormatError):
            Message.decode(b"\xff" * 11)

    def test_compression_pointer_loop_rejected(self):
        # Hand-craft a message whose qname points at itself.
        header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        loop = b"\xc0\x0c"  # pointer to offset 12 (itself)
        with pytest.raises(WireFormatError):
            Message.decode(header + loop + b"\x00\x01\x00\x01")

    def test_forward_pointer_rejected(self):
        header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        forward = b"\xc0\x20"  # points past itself
        with pytest.raises(WireFormatError):
            Message.decode(header + forward + b"\x00\x01\x00\x01")

    def test_reserved_label_type_rejected(self):
        reader = WireReader(b"\x80abc\x00")
        with pytest.raises(WireFormatError):
            reader.read_name()


class TestCompression:
    def test_compression_shrinks_repeated_names(self):
        query = make_query(NAME, with_edns=False)
        response = make_response(query, answers=[
            ResourceRecord.a(NAME, "192.0.2.1"),
            ResourceRecord.a(NAME, "192.0.2.2"),
        ])
        compressed = response.encode(compress=True)
        uncompressed = response.encode(compress=False)
        assert len(compressed) < len(uncompressed)

    def test_compressed_message_decodes_identically(self):
        query = make_query(NAME, with_edns=False)
        response = make_response(query, answers=[
            ResourceRecord.a(NAME, "192.0.2.1")])
        assert (Message.decode(response.encode(compress=True)).answers
                == Message.decode(response.encode(compress=False)).answers)


class TestEdns:
    def test_opt_record_roundtrip(self):
        message = make_query(NAME, with_edns=True)
        decoded = roundtrip(message)
        assert decoded.opt is not None
        assert decoded.opt.udp_payload == OptRecord().udp_payload

    def test_padding_rounds_to_block(self):
        for block in (64, 128, 468):
            message = make_query(NAME, pad_block=block)
            assert len(message.encode()) % block == 0

    def test_repadding_replaces_the_padding_option(self):
        padded = make_query(NAME, pad_block=128)
        repadded = padded.with_padding_to_block(128)
        assert len(repadded.encode()) == len(padded.encode()) == 128
        assert [option.code for option in repadded.opt.options].count(
            EdnsOption.PADDING) == 1

    def test_padding_octets_visible_after_decode(self):
        message = make_query(NAME, pad_block=128)
        assert roundtrip(message).opt.padding_octets() > 0

    def test_duplicate_opt_rejected(self):
        message = make_query(NAME, with_edns=True)
        wire = bytearray(message.encode())
        # Claim two additional records and append a second OPT.
        wire[11] = 2
        wire += b"\x00" + b"\x00\x29" + b"\x04\xd0" + b"\x00" * 4 + b"\x00\x00"
        with pytest.raises(WireFormatError):
            Message.decode(bytes(wire))

    def test_extended_rcode(self):
        message = Message(header=Header(rcode=2),
                          opt=OptRecord(extended_rcode=1))
        assert message.rcode() == (1 << 4) | 2

    def test_to_text_mentions_padding(self):
        message = make_query(NAME, pad_block=128)
        assert "padding" in message.to_text()
