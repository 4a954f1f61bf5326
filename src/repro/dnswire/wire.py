"""Low-level wire readers and writers.

:class:`WireWriter` implements RFC 1035 name compression: every name (and
every name suffix) emitted is remembered, and later occurrences are
replaced by a two-octet pointer. :class:`WireReader` follows pointers with
loop protection, which matters because hand-crafted malicious messages can
contain pointer cycles.

Both work in one pass over one buffer: the writer appends to a single
``bytearray`` and the reader unpacks fixed fields in place, each group of
adjacent fixed fields through one precompiled :class:`struct.Struct`.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.dnswire.names import DnsName
from repro.errors import WireFormatError

_POINTER_MASK = 0xC0
_MAX_POINTER_TARGET = 0x3FFF

U16 = struct.Struct("!H")
#: id, flags, qdcount, ancount, nscount, arcount.
HEADER = struct.Struct("!HHHHHH")
#: A question's type and class.
QUESTION_FIXED = struct.Struct("!HH")
#: A record's type, class, TTL and rdlength, which follow its owner name.
RR_FIXED = struct.Struct("!HHIH")


class WireWriter:
    """Accumulates wire-format octets with DNS name compression.

    ``buf`` is the message under construction; callers append packed
    fixed fields to it directly.
    """

    __slots__ = ("buf", "_offsets", "_compress")

    def __init__(self, enable_compression: bool = True):
        self.buf = bytearray()
        self._offsets: Dict[Tuple[bytes, ...], int] = {}
        self._compress = enable_compression

    def write_u8(self, value: int) -> None:
        self.buf.append(value)

    def write_u16(self, value: int) -> None:
        self.buf += U16.pack(value)

    def write_bytes(self, data: bytes) -> None:
        self.buf += data

    def write_name(self, name: DnsName) -> None:
        """Emit a domain name, compressing suffixes seen earlier."""
        buf = self.buf
        if not self._compress:
            # No compression state to maintain: emit the name's cached
            # uncompressed encoding in one append.
            buf += name.to_wire()
            return
        offsets = self._offsets
        folded = name.folded_labels
        for index, label in enumerate(name.labels):
            suffix = folded[index:]
            known = offsets.get(suffix)
            if known is not None:
                buf += U16.pack(0xC000 | known)
                return
            offset = len(buf)
            if offset <= _MAX_POINTER_TARGET:
                offsets[suffix] = offset
            buf.append(len(label))
            buf += label
        buf.append(0)

    def current_offset(self) -> int:
        return len(self.buf)

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class WireReader:
    """Sequential reader over a full DNS message buffer."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._offset = offset

    @property
    def offset(self) -> int:
        return self._offset

    def _advance(self, count: int) -> int:
        """Step over ``count`` octets, returning where they start."""
        offset = self._offset
        if len(self._data) - offset < count:
            raise WireFormatError(
                f"truncated message: wanted {count} octets, "
                f"{len(self._data) - offset} remain"
            )
        self._offset = offset + count
        return offset

    def unpack(self, fields: struct.Struct) -> tuple:
        """Read the fixed fields ``fields`` describes, in one step."""
        return fields.unpack_from(self._data, self._advance(fields.size))

    def read_u8(self) -> int:
        return self._data[self._advance(1)]

    def read_u16(self) -> int:
        return self.unpack(U16)[0]

    def read_bytes(self, count: int) -> bytes:
        offset = self._advance(count)
        return self._data[offset:offset + count]

    def read_name(self) -> DnsName:
        """Decode a (possibly compressed) domain name.

        Pointer loops and forward pointers are rejected; RFC 1035 only
        permits pointers to earlier positions in the message.
        """
        data = self._data
        end = len(data)
        labels = []
        offset = self._offset
        jumped = False
        seen_offsets = set()
        while True:
            if offset >= end:
                raise WireFormatError("name runs past end of message")
            length = data[offset]
            if length & _POINTER_MASK == _POINTER_MASK:
                if offset + 1 >= end:
                    raise WireFormatError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[offset + 1]
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
            if length & _POINTER_MASK:
                raise WireFormatError(f"reserved label type 0x{length:02x}")
            if length == 0:
                if not jumped:
                    self._offset = offset + 1
                # Every label read here is 1-63 octets by construction
                # (a non-zero length octet below 0x40).
                return DnsName.from_wire_labels(tuple(labels))
            start = offset + 1
            offset = start + length
            if offset > end:
                raise WireFormatError("label runs past end of message")
            labels.append(data[start:offset])
