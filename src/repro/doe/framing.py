"""DNS-over-TCP message framing (RFC 1035 section 4.2.2).

DNS messages on stream transports are prefixed with a two-octet length
field; DoT reuses this framing inside the TLS tunnel (RFC 7858 section 3).
"""

from __future__ import annotations

import base64
import struct

from repro.errors import WireFormatError

MAX_FRAMED_LENGTH = 0xFFFF

#: Media type of DoH requests and responses (RFC 8484 section 6).
DOH_MEDIA_TYPE = "application/dns-message"

#: Media type of the Google-style JSON DNS API.
DOH_JSON_MEDIA_TYPE = "application/dns-json"


def b64url_encode(data: bytes) -> str:
    """Unpadded base64url, as RFC 8484 requires for the dns parameter."""
    return base64.urlsafe_b64encode(data).decode().rstrip("=")


def b64url_decode(encoded: str) -> bytes:
    """Decode unpadded base64url."""
    padding = "=" * (-len(encoded) % 4)
    try:
        return base64.urlsafe_b64decode(encoded + padding)
    except ValueError as exc:
        # binascii.Error (bad length or padding) is a ValueError, as is
        # the rejection of a non-ASCII string.
        raise WireFormatError(f"bad base64url: {exc}") from exc


def frame_tcp_message(message_bytes: bytes) -> bytes:
    """Prefix a wire-format message with its 16-bit length."""
    if len(message_bytes) > MAX_FRAMED_LENGTH:
        raise WireFormatError(
            f"message too large for TCP framing: {len(message_bytes)}")
    return struct.pack("!H", len(message_bytes)) + message_bytes


def unframe_tcp_message(data: bytes) -> bytes:
    """Strip and verify the 16-bit length prefix."""
    if len(data) < 2:
        raise WireFormatError("framed message shorter than length prefix")
    (length,) = struct.unpack("!H", data[:2])
    payload = data[2:]
    if len(payload) != length:
        raise WireFormatError(
            f"framed length {length} does not match payload {len(payload)}")
    return payload
