"""DNSCrypt model (client and service).

DNSCrypt predates DoT/DoH, does not use standard TLS, and runs over UDP
or TCP on port 443 with an X25519-XSalsa20Poly1305 construction. The
measurement pipeline needs its operational properties — certificate
fetch via a clear-text TXT bootstrap query, strictly no fallback,
per-query sealing overhead — rather than its cryptography, so the
sealing is modelled structurally (a keyed envelope checked for the
right provider key) and the bootstrap as a plain DNS TXT exchange on
the same channel, mirroring the real protocol's
``2.dnscrypt-cert.<provider>`` query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.dnswire.builder import make_query, make_response
from repro.dnswire.message import Message
from repro.dnswire.names import DnsName
from repro.dnswire.rdtypes import RRType
from repro.dnswire.records import ResourceRecord
from repro.doe.do53 import classify_transport_error, error_latency_ms
from repro.doe.result import FailureKind, QueryResult
from repro.errors import TransportError, WireFormatError
from repro.netsim.host import Service, ServiceContext
from repro.netsim.network import ClientEnvironment, Network
from repro.netsim.rand import SeededRng
from repro.netsim.transport import UdpExchange
from repro.resolvers.backends import ResolutionContext, ResolverBackend

DNSCRYPT_PORT = 443
_MAGIC = b"DNSC"

#: Left-most labels of the conventional certificate bootstrap query.
CERT_QUERY_PREFIX = "2.dnscrypt-cert"


@dataclass(frozen=True)
class ProviderKey:
    """A DNSCrypt provider's published public key."""

    provider_name: str
    public_key: str

    def to_txt(self) -> str:
        return f"provider={self.provider_name} key={self.public_key}"

    @classmethod
    def from_txt(cls, text: str) -> "ProviderKey":
        fields = dict(token.split("=", 1) for token in text.split()
                      if "=" in token)
        if "provider" not in fields or "key" not in fields:
            raise WireFormatError(
                f"not a DNSCrypt certificate TXT record: {text!r}")
        return cls(fields["provider"], fields["key"])


def seal(key: ProviderKey, wire: bytes) -> bytes:
    """Structurally 'encrypt' a query under a provider key."""
    header = key.public_key.encode()
    return _MAGIC + len(header).to_bytes(1, "big") + header + wire


def unseal(key: ProviderKey, payload: bytes) -> bytes:
    """Reverse :func:`seal`; rejects envelopes under a different key."""
    if payload[:4] != _MAGIC:
        raise WireFormatError("not a DNSCrypt envelope")
    if len(payload) < 5:
        raise WireFormatError("DNSCrypt envelope has no key length")
    key_end = 5 + payload[4]
    if key_end > len(payload):
        raise WireFormatError("DNSCrypt key length runs past the envelope")
    try:
        sealed_key = payload[5:key_end].decode()
    except UnicodeDecodeError as exc:
        raise WireFormatError("DNSCrypt key is not UTF-8") from exc
    if sealed_key != key.public_key:
        raise WireFormatError("DNSCrypt key mismatch")
    return payload[key_end:]


def is_cert_query(message: Message) -> bool:
    question = message.question
    if question is None or question.rrtype != RRType.TXT:
        return False
    return question.name.to_text().startswith(CERT_QUERY_PREFIX)


class DnsCryptService(Service):
    """Server side: unseal, resolve, re-seal.

    Clear-text TXT queries for ``2.dnscrypt-cert*`` are answered with
    the provider certificate, which is how a client (or scanner) with no
    prior knowledge of the provider bootstraps the sealing key — the
    only unencrypted exchange the protocol permits.

    Pending backend latency is keyed per connection (client address +
    port) so interleaved clients, and shards sharing a pristine world,
    cannot observe each other's stashed cost.
    """

    def __init__(self, backend: ResolverBackend, key: ProviderKey,
                 base_overhead_ms: float = 3.5):
        self.backend = backend
        self.key = key
        self.base_overhead_ms = base_overhead_ms
        self._pending_extra_ms: Dict[Optional[Tuple[str, int]], float] = {}

    @staticmethod
    def _conn_key(ctx: Optional[ServiceContext]) -> Optional[Tuple[str, int]]:
        if ctx is None:
            return None
        return (ctx.client_address, ctx.port)

    def handle(self, payload: bytes, ctx: ServiceContext) -> bytes:
        conn = self._conn_key(ctx)
        if payload[:4] != _MAGIC:
            # Clear-text bootstrap path: certificate TXT fetch.
            query = Message.decode(payload)
            if not is_cert_query(query):
                raise WireFormatError("not a DNSCrypt envelope")
            self._pending_extra_ms[conn] = 0.0
            record = ResourceRecord.txt(query.question.name,
                                        self.key.to_txt())
            return make_response(query, answers=(record,)).encode()
        wire = unseal(self.key, payload)
        query = Message.decode(wire)
        resolution = self.backend.resolve(query, ResolutionContext(
            client_address=ctx.client_address,
            resolver_address=ctx.server_address,
            timestamp=ctx.timestamp,
            transport=ctx.protocol,
            encrypted=True,
        ))
        self._pending_extra_ms[conn] = resolution.extra_ms
        return seal(self.key, resolution.response.encode())

    def extra_latency_ms(self, rng: SeededRng,
                         ctx: Optional[ServiceContext] = None) -> float:
        conn = self._conn_key(ctx)
        if conn is None:
            pending = sum(self._pending_extra_ms.values())
            self._pending_extra_ms.clear()
        else:
            pending = self._pending_extra_ms.pop(conn, 0.0)
        return pending + rng.clipped_gauss(self.base_overhead_ms, 1.5,
                                           low=0.5)


class DnsCryptClient:
    """Client side: pinned provider key, queries over UDP port 443.

    DNSCrypt has no fallback semantics: when the sealed exchange fails
    the query fails — clients never retry in clear text. Callers that
    do not know the provider key in advance fetch it first with
    :meth:`fetch_certificate`.
    """

    def __init__(self, network: Network, rng: SeededRng):
        self.network = network
        self.rng = rng

    def fetch_certificate(
            self, env: ClientEnvironment, resolver_ip: str,
            timeout_s: float = 5.0,
            port: int = DNSCRYPT_PORT
    ) -> Union[Tuple[ProviderKey, float], QueryResult]:
        """Bootstrap the provider key via the clear-text TXT query.

        Returns ``(key, elapsed_ms)`` on success, or a failed
        :class:`QueryResult` describing what went wrong.
        """
        query = make_query(DnsName.from_text(CERT_QUERY_PREFIX),
                           RRType.TXT,
                           msg_id=self.rng.randint(1, 0xFFFF))
        try:
            response_wire, elapsed = UdpExchange.exchange(
                self.network, env, resolver_ip, port, query.encode(),
                self.rng, timeout_s=timeout_s)
        except TransportError as error:
            return QueryResult.failed(
                "dnscrypt", resolver_ip, error_latency_ms(error),
                classify_transport_error(error), str(error))
        try:
            response = Message.decode(response_wire)
        except WireFormatError as error:
            return QueryResult.failed("dnscrypt", resolver_ip, elapsed,
                                      FailureKind.PROTOCOL, str(error))
        for record in response.answers:
            if record.rrtype != RRType.TXT:
                continue
            strings = getattr(record.rdata, "strings", ())
            text = b"".join(strings).decode("utf-8", errors="replace")
            try:
                return ProviderKey.from_txt(text), elapsed
            except WireFormatError:
                continue
        return QueryResult.failed(
            "dnscrypt", resolver_ip, elapsed, FailureKind.PROTOCOL,
            "no DNSCrypt certificate in bootstrap response")

    def query(self, env: ClientEnvironment, resolver_ip: str,
              key: ProviderKey, message: Message,
              timeout_s: float = 5.0,
              port: int = DNSCRYPT_PORT) -> QueryResult:
        payload = seal(key, message.encode())
        try:
            response_payload, elapsed = UdpExchange.exchange(
                self.network, env, resolver_ip, port, payload, self.rng,
                timeout_s=timeout_s)
        except TransportError as error:
            return QueryResult.failed(
                "dnscrypt", resolver_ip, error_latency_ms(error),
                classify_transport_error(error), str(error))
        except WireFormatError as error:
            # The server rejected the envelope (stale or wrong key).
            return QueryResult.failed("dnscrypt", resolver_ip, 0.0,
                                      FailureKind.PROTOCOL, str(error))
        try:
            response = Message.decode(unseal(key, response_payload))
        except WireFormatError as error:
            return QueryResult.failed("dnscrypt", resolver_ip, elapsed,
                                      FailureKind.PROTOCOL, str(error))
        return QueryResult.answered("dnscrypt", resolver_ip, elapsed,
                                    response)
