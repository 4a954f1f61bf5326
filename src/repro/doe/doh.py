"""DNS-over-HTTPS client (RFC 8484).

DoH is Strict-Privacy-profile-only: the server certificate must validate
or the lookup fails — which is why TLS interception breaks DoH with a
certificate error while opportunistic DoT proceeds (Finding 2.3), and why
the paper found zero invalid certificates among public DoH resolvers
(Finding 1.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.dnswire.message import Message
from repro.doe.do53 import classify_transport_error, error_latency_ms
from repro.doe.result import FailureKind, QueryResult
from repro.errors import TlsError, TransportError, WireFormatError
from repro.httpsim.messages import HttpRequest
from repro.httpsim.uri import UriTemplate
from repro.netsim.network import ClientEnvironment, Network
from repro.netsim.rand import SeededRng
from repro.netsim.transport import TcpConnection, TlsChannel
from repro.doe.framing import DOH_JSON_MEDIA_TYPE, DOH_MEDIA_TYPE, b64url_encode
from repro.tlssim.certs import CaStore, validate_chain

DOH_PORT = 443

#: Resolves a hostname to candidate addresses (DoH bootstrap). The
#: template hostname "should be resolved to bootstrap DoH lookups (e.g.,
#: via clear-text DNS)".
BootstrapFn = Callable[[str], Tuple[str, ...]]


class DohMethod(enum.Enum):
    """The DoH request encodings: the two RFC 8484 forms of Figure 2
    plus the Google-style JSON API (``?name=&type=``)."""

    GET = "GET"
    POST = "POST"
    JSON = "JSON"


@dataclass
class _Session:
    connection: TcpConnection
    channel: TlsChannel
    address: str


class DohClient:
    """A DoH stub with bootstrap caching and connection reuse."""

    def __init__(self, network: Network, rng: SeededRng, ca_store: CaStore,
                 bootstrap: BootstrapFn,
                 method: DohMethod = DohMethod.POST,
                 pad_block: Optional[int] = 128):
        self.network = network
        self.rng = rng
        self.ca_store = ca_store
        self.bootstrap = bootstrap
        self.method = method
        self.pad_block = pad_block
        self._sessions: Dict[Tuple[str, str], _Session] = {}
        self._bootstrap_cache: Dict[str, Tuple[str, ...]] = {}
        #: Templates contacted before, enabling TLS session resumption.
        self._known_templates: set = set()

    def query(self, env: ClientEnvironment, template: UriTemplate,
              message: Message, reuse: bool = True,
              timeout_s: float = 5.0) -> QueryResult:
        """One DoH lookup against a URI template."""
        if self.pad_block:
            message = message.with_padding_to_block(self.pad_block)
        parsed, _ = template.parse()
        hostname, path, port = parsed.hostname, parsed.path, parsed.port
        label = str(template)
        key = (env.label, label)
        session = self._sessions.get(key) if reuse else None
        if session is not None and session.connection.closed:
            session = None
            self._sessions.pop(key, None)
        reused = session is not None
        latency = 0.0
        chain: tuple = ()
        report = None
        intercepted: Optional[str] = None
        try:
            if session is None:
                addresses = self._resolve_bootstrap(hostname)
                if not addresses:
                    return QueryResult.failed(
                        "doh", label, 0.0, FailureKind.UNREACHABLE,
                        f"bootstrap failed for {hostname}")
                address = addresses[0]
                connection = TcpConnection.open(
                    self.network, env, address, port, self.rng,
                    timeout_s=timeout_s)
                channel = TlsChannel(connection, server_name=hostname)
                channel.handshake(resume=(env.label, label)
                                  in self._known_templates)
                latency += connection.elapsed_ms
                self._known_templates.add((env.label, label))
                chain = channel.presented_chain
                intercepted = channel.intercepted_by
                report = validate_chain(
                    chain, self.ca_store, self.network.clock.now(),
                    expected_name=hostname)
                if not report.valid:
                    # DoH has no opportunistic fallback: terminate.
                    connection.close()
                    return QueryResult.failed(
                        "doh", label, latency, FailureKind.CERTIFICATE,
                        f"certificate invalid: "
                        f"{[f.value for f in report.failures]}",
                        presented_chain=chain, cert_report=report,
                        intercepted_by=intercepted)
                session = _Session(connection, channel, address)
                if reuse:
                    self._sessions[key] = session
            else:
                chain = session.channel.presented_chain
                intercepted = session.channel.intercepted_by
            request = self._build_request(path, hostname, message)
            before = session.connection.elapsed_ms
            response = session.channel.request(request)
            latency += session.connection.elapsed_ms - before
        except TlsError as error:
            self._sessions.pop(key, None)
            return QueryResult.failed(
                "doh", label, latency + error_latency_ms(error),
                FailureKind.TLS, str(error), presented_chain=chain,
                cert_report=report, intercepted_by=intercepted)
        except TransportError as error:
            self._sessions.pop(key, None)
            return QueryResult.failed(
                "doh", label, latency + error_latency_ms(error),
                classify_transport_error(error), str(error),
                presented_chain=chain, cert_report=report,
                intercepted_by=intercepted, reused_connection=reused)
        finally:
            if not reuse and session is not None:
                session.connection.close()
        if not response.is_success:
            return QueryResult.failed(
                "doh", label, latency, FailureKind.HTTP,
                f"HTTP {response.status} {response.reason}",
                presented_chain=chain, cert_report=report,
                intercepted_by=intercepted, reused_connection=reused)
        expected_type = (DOH_JSON_MEDIA_TYPE
                         if self.method is DohMethod.JSON
                         else DOH_MEDIA_TYPE)
        if response.header("content-type") != expected_type:
            return QueryResult.failed(
                "doh", label, latency, FailureKind.HTTP,
                f"unexpected content type "
                f"{response.header('content-type')!r}",
                presented_chain=chain, cert_report=report,
                intercepted_by=intercepted, reused_connection=reused)
        try:
            if self.method is DohMethod.JSON:
                answer = message_from_json(response.body, message)
            else:
                answer = Message.decode(response.body)
        except WireFormatError as error:
            return QueryResult.failed(
                "doh", label, latency, FailureKind.PROTOCOL, str(error),
                presented_chain=chain, cert_report=report,
                intercepted_by=intercepted, reused_connection=reused)
        return QueryResult.answered(
            "doh", label, latency, answer,
            presented_chain=chain, cert_report=report,
            intercepted_by=intercepted, reused_connection=reused)

    def probe_template(self, env: ClientEnvironment, template: UriTemplate,
                       message: Message,
                       timeout_s: float = 10.0) -> QueryResult:
        """Availability check used by DoH discovery (no connection kept)."""
        return self.query(env, template, message, reuse=False,
                          timeout_s=timeout_s)

    def _build_request(self, path: str, hostname: str,
                       message: Message) -> HttpRequest:
        if self.method is DohMethod.JSON:
            question = message.question
            assert question is not None
            return HttpRequest.get(
                f"{path}?name={question.name.to_display()}"
                f"&type={question.rrtype}",
                headers={"Accept": DOH_JSON_MEDIA_TYPE, "Host": hostname})
        wire = message.encode()
        headers = {"Accept": DOH_MEDIA_TYPE, "Host": hostname}
        if self.method is DohMethod.GET:
            return HttpRequest.get(
                f"{path}?dns={b64url_encode(wire)}", headers=headers)
        return HttpRequest.post(path, wire, DOH_MEDIA_TYPE, headers=headers)

    def _resolve_bootstrap(self, hostname: str) -> Tuple[str, ...]:
        cached = self._bootstrap_cache.get(hostname)
        if cached is None:
            cached = tuple(self.bootstrap(hostname))
            self._bootstrap_cache[hostname] = cached
        return cached

    def close_all(self) -> None:
        for session in self._sessions.values():
            session.connection.close()
        self._sessions.clear()
        self._bootstrap_cache.clear()


def message_from_json(body: bytes, query: Message) -> Message:
    """Reconstruct a wire-equivalent message from a JSON API response.

    The JSON API has no wire framing, so the client synthesises a
    :class:`Message` mirroring the original query — enough for the
    uniform classification the measurement pipeline applies.
    """
    import json

    from repro.dnswire.builder import make_response
    from repro.dnswire.names import DnsName
    from repro.dnswire.rdtypes import RRType
    from repro.dnswire.records import (
        AaaaData,
        AData,
        CnameData,
        ResourceRecord,
        TxtData,
    )
    from repro.dnswire.rdtypes import RRClass

    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"bad JSON DNS response: {exc}") from exc
    if not isinstance(parsed, dict):
        raise WireFormatError("bad JSON DNS response: not an object")
    entries = parsed.get("Answer", [])
    if not isinstance(entries, list):
        raise WireFormatError("bad JSON DNS response: Answer is not a list")
    answers = []
    for entry in entries:
        if not (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)):
            raise WireFormatError(
                f"bad JSON answer entry: {entry!r:.80}")
        try:
            name = DnsName.from_text(entry["name"])
            rrtype = int(entry["type"])
            ttl = int(entry.get("TTL", 0))
            data = str(entry.get("data", ""))
        except (KeyError, ValueError, TypeError) as exc:
            raise WireFormatError(f"bad JSON answer entry: {exc}") from exc
        if rrtype == RRType.A:
            rdata = AData(data)
        elif rrtype == RRType.AAAA:
            rdata = AaaaData(data)
        elif rrtype == RRType.CNAME:
            rdata = CnameData(DnsName.from_text(data))
        else:
            rdata = TxtData.from_text(data)
            rrtype = RRType.TXT
        answers.append(ResourceRecord(name, rrtype, RRClass.IN, ttl,
                                      rdata))
    try:
        rcode = int(parsed.get("Status", 0))
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"bad JSON DNS status: {exc}") from exc
    return make_response(query, answers=answers, rcode=rcode)
