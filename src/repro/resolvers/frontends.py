"""Protocol frontends exposing a resolver backend as netsim services.

Each frontend decodes its transport's encapsulation (UDP datagrams,
TCP 2-octet framing, DoT framing inside TLS, DoH GET/POST), hands the
wire-format DNS query to the backend, and re-encapsulates the response.

Latency note: the simulation is synchronous, one request at a time per
service, so a frontend stashes the backend's server-side cost from
``handle`` and reports it from ``extra_latency_ms`` — the hook the
transport layer calls right after the handler.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import json as _json

from repro.dnswire.edns import KeepaliveOption
from repro.dnswire.message import Message
from repro.doe.framing import (
    DOH_MEDIA_TYPE,
    b64url_decode,
    b64url_encode,
    frame_tcp_message,
    unframe_tcp_message,
)
from repro.doe.framing import DOH_JSON_MEDIA_TYPE
from repro.errors import WireFormatError
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.netsim.host import Host, Service, ServiceContext, TlsConfig
from repro.netsim.rand import SeededRng
from repro.resolvers.backends import ResolutionContext, ResolverBackend


def _resolution_context(ctx: ServiceContext) -> ResolutionContext:
    return ResolutionContext(
        client_address=ctx.client_address,
        resolver_address=ctx.server_address,
        timestamp=ctx.timestamp,
        transport=ctx.protocol,
        client_country=ctx.client_country,
        encrypted=ctx.encrypted,
        intercepted_by=ctx.intercepted_by,
    )


class _BackendService(Service):
    """Shared plumbing: backend dispatch plus latency stashing."""

    def __init__(self, backend: ResolverBackend,
                 base_overhead_ms: float = 0.0,
                 overhead_sigma_ms: float = 0.0,
                 keepalive_timeout_s: Optional[float] = None):
        self.backend = backend
        self.base_overhead_ms = base_overhead_ms
        self.overhead_sigma_ms = overhead_sigma_ms
        #: RFC 7828 idle timeout advertised on stream transports; None
        #: disables the option.
        self.keepalive_timeout_s = keepalive_timeout_s
        self._pending_extra_ms = 0.0
        self.queries_handled = 0

    def _resolve(self, query: Message, ctx: ServiceContext) -> Message:
        resolution = self.backend.resolve(query, _resolution_context(ctx))
        self._pending_extra_ms = resolution.extra_ms
        self.queries_handled += 1
        response = resolution.response
        if (self.keepalive_timeout_s is not None
                and ctx.protocol == "tcp" and response.opt is not None):
            response = replace(response, opt=response.opt.with_option(
                KeepaliveOption.make(self.keepalive_timeout_s)))
        return response

    def extra_latency_ms(self, rng: SeededRng,
                         ctx: Optional[ServiceContext] = None) -> float:
        extra = self._pending_extra_ms
        self._pending_extra_ms = 0.0
        if self.base_overhead_ms > 0.0:
            extra += rng.clipped_gauss(
                self.base_overhead_ms, self.overhead_sigma_ms,
                low=self.base_overhead_ms * 0.2)
        return extra


class Do53UdpService(_BackendService):
    """Clear-text DNS over UDP (port 53)."""

    def handle(self, payload: bytes, ctx: ServiceContext) -> bytes:
        query = Message.decode(payload)
        return self._resolve(query, ctx).encode()


class Do53TcpService(_BackendService):
    """Clear-text DNS over TCP with RFC 1035 framing (port 53)."""

    def handle(self, payload: bytes, ctx: ServiceContext) -> bytes:
        query = Message.decode(unframe_tcp_message(payload))
        return frame_tcp_message(self._resolve(query, ctx).encode())


class DotService(_BackendService):
    """DNS-over-TLS (RFC 7858): TCP framing inside TLS on port 853.

    ``base_overhead_ms`` models the per-query server-side cost of the
    encrypted frontend relative to the clear-text path — the quantity the
    paper's performance test measures as "several milliseconds" under
    connection reuse.
    """

    def __init__(self, backend: ResolverBackend, tls: TlsConfig,
                 base_overhead_ms: float = 4.5,
                 overhead_sigma_ms: float = 2.0,
                 keepalive_timeout_s: Optional[float] = 30.0):
        super().__init__(backend, base_overhead_ms, overhead_sigma_ms,
                         keepalive_timeout_s=keepalive_timeout_s)
        self.tls = tls

    def handle(self, payload: bytes, ctx: ServiceContext) -> bytes:
        query = Message.decode(unframe_tcp_message(payload))
        return frame_tcp_message(self._resolve(query, ctx).encode())


class DohService(_BackendService):
    """DNS-over-HTTPS (RFC 8484) on port 443.

    Accepts GET requests with a base64url ``dns`` parameter and POST
    requests with an ``application/dns-message`` body, on the configured
    template path. Other paths serve the provider webpage (useful for
    the diagnosis step that fetches resolver front pages).
    """

    #: Largest POST body accepted; a DNS message cannot legitimately
    #: exceed the 16-bit wire length, so anything bigger is junk the
    #: serving loop must reject (413) rather than decode.
    MAX_POST_BYTES = 65_535

    def __init__(self, backend: ResolverBackend, tls: TlsConfig,
                 path: str = "/dns-query",
                 base_overhead_ms: float = 5.0,
                 overhead_sigma_ms: float = 2.0,
                 webpage_html: Optional[str] = None,
                 supports_get: bool = True,
                 supports_post: bool = True,
                 supports_json: bool = False,
                 max_post_bytes: Optional[int] = None):
        super().__init__(backend, base_overhead_ms, overhead_sigma_ms)
        self.tls = tls
        self.path = path
        self.webpage_html = webpage_html
        self.supports_get = supports_get
        self.supports_post = supports_post
        #: Also answer Google-style JSON API queries (?name=&type=).
        self.supports_json = supports_json
        self.max_post_bytes = (self.MAX_POST_BYTES if max_post_bytes is None
                               else max_post_bytes)

    def handle(self, payload: HttpRequest, ctx: ServiceContext) -> HttpResponse:
        if not isinstance(payload, HttpRequest):
            return HttpResponse.error(400, "expected an HTTP request")
        if payload.path.rstrip("/") != self.path.rstrip("/"):
            if self.webpage_html is not None and payload.method == "GET":
                return HttpResponse.ok(self.webpage_html.encode(),
                                       content_type="text/html")
            return HttpResponse.error(404)
        if (self.supports_json and payload.method == "GET"
                and payload.query_param("name") is not None):
            return self._handle_json(payload, ctx)
        try:
            wire = self._extract_query(payload)
        except _DohRequestError as exc:
            return HttpResponse.error(exc.status, str(exc))
        try:
            query = Message.decode(wire)
        except WireFormatError as exc:
            return HttpResponse.error(400, f"bad DNS message: {exc}")
        response = self._resolve(query, ctx)
        return HttpResponse.ok(response.encode(),
                               content_type=DOH_MEDIA_TYPE,
                               headers={"Cache-Control": "max-age=0"})

    def _handle_json(self, request: HttpRequest,
                     ctx: ServiceContext) -> HttpResponse:
        """The Google-style JSON API: ``GET /resolve?name=...&type=A``."""
        from repro.dnswire.builder import make_query as _make_query
        from repro.dnswire.names import DnsName
        from repro.dnswire.rdtypes import RRType
        from repro.errors import NameError_

        name_text = request.query_param("name") or ""
        type_text = request.query_param("type") or "A"
        try:
            qname = DnsName.from_text(name_text)
        except (NameError_, UnicodeEncodeError):
            return HttpResponse.error(400, "bad name parameter")
        try:
            rrtype = (int(type_text) if type_text.isdigit()
                      else int(RRType[type_text.upper()]))
        except (KeyError, ValueError):
            return HttpResponse.error(400, "bad type parameter")
        response = self._resolve(_make_query(qname, rrtype), ctx)
        body = {
            "Status": response.rcode(),
            "TC": response.header.flags.tc,
            "RD": response.header.flags.rd,
            "RA": response.header.flags.ra,
            "Question": [{"name": qname.to_text(), "type": rrtype}],
            "Answer": [
                {"name": record.name.to_text(), "type": int(record.rrtype),
                 "TTL": record.ttl, "data": record.rdata.to_text()}
                for record in response.answers
            ],
        }
        return HttpResponse.ok(_json.dumps(body).encode(),
                               content_type=DOH_JSON_MEDIA_TYPE)

    def _extract_query(self, request: HttpRequest) -> bytes:
        if request.method == "GET":
            if not self.supports_get:
                raise _DohRequestError(405, "GET not supported")
            encoded = request.query_param("dns")
            if encoded is None:
                raise _DohRequestError(400, "missing dns parameter")
            try:
                return b64url_decode(encoded)
            except WireFormatError as exc:
                raise _DohRequestError(400, "bad dns parameter") from exc
        if request.method == "POST":
            if not self.supports_post:
                raise _DohRequestError(405, "POST not supported")
            if request.header("content-type") != DOH_MEDIA_TYPE:
                raise _DohRequestError(415, "wrong content type")
            if len(request.body) > self.max_post_bytes:
                raise _DohRequestError(
                    413, f"body of {len(request.body)} octets exceeds "
                         f"{self.max_post_bytes}")
            return request.body
        raise _DohRequestError(405, f"method {request.method} not allowed")


class _DohRequestError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class WebpageService(Service):
    """A plain web front page (port 80, or 443 behind TLS)."""

    def __init__(self, html: str, tls: Optional[TlsConfig] = None):
        self.html = html
        self.tls = tls

    def handle(self, payload: HttpRequest, ctx: ServiceContext) -> HttpResponse:
        if not isinstance(payload, HttpRequest):
            return HttpResponse.error(400, "expected an HTTP request")
        if payload.method != "GET":
            return HttpResponse.error(405)
        return HttpResponse.ok(self.html.encode(), content_type="text/html")


def install_resolver_frontends(
        host: Host, backend: ResolverBackend, tls: Optional[TlsConfig],
        protocols: tuple = ("do53-udp", "do53-tcp", "dot", "doh"),
        doh_path: str = "/dns-query",
        doh_backend: Optional[ResolverBackend] = None,
        webpage_html: Optional[str] = None,
        do53_keepalive_s: Optional[float] = None) -> Host:
    """Bind the requested protocol frontends onto a host.

    ``doh_backend`` lets the DoH frontend run a different policy than the
    other frontends — exactly the Quad9 situation, where only the DoH
    path went through the flaky internal forwarder. ``do53_keepalive_s``
    turns on RFC 7828 keepalive advertisements on the clear-text TCP
    frontend (the serving world uses it to drive pool lifetimes); the
    default None preserves the historical bare-TCP responses.
    """
    if "do53-udp" in protocols:
        host.bind("udp", 53, Do53UdpService(backend))
    if "do53-tcp" in protocols:
        host.bind("tcp", 53, Do53TcpService(
            backend, keepalive_timeout_s=do53_keepalive_s))
    if "dot" in protocols:
        if tls is None:
            raise WireFormatError("DoT frontend requires a TLS config")
        host.bind("tcp", 853, DotService(backend, tls))
    if "doh" in protocols:
        if tls is None:
            raise WireFormatError("DoH frontend requires a TLS config")
        host.bind("tcp", 443, DohService(
            doh_backend or backend, tls, path=doh_path,
            webpage_html=webpage_html))
    if webpage_html is not None:
        host.bind("tcp", 80, WebpageService(webpage_html))
        host.webpage = webpage_html
    return host
