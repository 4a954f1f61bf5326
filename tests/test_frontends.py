"""Tests for the resolver protocol frontends (server side)."""

import pytest

from repro.dnswire import DnsName, Message, make_query
from repro.doe.framing import (
    b64url_decode,
    b64url_encode,
    frame_tcp_message,
    unframe_tcp_message,
)
from repro.errors import WireFormatError
from repro.httpsim import HttpRequest
from repro.netsim.host import ServiceContext, TlsConfig
from repro.resolvers import (
    DnsUniverse,
    Do53TcpService,
    Do53UdpService,
    DohService,
    DotService,
    RecursiveBackend,
    WebpageService,
    install_resolver_frontends,
)
from repro.tlssim import CertificateAuthority, make_chain

WWW = DnsName.from_text("www.example.com")


@pytest.fixture()
def backend(rng):
    universe = DnsUniverse()
    universe.host_a("www.example.com", "93.184.216.34")
    return RecursiveBackend(universe, rng)


@pytest.fixture()
def tls():
    ca = CertificateAuthority.root("Frontends Root")
    return TlsConfig(cert_chain=make_chain(ca, "dns.test", "2018-01-01",
                                           "2020-01-01"))


def service_ctx(**overrides):
    defaults = dict(client_address="5.5.5.5", server_address="7.7.7.7",
                    port=53, protocol="udp", timestamp=0.0,
                    client_country="DE")
    defaults.update(overrides)
    return ServiceContext(**defaults)


class TestDo53Services:
    def test_udp_roundtrip(self, backend):
        service = Do53UdpService(backend)
        response_wire = service.handle(make_query(WWW).encode(),
                                       service_ctx())
        response = Message.decode(response_wire)
        assert response.answer_addresses() == ("93.184.216.34",)
        assert service.queries_handled == 1

    def test_tcp_framing(self, backend):
        service = Do53TcpService(backend)
        framed = service.handle(frame_tcp_message(make_query(WWW).encode()),
                                service_ctx(protocol="tcp"))
        response = Message.decode(unframe_tcp_message(framed))
        assert response.is_response()

    def test_extra_latency_consumed_once(self, backend, rng):
        service = Do53UdpService(backend)
        service.handle(make_query(WWW).encode(), service_ctx())
        first = service.extra_latency_ms(rng)
        second = service.extra_latency_ms(rng)
        assert first > 0
        assert second == 0.0


class TestDotService:
    def test_roundtrip_with_overhead(self, backend, tls, rng):
        service = DotService(backend, tls)
        framed = service.handle(frame_tcp_message(make_query(WWW).encode()),
                                service_ctx(protocol="tcp", port=853,
                                            encrypted=True))
        assert Message.decode(unframe_tcp_message(framed)).is_response()
        assert service.extra_latency_ms(rng) >= service.base_overhead_ms * 0.2

    def test_has_tls_config(self, backend, tls):
        assert DotService(backend, tls).tls is tls


class TestDohService:
    def make(self, backend, tls, **kwargs):
        return DohService(backend, tls, path="/dns-query", **kwargs)

    def test_get_request(self, backend, tls):
        service = self.make(backend, tls)
        encoded = b64url_encode(make_query(WWW).encode())
        response = service.handle(
            HttpRequest.get(f"/dns-query?dns={encoded}"),
            service_ctx(protocol="tcp", port=443, encrypted=True))
        assert response.status == 200
        assert response.header("content-type") == "application/dns-message"
        assert Message.decode(response.body).answer_addresses() == (
            "93.184.216.34",)

    def test_post_request(self, backend, tls):
        service = self.make(backend, tls)
        request = HttpRequest.post("/dns-query", make_query(WWW).encode(),
                                   "application/dns-message")
        response = service.handle(request, service_ctx(protocol="tcp"))
        assert response.status == 200

    def test_missing_dns_parameter_400(self, backend, tls):
        response = self.make(backend, tls).handle(
            HttpRequest.get("/dns-query"), service_ctx())
        assert response.status == 400

    def test_bad_base64_400(self, backend, tls):
        response = self.make(backend, tls).handle(
            HttpRequest.get("/dns-query?dns=!!!"), service_ctx())
        assert response.status == 400

    @pytest.mark.parametrize("encoded", ["a", "\u00e9"])
    def test_undecodable_dns_parameter_400(self, backend, tls, encoded):
        response = self.make(backend, tls).handle(
            HttpRequest.get(f"/dns-query?dns={encoded}"), service_ctx())
        assert response.status == 400
        assert b"bad dns parameter" in response.body

    def test_wrong_content_type_415(self, backend, tls):
        request = HttpRequest.post("/dns-query", b"\x00" * 12,
                                   "text/plain")
        assert self.make(backend, tls).handle(request,
                                              service_ctx()).status == 415

    def test_oversized_post_413(self, backend, tls):
        request = HttpRequest.post("/dns-query", b"\x00" * 70_000,
                                   "application/dns-message")
        assert self.make(backend, tls).handle(request,
                                              service_ctx()).status == 413

    def test_post_at_the_limit_is_decoded_not_rejected(self, backend, tls):
        # Exactly max_post_bytes octets must pass the size gate: the
        # 413 bound is strictly-greater-than, per RFC 8484's "larger
        # than the server is willing to process".
        service = self.make(backend, tls, max_post_bytes=1024)
        request = HttpRequest.post("/dns-query", b"\x00" * 1024,
                                   "application/dns-message")
        assert service.handle(request, service_ctx()).status != 413

    def test_custom_post_limit(self, backend, tls):
        service = self.make(backend, tls, max_post_bytes=64)
        request = HttpRequest.post("/dns-query", b"\x00" * 65,
                                   "application/dns-message")
        assert service.handle(request, service_ctx()).status == 413

    def test_valid_query_over_tiny_limit_413(self, backend, tls):
        # Even a well-formed DNS message is shed when it exceeds the
        # configured bound: the size gate runs before the decoder.
        service = self.make(backend, tls, max_post_bytes=8)
        request = HttpRequest.post("/dns-query", make_query(WWW).encode(),
                                   "application/dns-message")
        assert service.handle(request, service_ctx()).status == 413

    def test_wrong_method_405(self, backend, tls):
        request = HttpRequest("PUT", "/dns-query")
        assert self.make(backend, tls).handle(request,
                                              service_ctx()).status == 405

    def test_get_disabled_405(self, backend, tls):
        service = self.make(backend, tls, supports_get=False)
        encoded = b64url_encode(make_query(WWW).encode())
        response = service.handle(
            HttpRequest.get(f"/dns-query?dns={encoded}"), service_ctx())
        assert response.status == 405

    def test_unknown_path_404(self, backend, tls):
        response = self.make(backend, tls).handle(
            HttpRequest.get("/elsewhere"), service_ctx())
        assert response.status == 404

    def test_unknown_path_serves_webpage_when_configured(self, backend, tls):
        service = self.make(backend, tls,
                            webpage_html="<title>provider</title>")
        response = service.handle(HttpRequest.get("/"), service_ctx())
        assert response.status == 200
        assert b"provider" in response.body

    def test_undecodable_dns_message_400(self, backend, tls):
        encoded = b64url_encode(b"\x00\x01")
        response = self.make(backend, tls).handle(
            HttpRequest.get(f"/dns-query?dns={encoded}"), service_ctx())
        assert response.status == 400

    def test_non_http_payload_400(self, backend, tls):
        assert self.make(backend, tls).handle(
            b"raw bytes", service_ctx()).status == 400


class TestWebpageService:
    def test_get(self):
        service = WebpageService("<title>hello</title>")
        response = service.handle(HttpRequest.get("/"), service_ctx())
        assert response.status == 200
        assert b"hello" in response.body

    def test_post_rejected(self):
        service = WebpageService("x")
        response = service.handle(HttpRequest.post("/", b"", "t/x"),
                                  service_ctx())
        assert response.status == 405


class TestInstallFrontends:
    def test_default_install(self, backend, tls):
        from repro.netsim import Host, country
        host = Host(address="9.9.9.8", country_code="US",
                    point=country("US").point)
        install_resolver_frontends(host, backend, tls,
                                   webpage_html="<title>x</title>")
        assert host.service_on("udp", 53) is not None
        assert host.service_on("tcp", 53) is not None
        assert host.service_on("tcp", 853) is not None
        assert host.service_on("tcp", 443) is not None
        assert host.service_on("tcp", 80) is not None

    def test_doh_can_use_separate_backend(self, backend, tls, rng):
        from repro.netsim import Host, country
        from repro.resolvers import FlakyForwardingBackend
        host = Host(address="9.9.9.7", country_code="US",
                    point=country("US").point)
        flaky = FlakyForwardingBackend(backend, rng,
                                       slow_upstream_probability=1.0)
        install_resolver_frontends(host, backend, tls, doh_backend=flaky,
                                   protocols=("dot", "doh"))
        doh = host.service_on("tcp", 443)
        dot = host.service_on("tcp", 853)
        assert doh.backend is flaky
        assert dot.backend is backend

    def test_dot_requires_tls(self, backend):
        from repro.netsim import Host, country
        from repro.errors import WireFormatError
        host = Host(address="9.9.9.6", country_code="US",
                    point=country("US").point)
        with pytest.raises(WireFormatError):
            install_resolver_frontends(host, backend, None,
                                       protocols=("dot",))


class TestBase64Url:
    @pytest.mark.parametrize("encoded", [
        "a",        # one character past a multiple of four
        "\u00e9",   # not ASCII
    ])
    def test_undecodable_input_is_a_wire_format_error(self, encoded):
        with pytest.raises(WireFormatError):
            b64url_decode(encoded)
