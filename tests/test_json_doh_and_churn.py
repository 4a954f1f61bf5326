"""Tests for the JSON DoH API and the scan churn analysis."""

import json

import pytest

from repro.core.scan import ScanCampaign
from repro.core.scan.churn import (
    cohort_survival,
    provider_deltas,
    round_churn,
)
from repro.dnswire import DnsName, Rcode, RRType, make_query
from repro.doe import DohClient, DohMethod, FailureKind
from repro.doe.doh import message_from_json
from repro.errors import WireFormatError
from repro.httpsim import HttpRequest
from repro.httpsim.uri import UriTemplate
from repro.resolvers.frontends import DOH_JSON_MEDIA_TYPE, DohService

WWW = DnsName.from_text("www.example.com")


@pytest.fixture()
def json_service(mini_world, rng):
    """Enable the JSON API on the mini-world resolver."""
    service = mini_world["host"].service_on("tcp", 443)
    service.supports_json = True
    return service


class TestJsonServer:
    def _get(self, service, target, ctx_kwargs=None):
        from repro.netsim.host import ServiceContext
        ctx = ServiceContext(client_address="1.2.3.4",
                             server_address="7.7.7.7", port=443,
                             protocol="tcp", timestamp=0.0)
        return service.handle(HttpRequest.get(target), ctx)

    def test_json_answer(self, json_service):
        response = self._get(json_service,
                             "/dns-query?name=www.example.com&type=A")
        assert response.status == 200
        assert response.header("content-type") == DOH_JSON_MEDIA_TYPE
        body = json.loads(response.body)
        assert body["Status"] == 0
        assert body["Answer"][0]["data"] == "93.184.216.34"

    def test_numeric_type_accepted(self, json_service):
        response = self._get(json_service,
                             "/dns-query?name=www.example.com&type=1")
        assert json.loads(response.body)["Answer"]

    def test_nxdomain_status(self, json_service):
        response = self._get(json_service,
                             "/dns-query?name=missing.nowhere&type=A")
        assert json.loads(response.body)["Status"] == int(Rcode.NXDOMAIN)

    def test_bad_name_400(self, json_service):
        response = self._get(json_service, "/dns-query?name=a..b&type=A")
        assert response.status == 400

    def test_bad_type_400(self, json_service):
        response = self._get(json_service,
                             "/dns-query?name=www.example.com&type=WAT")
        assert response.status == 400

    def test_json_disabled_by_default(self, mini_world, rng):
        from repro.resolvers import RecursiveBackend
        service = mini_world["host"].service_on("tcp", 443)
        service.supports_json = False
        response = self._get(service,
                             "/dns-query?name=www.example.com&type=A")
        # Without JSON support, a name= query is a missing-dns-param 400.
        assert response.status == 400


class TestJsonClient:
    def test_end_to_end(self, mini_world, rng, trust, json_service):
        client = DohClient(mini_world["network"], rng.fork("c"),
                           trust["store"],
                           bootstrap=mini_world["universe"].resolve_public,
                           method=DohMethod.JSON)
        template = UriTemplate(
            f"https://{mini_world['hostname']}/dns-query{{?dns}}")
        result = client.query(mini_world["env"], template,
                              make_query(WWW, msg_id=3))
        assert result.ok
        assert result.addresses() == ("93.184.216.34",)

    def test_wire_client_against_json_only_path(self, mini_world, rng,
                                                trust):
        # A POST (wire-format) client still works when JSON is enabled.
        service = mini_world["host"].service_on("tcp", 443)
        service.supports_json = True
        client = DohClient(mini_world["network"], rng.fork("c"),
                           trust["store"],
                           bootstrap=mini_world["universe"].resolve_public,
                           method=DohMethod.POST)
        template = UriTemplate(
            f"https://{mini_world['hostname']}/dns-query{{?dns}}")
        assert client.query(mini_world["env"], template,
                            make_query(WWW, msg_id=4)).ok

    def test_message_from_json_roundtrip(self):
        query = make_query(WWW, RRType.A, msg_id=5)
        body = json.dumps({
            "Status": 0,
            "Answer": [{"name": "www.example.com.", "type": 1,
                        "TTL": 300, "data": "93.184.216.34"}],
        }).encode()
        message = message_from_json(body, query)
        assert message.answer_addresses() == ("93.184.216.34",)
        assert message.header.msg_id == 5

    def test_message_from_json_cname(self):
        query = make_query(WWW, RRType.A, msg_id=6)
        body = json.dumps({
            "Status": 0,
            "Answer": [
                {"name": "www.example.com.", "type": 5, "TTL": 60,
                 "data": "real.example.com."},
                {"name": "real.example.com.", "type": 1, "TTL": 60,
                 "data": "192.0.2.9"},
            ],
        }).encode()
        message = message_from_json(body, query)
        assert message.answer_addresses() == ("192.0.2.9",)

    def test_message_from_json_rejects_garbage(self):
        query = make_query(WWW, msg_id=7)
        with pytest.raises(WireFormatError):
            message_from_json(b"not json", query)
        with pytest.raises(WireFormatError):
            message_from_json(json.dumps(
                {"Answer": [{"type": "x"}]}).encode(), query)

    @pytest.mark.parametrize("body", [b"[]", b"null", b"5"])
    def test_message_from_json_rejects_non_object_body(self, body):
        with pytest.raises(WireFormatError):
            message_from_json(body, make_query(WWW, msg_id=8))

    @pytest.mark.parametrize("answer", [5, None, {"name": "a.example."}])
    def test_message_from_json_rejects_non_list_answer(self, answer):
        body = json.dumps({"Status": 0, "Answer": answer}).encode()
        with pytest.raises(WireFormatError):
            message_from_json(body, make_query(WWW, msg_id=9))

    def test_message_from_json_rejects_non_string_name(self):
        body = json.dumps({"Status": 0, "Answer": [
            {"name": 5, "type": 1, "data": "192.0.2.9"}]}).encode()
        with pytest.raises(WireFormatError):
            message_from_json(body, make_query(WWW, msg_id=10))

    @pytest.mark.parametrize("status", ["x", None])
    def test_message_from_json_rejects_non_integer_status(self, status):
        body = json.dumps({"Status": status}).encode()
        with pytest.raises(WireFormatError):
            message_from_json(body, make_query(WWW, msg_id=11))


class TestChurn:
    @pytest.fixture(scope="class")
    def campaign(self):
        from tests.conftest import tiny_config
        from repro.world.scenario import build_scenario
        scenario = build_scenario(tiny_config(seed=23))
        return ScanCampaign(scenario).run(rounds=4, include_doh=False)

    def test_round_churn_shape(self, campaign):
        churns = round_churn(campaign)
        assert len(churns) == 4
        first = churns[0]
        assert first.arrived == first.total
        assert first.departed == 0
        # Growth dominates this campaign: arrivals outnumber departures.
        assert sum(churn.arrived for churn in churns[1:]) > sum(
            churn.departed for churn in churns[1:])

    def test_churn_rate_bounded(self, campaign):
        for churn in round_churn(campaign)[1:]:
            assert 0.0 <= churn.churn_rate < 0.5

    def test_cohort_survival_monotone_decreasing(self, campaign):
        survival = cohort_survival(campaign)
        assert survival[0] == pytest.approx(1.0)
        assert all(earlier >= later - 1e-9 for earlier, later
                   in zip(survival, survival[1:]))
        # The Chinese cloud shutdown bites, but most of the cohort lives.
        assert survival[-1] > 0.7

    def test_provider_deltas_highlight_movers(self, campaign):
        deltas = provider_deltas(campaign, top_n=5)
        keys = [key for key, _, _, _ in deltas]
        # CleanBrowsing's growth and the CN cloud's decline are the
        # paper's two headline movers.
        assert "cleanbrowsing.org" in keys
        assert any(delta < 0 for _, _, _, delta in deltas)
