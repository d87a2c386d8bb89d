"""Client pre-submit static check + wizard NAK end-to-end."""

from __future__ import annotations

import pytest

from repro.core import REPLY_OK, RequirementRejected
from tests.conftest import run_process
from tests.core.test_client_selection import small_deployment

UNSAT = "host_cpu_free > 2"


class TestLocalPrecheck:
    def test_unsatisfiable_rejected_before_any_packet(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected) as exc:
            list(client.request_servers(UNSAT, 2))
        assert "REQ101" in str(exc.value)
        assert client.requests_sent == 0
        assert client.precheck_rejections == 1

    def test_misspelling_rejected_locally(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected) as exc:
            list(client.request_servers("host_cpu_fre > 0.9", 2))
        assert "host_cpu_free" in str(exc.value)  # did-you-mean survives
        assert client.requests_sent == 0

    def test_parse_failure_rejected_locally(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(RequirementRejected, match="does not parse"):
            list(client.request_servers("@@@ ???", 2))

    def test_warning_only_requirement_still_goes_out(self):
        """Plain unknown names are warnings (thesis: undefined-in-logical
        evaluates false), so the request must reach the wizard."""
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("a > 0", 2)
            return reply

        reply = run_process(cluster.sim, p(), until=30.0)
        assert reply.status == REPLY_OK
        assert reply.servers == ()  # undefined var disqualifies everyone
        assert client.requests_sent == 1
        assert client.precheck_rejections == 0

    def test_precheck_uses_client_compile_cache(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        for _ in range(3):
            with pytest.raises(RequirementRejected):
                list(client.request_servers(UNSAT, 2))
        assert client.compile_cache.misses == 1
        assert client.compile_cache.hits == 2
        assert client.precheck_rejections == 3


class TestWizardNakEndToEnd:
    def test_precheck_false_gets_wizard_nak(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            try:
                yield from client.request_servers(UNSAT, 2, precheck=False)
            except RequirementRejected as exc:
                return exc

        exc = run_process(cluster.sim, p(), until=30.0)
        assert isinstance(exc, RequirementRejected)
        assert any(d.code == "REQ101" for d in exc.diagnostics)
        assert client.requests_sent == 1
        assert dep.wizard.requests_rejected_static == 1

    def test_smart_sockets_raises_on_nak(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            try:
                yield from client.smart_sockets(UNSAT, 2, precheck=False)
            except RequirementRejected as exc:
                return ("rejected", [d.code for d in exc.diagnostics])

        verdict, codes = run_process(cluster.sim, p(), until=30.0)
        assert verdict == "rejected"
        assert "REQ101" in codes

    def test_good_requirement_unaffected_by_precheck(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers(
                "host_cpu_bogomips > 2500", 5)
            return sorted(cluster.network.hostname_of(a)
                          for a in reply.servers)

        assert run_process(cluster.sim, p(), until=30.0) == ["srv1", "srv2"]
        assert client.precheck_rejections == 0
