"""Tests for wizard matching logic (thesis §3.6.1) — pure, via .match()."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import (
    NetMetric,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    Wizard,
    WizardReply,
    WizardRequest,
)


def make_wizard():
    cluster = Cluster(seed=9)
    w = cluster.add_host("wiz")
    o = cluster.add_host("other")
    cluster.link(w, o, subnet="10.0.0")
    cluster.finalize()
    wizard = Wizard(cluster.sim, w.stack, w.shm)
    wizard.register_group("10.1.1", "g1")
    wizard.register_group("10.2.2", "g2")
    wizard.register_group("10.0.0", "client-net")
    return wizard


def record(host, addr, group="g1", **values):
    defaults = {
        "host_cpu_free": 1.0,
        "host_memory_free": 200.0,
        "host_cpu_bogomips": 3000.0,
        "host_system_load1": 0.0,
    }
    defaults.update(values)
    return ServerStatusRecord(
        ServerStatusReport(host=host, addr=addr, group=group, values=defaults),
        updated_at=0.0,
    )


def request(detail, n=10, option=""):
    return WizardRequest(seq=1, server_num=n, option=option, detail=detail)


CLIENT = "10.0.0.99"


class TestMatching:
    def test_filters_by_requirement(self):
        sysdb = {
            "10.1.1.1": record("fast", "10.1.1.1", host_cpu_bogomips=4771.0),
            "10.1.1.2": record("slow", "10.1.1.2", host_cpu_bogomips=1730.0),
        }
        wizard = make_wizard()
        out = wizard.match(request("host_cpu_bogomips > 4000"), CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.1"]

    def test_server_num_caps_result(self):
        sysdb = {f"10.1.1.{i}": record(f"s{i}", f"10.1.1.{i}") for i in range(1, 9)}
        wizard = make_wizard()
        out = wizard.match(request("host_cpu_free > 0.5", n=3), CLIENT, sysdb, {}, {})
        assert len(out) == 3

    def test_hard_cap_at_60(self):
        wizard = make_wizard()
        sysdb = {}
        for i in range(70):
            addr = f"10.1.{i // 250 + 1}.{i % 250 + 1}"
            sysdb[addr] = record(f"s{i}", addr)
        out = wizard.match(request("host_cpu_free > 0.5", n=100), CLIENT, sysdb, {}, {})
        assert len(out) == 60

    def test_denied_hosts_removed(self):
        sysdb = {
            "10.1.1.1": record("keep", "10.1.1.1"),
            "10.1.1.2": record("blacklisted", "10.1.1.2"),
        }
        req = request("(host_cpu_free > 0.5) && (user_denied_host1 = blacklisted)")
        wizard = make_wizard()
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.1"]

    def test_denied_by_address_also_works(self):
        sysdb = {"10.1.1.2": record("h", "10.1.1.2")}
        req = request("(host_cpu_free > 0.5) && (user_denied_host1 = 10.1.1.2)")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == []

    def test_preferred_hosts_come_first(self):
        sysdb = {f"10.1.1.{i}": record(f"s{i}", f"10.1.1.{i}") for i in range(1, 5)}
        req = request(
            "host_cpu_free > 0.5\nuser_preferred_host1 = s3", n=2)
        wizard = make_wizard()
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out[0] == "10.1.1.3"

    def test_empty_requirement_qualifies_all(self):
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        wizard = make_wizard()
        assert wizard.match(request(""), CLIENT, sysdb, {}, {}) == ["10.1.1.1"]

    def test_unparseable_requirement_returns_empty(self):
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        wizard = make_wizard()
        out = wizard.match(request("@@@ ???"), CLIENT, sysdb, {}, {})
        assert out == []
        assert wizard.parse_failures == 1

    def test_partial_bad_line_recovers(self):
        sysdb = {
            "10.1.1.1": record("good", "10.1.1.1", host_cpu_bogomips=5000.0),
            "10.1.1.2": record("bad", "10.1.1.2", host_cpu_bogomips=1000.0),
        }
        req = request("host_cpu_bogomips > 4000\n* 3 +\n")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == ["10.1.1.1"]


class TestMonitorVars:
    def _netdb(self):
        return {
            "client-net": NetStatusRecord(
                group="client-net",
                metrics={"g1": NetMetric(delay_ms=2.0, bw_mbps=95.0),
                         "g2": NetMetric(delay_ms=30.0, bw_mbps=95.0)},
            ),
            "g2": NetStatusRecord(
                group="g2",
                metrics={"client-net": NetMetric(delay_ms=30.0, bw_mbps=5.0)},
            ),
        }

    def test_delay_requirement_uses_client_group_metrics(self):
        sysdb = {
            "10.1.1.1": record("near", "10.1.1.1", group="g1"),
            "10.2.2.1": record("far", "10.2.2.1", group="g2"),
        }
        req = request("monitor_network_delay < 20")
        wizard = make_wizard()
        out = wizard.match(req, CLIENT, sysdb, self._netdb(), {})
        assert out == ["10.1.1.1"]

    def test_bw_takes_min_of_both_directions(self):
        """g2's own shaped egress (5 Mbps) must disqualify it even though
        the client-side probe saw 95 Mbps toward g2."""
        sysdb = {"10.2.2.1": record("shaped", "10.2.2.1", group="g2")}
        req = request("monitor_network_bw > 50")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, self._netdb(), {}) == []

    def test_same_group_counts_as_local(self):
        sysdb = {"10.0.0.5": record("near", "10.0.0.5", group="client-net")}
        req = request("monitor_network_bw > 50 && monitor_network_delay < 1")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == ["10.0.0.5"]

    def test_missing_metrics_disqualify(self):
        sysdb = {"10.1.1.1": record("unknown-path", "10.1.1.1", group="g1")}
        req = request("monitor_network_bw > 1")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == []


class TestSecurityVars:
    def test_secdb_overrides_probe_level(self):
        sysdb = {"10.1.1.1": record("h", "10.1.1.1", host_security_level=1.0)}
        secdb = {"h": SecurityRecord("h", level=0)}
        req = request("host_security_level >= 1")
        wizard = make_wizard()
        assert wizard.match(req, CLIENT, sysdb, {}, secdb) == []
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == ["10.1.1.1"]


class TestRankingOption:
    def _sysdb(self):
        return {
            "10.1.1.1": record("small", "10.1.1.1", host_memory_free=64.0),
            "10.1.1.2": record("large", "10.1.1.2", host_memory_free=512.0),
            "10.1.1.3": record("mid", "10.1.1.3", host_memory_free=256.0),
        }

    def test_rank_descending_default(self):
        """Thesis §6 wants '3 servers with largest memory' — the rank
        option delivers it."""
        req = request("host_cpu_free > 0.5", n=2, option="rank:host_memory_free")
        wizard = make_wizard()
        out = wizard.match(req, CLIENT, self._sysdb(), {}, {})
        assert out == ["10.1.1.2", "10.1.1.3"]

    def test_rank_ascending(self):
        req = request("host_cpu_free > 0.5", n=2,
                      option="rank:host_memory_free:asc")
        wizard = make_wizard()
        out = wizard.match(req, CLIENT, self._sysdb(), {}, {})
        assert out == ["10.1.1.1", "10.1.1.3"]

    def test_unknown_option_ignored(self):
        req = request("host_cpu_free > 0.5", option="frobnicate")
        wizard = make_wizard()
        assert len(wizard.match(req, CLIENT, self._sysdb(), {}, {})) == 3


class TestWireFormats:
    def test_request_size_tracks_fields(self):
        r = WizardRequest(seq=1, server_num=3, option="", detail="a > 1")
        assert r.wire_bytes == 12 + len("a > 1")

    def test_reply_counts_servers(self):
        r = WizardReply(seq=9, servers=("10.0.0.1", "10.0.0.2"))
        assert r.wire_bytes == 8 + len("10.0.0.1") + 1 + len("10.0.0.2") + 1

class TestOptionHardening:
    """Malformed options must never raise out of match() — they count in
    option_errors and the candidates pass through unranked."""

    def _sysdb(self):
        return {
            "10.1.1.1": record("small", "10.1.1.1", host_memory_free=64.0),
            "10.1.1.2": record("large", "10.1.1.2", host_memory_free=512.0),
        }

    def _match(self, option):
        wizard = make_wizard()
        req = request("host_cpu_free > 0.5", option=option)
        out = wizard.match(req, CLIENT, self._sysdb(), {}, {})
        return wizard, out

    def test_rank_with_no_variable(self):
        wizard, out = self._match("rank:")
        assert len(out) == 2
        assert wizard.option_errors == 1

    def test_rank_unknown_variable_passes_through(self):
        wizard, out = self._match("rank:no_such_var")
        assert len(out) == 2
        assert wizard.option_errors == 1

    def test_rank_trailing_colon_tolerated(self):
        wizard, out = self._match("rank:host_memory_free:")
        assert out == ["10.1.1.2", "10.1.1.1"]  # still ranked, descending
        assert wizard.option_errors == 0

    def test_rank_string_valued_variable(self):
        """§6 extras are strings; ranking on one must not TypeError."""
        sysdb = self._sysdb()
        for rec in sysdb.values():
            rec.report.extras["host_color"] = "blue"
        wizard = make_wizard()
        req = request("host_cpu_free > 0.5", option="rank:host_color")
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert len(out) == 2
        assert wizard.option_errors == 1

    def test_unknown_verb_counts_error(self):
        wizard, out = self._match("frobnicate")
        assert len(out) == 2
        assert wizard.option_errors == 1

    def test_empty_option_is_not_an_error(self):
        wizard, out = self._match("")
        assert len(out) == 2
        assert wizard.option_errors == 0

    def test_rank_mixed_missing_values_still_ranks(self):
        sysdb = self._sysdb()
        del sysdb["10.1.1.1"].report.values["host_memory_free"]
        wizard = make_wizard()
        req = request("host_cpu_free > 0.5", option="rank:host_memory_free")
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.2", "10.1.1.1"]  # missing sorts last (desc)
        assert wizard.option_errors == 0


class TestStatusAge:
    def test_fresh_record_qualifies_and_stale_does_not(self):
        wizard = make_wizard()
        sim = wizard.sim
        sim.run(until=20.0)  # advance the clock to 20 s
        sysdb = {
            "10.1.1.1": record("fresh", "10.1.1.1"),
            "10.1.1.2": record("stale", "10.1.1.2"),
        }
        sysdb["10.1.1.1"].updated_at = 19.0   # 1 s old
        sysdb["10.1.1.2"].updated_at = 5.0    # 15 s old
        req = request("host_status_age < 10")
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.1"]

    def test_age_can_rank(self):
        wizard = make_wizard()
        wizard.sim.run(until=30.0)
        sysdb = {
            "10.1.1.1": record("older", "10.1.1.1"),
            "10.1.1.2": record("newer", "10.1.1.2"),
        }
        sysdb["10.1.1.1"].updated_at = 10.0
        sysdb["10.1.1.2"].updated_at = 29.0
        req = request("host_cpu_free > 0.5", option="rank:host_status_age:asc")
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.2", "10.1.1.1"]


class TestCandidateOrderMemo:
    """The REPRO500 fix: sorted scan order is memoized per DB version —
    a published dict is immutable, a change arrives as a fresh dict."""

    def test_repeat_requests_reuse_the_sorted_order(self):
        wizard = make_wizard()
        sysdb = {f"10.1.1.{i}": record(f"s{i}", f"10.1.1.{i}")
                 for i in range(5, 0, -1)}
        first = wizard.match(request("host_cpu_free > 0.5"), CLIENT,
                             sysdb, {}, {})
        assert wizard.db_sort_reuses == 0
        second = wizard.match(request("host_cpu_free > 0.5"), CLIENT,
                              sysdb, {}, {})
        assert second == first == sorted(sysdb)[:5]
        assert wizard.db_sort_reuses == 1

    def test_key_change_invalidates_the_memo(self):
        wizard = make_wizard()
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        wizard.match(request("host_cpu_free > 0.5"), CLIENT, sysdb, {}, {})
        sysdb = {**sysdb, "10.1.1.2": record("b", "10.1.1.2")}
        out = wizard.match(request("host_cpu_free > 0.5"), CLIENT,
                           sysdb, {}, {})
        assert out == ["10.1.1.1", "10.1.1.2"]
        assert wizard.db_sort_reuses == 0

    def test_value_update_is_a_new_version(self):
        wizard = make_wizard()
        sysdb = {
            "10.1.1.1": record("a", "10.1.1.1"),
            "10.1.1.2": record("b", "10.1.1.2"),
        }
        wizard.match(request("host_cpu_free > 0.5"), CLIENT, sysdb, {}, {})
        sysdb = {**sysdb, "10.1.1.1": record("a", "10.1.1.1", host_cpu_free=0.1)}
        out = wizard.match(request("host_cpu_free > 0.5"), CLIENT,
                           sysdb, {}, {})
        assert out == ["10.1.1.2"]
        assert wizard.db_sort_reuses == 0

    def test_preferred_partition_order_is_first_seen(self):
        """The REPRO505 fix (dict-backed membership) must keep the old
        list semantics: preferred servers first, stable otherwise."""
        wizard = make_wizard()
        sysdb = {
            "10.1.1.1": record("plain", "10.1.1.1"),
            "10.1.1.2": record("starred", "10.1.1.2"),
        }
        req = request("(host_cpu_free > 0.5) && "
                      "(user_preferred_host1 = starred)")
        out = wizard.match(req, CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.2", "10.1.1.1"]
