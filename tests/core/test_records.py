"""Tests for status records and wire encodings."""

from __future__ import annotations

import pytest

from repro.core import (
    MSG_NETDB,
    MSG_PULL,
    MSG_SECDB,
    MSG_SYSDB,
    NetMetric,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    WireMessage,
)
from repro.core.records import SERVER_RECORD_BYTES, validate_report_keys
from repro.lang.variables import SERVER_SIDE_VARS


def sample_report(**overrides):
    values = {name: float(i) for i, name in enumerate(SERVER_SIDE_VARS)}
    values.update(overrides)
    return ServerStatusReport(host="mimas", addr="192.168.1.3",
                              group="lab", values=values)


class TestAsciiWire:
    def test_roundtrip_exact(self):
        report = sample_report(host_cpu_free=0.875, host_system_load1=1.25)
        back = ServerStatusReport.from_wire(report.to_wire())
        assert back.host == report.host
        assert back.addr == report.addr
        assert back.group == report.group
        assert back.values == report.values

    def test_wire_is_ascii_printable(self):
        wire = sample_report().to_wire()
        assert wire.isascii()
        assert "\n" not in wire

    def test_wire_size_in_thesis_ballpark(self):
        # thesis §3.2.1: "less than 200 bytes"... our 22 full-precision
        # values run a bit larger but stay well under one MTU
        assert sample_report().wire_bytes < 900

    def test_integral_values_encode_without_decimals(self):
        wire = sample_report(host_memory_total=268435456.0).to_wire()
        assert "host_memory_total=268435456" in wire
        assert "host_memory_total=268435456.0" not in wire

    def test_malformed_wire_rejected(self):
        with pytest.raises(ValueError):
            ServerStatusReport.from_wire("no pipes here")
        with pytest.raises(ValueError):
            ServerStatusReport.from_wire("h|a|g|novalue")

    def test_validate_report_keys_accepts_known(self):
        validate_report_keys(sample_report())

    def test_validate_report_keys_rejects_unknown(self):
        report = sample_report()
        report.values["host_gpu_load"] = 1.0
        with pytest.raises(ValueError, match="host_gpu_load"):
            validate_report_keys(report)


class TestRecords:
    def test_age(self):
        rec = ServerStatusRecord(report=sample_report(), updated_at=10.0)
        assert rec.age(16.0) == 6.0

    def test_net_metric_immutable(self):
        m = NetMetric(delay_ms=1.0, bw_mbps=95.0)
        with pytest.raises(AttributeError):
            m.bw_mbps = 10.0  # type: ignore[misc]


class TestWireMessages:
    def test_sysdb_size_follows_thesis_struct(self):
        records = {f"10.0.0.{i}": ServerStatusRecord(sample_report(), 0.0)
                   for i in range(5)}
        msg = WireMessage.sysdb(records)
        assert msg.type == MSG_SYSDB
        assert msg.size == 5 * SERVER_RECORD_BYTES

    def test_netdb_size_scales_with_pairs(self):
        rec = NetStatusRecord(group="g1", metrics={
            "g2": NetMetric(1.0, 90.0), "g3": NetMetric(2.0, 80.0),
        })
        msg = WireMessage.netdb({"g1": rec})
        assert msg.type == MSG_NETDB
        assert msg.size == 64

    def test_secdb_and_pull(self):
        msg = WireMessage.secdb({"h": SecurityRecord("h", 2)})
        assert msg.type == MSG_SECDB
        assert WireMessage.pull().type == MSG_PULL

    def test_an_empty_database_never_announces_unchanged(self):
        """The header announces what the body is charged — at least one
        byte — so an empty database that moved is announced with the
        positive size a receiver trusts, never taken for one left out."""
        empty = WireMessage.sysdb({})
        assert (empty.size, empty.wire_size) == (0, 1)
        assert WireMessage.sysdb(
            {"a": ServerStatusRecord(sample_report(), 0.0)}
        ).wire_size == SERVER_RECORD_BYTES

    def test_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            WireMessage(99, 10, None)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WireMessage(MSG_SYSDB, -1, None)


class TestWireTagHandlers:
    """The handler registry and the record floor are each checked once,
    at import, by an explicit raise; these tests hold those two guards
    and the registry's paths to account."""

    def test_every_wire_tag_has_a_handler(self):
        from repro.core import records

        tags = {name for name in records.__all__
                if name.startswith(("MSG_", "REPLY_"))}
        assert set(records.WIRE_TAG_HANDLERS) == tags
        assert all(records.WIRE_TAG_HANDLERS[t] for t in tags)

    def test_handler_paths_resolve_to_live_code(self):
        """Every dotted path names an importable attribute, so the table
        cannot drift into pointing at renamed or deleted handlers."""
        import importlib

        from repro.core.records import WIRE_TAG_HANDLERS

        for tag, paths in WIRE_TAG_HANDLERS.items():
            for dotted in paths:
                # split module vs class.method: import the longest module
                # prefix, then getattr the rest
                parts = dotted.split(".")
                for split in range(len(parts) - 1, 0, -1):
                    try:
                        obj = importlib.import_module(".".join(parts[:split]))
                    except ImportError:
                        continue
                    break
                else:
                    raise AssertionError(f"{tag}: cannot import {dotted}")
                for name in parts[split:]:
                    assert hasattr(obj, name), (
                        f"{tag}: {dotted} does not resolve at {name!r}")
                    obj = getattr(obj, name)

    def test_drifted_registry_raises_runtime_error(self):
        """The import-time guard is a real raise (not an assert that
        ``python -O`` strips): a registry missing a tag, or carrying a
        stray one, must refuse to import."""
        from repro.core.records import (WIRE_TAG_HANDLERS,
                                        _verify_wire_tag_registry)

        tags = {"MSG_SYSDB": 1, "MSG_PULL": 4, "REPLY_OK": 0}
        good = {t: ("x.y",) for t in tags}
        _verify_wire_tag_registry(good, tags)  # no raise

        missing = dict(good)
        del missing["MSG_PULL"]
        with pytest.raises(RuntimeError, match=r"missing=\['MSG_PULL'\]"):
            _verify_wire_tag_registry(missing, tags)

        extra = dict(good)
        extra["MSG_GHOST"] = ("x.y",)
        with pytest.raises(RuntimeError, match=r"extra=\['MSG_GHOST'\]"):
            _verify_wire_tag_registry(extra, tags)

        # and the shipped registry passes its own guard
        from repro.core import records
        _verify_wire_tag_registry(WIRE_TAG_HANDLERS, {
            name: getattr(records, name) for name in WIRE_TAG_HANDLERS})

    @pytest.mark.parametrize("change, match", [
        # two message kinds sharing a tag cross wires at dispatch
        ({"MSG_NETDB": 1}, r"two MSG_\* tags share a value"),
        # 0 is the unset tag
        ({"MSG_PULL": 0}, r"must be positive.*\['MSG_PULL'\]"),
        # a STALE reply read as success: the collision the old per-file
        # rule missed, since it compared only REPLY_OK with REPLY_NAK
        ({"REPLY_STALE": 0}, r"two REPLY_\* tags share a value"),
    ], ids=["msg-tags-collide", "msg-tag-unset", "reply-stale-equals-ok"])
    def test_colliding_or_unset_tag_values_raise(self, change, match):
        """The guard checks the tag values too, at every import and
        under ``python -O``: kinds of one family must differ, and a
        message tag must be positive."""
        from repro.core import records
        from repro.core.records import (WIRE_TAG_HANDLERS,
                                        _verify_wire_tag_registry)

        tags = {name: getattr(records, name) for name in WIRE_TAG_HANDLERS}
        with pytest.raises(RuntimeError, match=match):
            _verify_wire_tag_registry(WIRE_TAG_HANDLERS, {**tags, **change})

    def test_record_floor_guard_raises_runtime_error(self):
        from repro.core.records import _verify_record_floor

        _verify_record_floor(204, 22)  # the shipped sizing
        with pytest.raises(RuntimeError, match="cannot hold"):
            _verify_record_floor(100, 22)
