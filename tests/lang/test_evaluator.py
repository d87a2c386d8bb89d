"""Tests for requirement evaluation semantics (thesis §3.6.1 / Fig 4.2)."""

from __future__ import annotations

from repro.lang import evaluate, parse


def ev(src, params=None):
    return evaluate(parse(src), params or {})


class TestQualification:
    def test_all_logical_true_qualifies(self):
        assert ev("a > 1\nb < 5", {"a": 2, "b": 3}).qualified

    def test_one_false_disqualifies(self):
        assert not ev("a > 1\nb < 5", {"a": 2, "b": 9}).qualified

    def test_no_logical_statements_vacuously_qualifies(self):
        assert ev("x = 3\ny = x * 2").qualified

    def test_meaningless_tautology_qualifies_everything(self):
        # the thesis' own warning: "a meaningless statement like 100 > 0
        # will make any server a qualified candidate"
        assert ev("100 > 0").qualified

    def test_undefined_var_in_logical_statement_is_false(self):
        result = ev("no_such_var > 3")
        assert not result.qualified
        assert result.logical_results == [(1, False)]

    def test_uninitialised_temp_in_logical_statement_is_false(self):
        assert not ev("t > 3\n").qualified

    def test_temp_variable_assignment_then_use(self):
        src = "threshold = 0.5\nhost_cpu_free > threshold"
        assert ev(src, {"host_cpu_free": 0.9}).qualified
        assert not ev(src, {"host_cpu_free": 0.3}).qualified

    def test_non_logical_arithmetic_does_not_affect_outcome(self):
        assert ev("a + 1000", {"a": -5000}).qualified


class TestErrors:
    def test_division_by_zero_records_error_and_fails(self):
        result = ev("z = 0\n3 / z > 1")
        assert not result.qualified
        assert any("division by 0" in e for e in result.errors)

    def test_undefined_in_non_logical_records_error(self):
        result = ev("x = ghost + 1")
        assert result.errors
        assert result.qualified  # no logical statements

    def test_string_arithmetic_rejected(self):
        result = ev("10.0.0.1 + 3 > 1")
        assert not result.qualified
        assert result.errors

    def test_string_ordering_rejected(self):
        result = ev("10.0.0.1 < 10.0.0.2")
        assert not result.qualified
        assert result.errors

    def test_unknown_function_recorded(self):
        result = ev("frobnicate(3) > 1")
        assert not result.qualified
        assert any("frobnicate" in e for e in result.errors)


class TestValues:
    def test_math_functions(self):
        assert ev("log10(100) == 2").qualified
        assert ev("exp(0) == 1").qualified
        assert ev("sqrt(16) == 4").qualified
        assert ev("abs(0-7) == 7").qualified
        assert ev("pow(2, 10) == 1024").qualified

    def test_constants(self):
        assert ev("PI > 3.14 && PI < 3.15").qualified
        assert ev("E > 2.71 && E < 2.72").qualified

    def test_power_operator(self):
        assert ev("2 ^ 10 == 1024").qualified
        assert ev("2 ^ 3 ^ 2 == 512").qualified  # right associative

    def test_string_equality(self):
        assert ev("10.0.0.1 == 10.0.0.1").qualified
        assert ev("10.0.0.1 != 10.0.0.2").qualified

    def test_logical_values_are_zero_one(self):
        result = ev("t = (3 > 1)\nt == 1")
        assert result.qualified

    def test_no_short_circuit_for_side_effects(self):
        # RHS assignment must run even when the left side is false
        result = ev("(1 > 2) && (user_denied_host1 = badbox)")
        assert not result.qualified
        assert result.env.denied_hosts() == ["badbox"]


class TestUserSideParams:
    def test_denied_hosts_collected(self):
        result = ev("user_denied_host1 = 137.132.90.182\nuser_denied_host2 = mimas")
        assert result.env.denied_hosts() == ["137.132.90.182", "mimas"]

    def test_preferred_hosts_collected(self):
        result = ev("user_preferred_host1 = sagit.comp.nus.edu.sg")
        assert result.env.preferred_hosts() == ["sagit.comp.nus.edu.sg"]

    def test_hyphenated_hostname_reconstructed(self):
        # thesis Table 5.5: user_denied_host5 = titan-x
        result = ev("user_denied_host5 = titan-x")
        assert result.env.denied_hosts() == ["titan-x"]

    def test_numeric_rhs_stays_arithmetic(self):
        result = ev("user_denied_host1 = 5 - 3")
        assert result.env.user["user_denied_host1"] == 2.0

    def test_thesis_blacklist_requirement(self):
        src = ("(host_cpu_free > 0.9) && (host_memory_free > 5) && "
               "(user_denied_host1 = telesto) && (user_denied_host2 = mimas) && "
               "(user_denied_host3 = phoebe) && (user_denied_host4 = calypso) && "
               "(user_denied_host5 = titan-x)")
        result = ev(src, {"host_cpu_free": 0.99, "host_memory_free": 100.0})
        assert result.qualified
        assert set(result.env.denied_hosts()) == {
            "telesto", "mimas", "phoebe", "calypso", "titan-x",
        }


class TestThesisSample:
    def test_full_sample_requirement(self):
        src = """host_system_load1 < 1
host_memory_used <= 250*1024*1024
host_cpu_free >= 0.9
#ldjfaldjfalsjff #akldjfaldfj
#some comments
host_network_tbytesps < 1024*1024  # for network IO
# comments
user_denied_host1 = 137.132.90.182
user_preferred_host1 = sagit.ddns.comp.nus.edu.sg
#
"""
        good = {
            "host_system_load1": 0.4,
            "host_memory_used": 100 * 1024 * 1024,
            "host_cpu_free": 0.95,
            "host_network_tbytesps": 2048.0,
        }
        result = ev(src, good)
        assert result.qualified
        assert result.env.denied_hosts() == ["137.132.90.182"]
        assert result.env.preferred_hosts() == ["sagit.ddns.comp.nus.edu.sg"]

        overloaded = dict(good, host_system_load1=2.5)
        assert not ev(src, overloaded).qualified
