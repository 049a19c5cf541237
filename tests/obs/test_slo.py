"""The SLO engine: every rule both ways, and fail-closed semantics."""

import pytest

from repro.artifact import render_json
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import (
    PolicyError,
    evaluate_slo,
    load_policy,
    policy_digest,
)


def _aggregate(escaped=0, duty=0.85, floor=2.0,
               latencies=(450, 500, 550), net_latencies=(90_000, 110_000)):
    sketch = QuantileSketch()
    sketch.observe_many(latencies)
    net_sketch = QuantileSketch()
    net_sketch.observe_many(net_latencies)
    return {
        "counters": {"faults.escaped": escaped},
        "floors": {"calls_per_kcycle": floor},
        "sketch": sketch.to_dict(),
        "net_sketch": net_sketch.to_dict(),
        "derived": {"revocation_duty_cycle": duty},
    }


def _policy(*rules):
    return {"version": 1, "rules": list(rules)}


def _one(aggregate, rule):
    results = evaluate_slo(aggregate, _policy(rule))["results"]
    assert len(results) == 1
    return results[0]


class TestRules:
    def test_latency_quantile_both_ways(self):
        ok = _one(_aggregate(), {"rule": "latency-quantile", "q": 0.5,
                                 "max_cycles": 600})
        assert ok["ok"] and ok["observed"] <= 600
        bad = _one(_aggregate(), {"rule": "latency-quantile", "q": 0.99,
                                  "max_cycles": 100})
        assert not bad["ok"]

    def test_latency_quantile_validates_q(self):
        bad = _one(_aggregate(), {"rule": "latency-quantile", "q": 1.5,
                                  "max_cycles": 100})
        assert not bad["ok"] and "outside" in bad["detail"]

    def test_latency_quantile_fails_closed_on_empty_sketch(self):
        """An empty sketch has no quantile: reporting 0 would pass any
        bound."""
        bad = _one(_aggregate(latencies=()),
                   {"rule": "latency-quantile", "q": 0.99,
                    "max_cycles": 600})
        assert not bad["ok"] and "empty" in bad["detail"]
        assert bad["observed"] is None

    def test_latency_quantile_fails_closed_without_sketch(self):
        aggregate = _aggregate()
        del aggregate["sketch"]
        bad = _one(aggregate, {"rule": "latency-quantile", "q": 0.5,
                               "max_cycles": 600})
        assert not bad["ok"] and "no sketch" in bad["detail"]

    def test_revocation_duty_cycle(self):
        assert _one(_aggregate(duty=0.8),
                    {"rule": "revocation-duty-cycle", "max": 0.9})["ok"]
        assert not _one(_aggregate(duty=0.95),
                        {"rule": "revocation-duty-cycle", "max": 0.9})["ok"]

    def test_fault_escapes_budget_is_exact(self):
        assert _one(_aggregate(escaped=0), {"rule": "fault-escapes", "max": 0})["ok"]
        assert not _one(_aggregate(escaped=1),
                        {"rule": "fault-escapes", "max": 0})["ok"]

    def test_throughput_floor(self):
        assert _one(_aggregate(floor=2.0),
                    {"rule": "throughput-floor", "min_calls_per_kcycle": 1.5})["ok"]
        assert not _one(_aggregate(floor=1.0),
                        {"rule": "throughput-floor", "min_calls_per_kcycle": 1.5})["ok"]

    def test_missing_bound_fails_not_crashes(self):
        assert not _one(_aggregate(), {"rule": "fault-escapes"})["ok"]

    def test_net_packet_latency_quantile_both_ways(self):
        ok = _one(_aggregate(), {"rule": "net-packet-latency-quantile",
                                 "q": 0.99, "max_cycles": 200_000})
        assert ok["ok"] and ok["observed"] <= 200_000
        bad = _one(_aggregate(), {"rule": "net-packet-latency-quantile",
                                  "q": 0.99, "max_cycles": 10_000})
        assert not bad["ok"]

    def test_net_packet_latency_validates_params(self):
        bad = _one(_aggregate(), {"rule": "net-packet-latency-quantile",
                                  "q": 2.0, "max_cycles": 100})
        assert not bad["ok"] and "outside" in bad["detail"]
        bad = _one(_aggregate(), {"rule": "net-packet-latency-quantile",
                                  "q": 0.5})
        assert not bad["ok"]

    def test_net_packet_latency_fails_closed_without_sketch(self):
        aggregate = _aggregate()
        del aggregate["net_sketch"]
        bad = _one(aggregate, {"rule": "net-packet-latency-quantile",
                               "q": 0.99, "max_cycles": 200_000})
        assert not bad["ok"] and "no net sketch" in bad["detail"]

    def test_net_packet_latency_fails_closed_on_empty_sketch(self):
        bad = _one(_aggregate(net_latencies=()),
                   {"rule": "net-packet-latency-quantile",
                    "q": 0.99, "max_cycles": 200_000})
        assert not bad["ok"] and "empty" in bad["detail"]


class TestFailClosed:
    def test_unknown_rule_fails_closed(self):
        result = _one(_aggregate(), {"rule": "latency-quantile-typo", "q": 0.5})
        assert not result["ok"]
        assert "failing closed" in result["detail"]

    def test_one_bad_rule_fails_the_whole_policy(self):
        verdict = evaluate_slo(
            _aggregate(),
            _policy(
                {"rule": "fault-escapes", "max": 0},
                {"rule": "no-such-objective"},
            ),
        )
        assert not verdict["passed"]
        assert [r["ok"] for r in verdict["results"]] == [True, False]


class TestPolicyEnvelope:
    def test_version_and_rules_are_required(self):
        with pytest.raises(PolicyError):
            load_policy({"version": 2, "rules": [{"rule": "fault-escapes"}]})
        with pytest.raises(PolicyError):
            load_policy({"version": 1, "rules": []})
        with pytest.raises(PolicyError):
            load_policy({"version": 1, "rules": [{"no-rule-key": 1}]})

    def test_digest_pins_the_policy(self):
        a = _policy({"rule": "fault-escapes", "max": 0})
        b = _policy({"rule": "fault-escapes", "max": 1})
        assert policy_digest(a) != policy_digest(b)
        assert evaluate_slo(_aggregate(), a)["policy_digest"] == policy_digest(a)

    def test_render_is_canonical(self):
        verdict = evaluate_slo(_aggregate(), _policy({"rule": "fault-escapes",
                                                      "max": 0}))
        text = render_json(verdict)
        assert text.endswith("\n")
        assert render_json(verdict) == text
