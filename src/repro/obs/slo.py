"""The SLO engine: declarative service objectives over the fleet aggregate.

The CHERIoT paper's headline claims are, at fleet scale, service-level
objectives: cross-compartment calls stay cheap (latency quantiles),
the revocation sweep stays a bounded share of the cycle budget (duty
cycle), no injected fault ever escapes (error budget of exactly zero),
every device clears a throughput floor, and the orchestrator keeps
degradation under a ceiling.  This module evaluates a declarative JSON
policy over the aggregate :func:`repro.obs.pipeline.fleet_rollup`
produces.

Policy file (``OBS_slo_policy.json``)::

    {"version": 1,
     "rules": [
        {"rule": "latency-quantile", "q": 0.50, "max_cycles": 520},
        {"rule": "latency-quantile", "q": 0.99, "max_cycles": 620},
        {"rule": "revocation-duty-cycle", "max": 0.90},
        {"rule": "fault-escapes", "max": 0},
        {"rule": "throughput-floor", "min_calls_per_kcycle": 1.0},
        {"rule": "degraded-ceiling", "max_fraction": 0.0}
     ]}

Like :mod:`repro.verify.policy`, **unknown rule names fail closed**: a
typo in a service-level policy must produce a failing result, never a
silently skipped objective.  Every rule's evaluation — pass or fail —
appears in the result list in policy order, with the observed value
and the bound, so the committed ``OBS_slo.json`` is a complete audit
of the objectives, not just a verdict bit.

Latency quantiles are answered by the fleet's fixed-centroid sketch
(any ``q``, not just precomputed ones); the sketch-vs-exact soundness
note lives in ``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List

from .sketch import QuantileSketch

#: Version tag of the SLO report shape.
SLO_SCHEMA = 1


class PolicyError(Exception):
    """A policy document that cannot be evaluated at all."""


def load_policy(data: dict) -> dict:
    """Validate the policy document's envelope (rules stay declarative)."""
    if not isinstance(data, dict):
        raise PolicyError("policy must be a JSON object")
    if data.get("version") != 1:
        raise PolicyError(f"unsupported policy version {data.get('version')!r}")
    rules = data.get("rules")
    if not isinstance(rules, list) or not rules:
        raise PolicyError("policy must declare a non-empty rules list")
    for rule in rules:
        if not isinstance(rule, dict) or not isinstance(rule.get("rule"), str):
            raise PolicyError(f"malformed rule entry: {rule!r}")
    return data


def policy_digest(data: dict) -> str:
    """A stable digest pinning the evaluated policy into the report."""
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Rule evaluators: aggregate + rule -> (observed, bound, ok, detail)
# ----------------------------------------------------------------------


def _eval_latency_quantile(aggregate: dict, rule: dict) -> dict:
    q = rule.get("q")
    bound = rule.get("max_cycles")
    if not isinstance(q, (int, float)) or not 0.0 <= q <= 1.0:
        return _fail(rule, None, bound, f"q {q!r} outside [0, 1]")
    if not isinstance(bound, (int, float)):
        return _fail(rule, None, bound, "missing max_cycles bound")
    sketch = QuantileSketch.from_dict(aggregate["sketch"])
    observed = sketch.quantile(float(q))
    return _verdict(rule, observed, bound, observed <= bound)


def _eval_net_packet_latency_quantile(aggregate: dict, rule: dict) -> dict:
    q = rule.get("q")
    bound = rule.get("max_cycles")
    if not isinstance(q, (int, float)) or not 0.0 <= q <= 1.0:
        return _fail(rule, None, bound, f"q {q!r} outside [0, 1]")
    if not isinstance(bound, (int, float)):
        return _fail(rule, None, bound, "missing max_cycles bound")
    sketch_dict = aggregate.get("net_sketch")
    if sketch_dict is None:
        return _fail(rule, None, bound, "aggregate carries no net sketch")
    sketch = QuantileSketch.from_dict(sketch_dict)
    if sketch.count == 0:
        return _fail(rule, None, bound, "net sketch is empty")
    observed = sketch.quantile(float(q))
    return _verdict(rule, observed, bound, observed <= bound)


def _eval_revocation_duty_cycle(aggregate: dict, rule: dict) -> dict:
    bound = rule.get("max")
    if not isinstance(bound, (int, float)):
        return _fail(rule, None, bound, "missing max bound")
    observed = aggregate["derived"]["revocation_duty_cycle"]
    return _verdict(rule, observed, bound, observed <= bound)


def _eval_fault_escapes(aggregate: dict, rule: dict) -> dict:
    bound = rule.get("max")
    if not isinstance(bound, int):
        return _fail(rule, None, bound, "missing integer max bound")
    observed = aggregate["counters"].get("faults.escaped", 0)
    return _verdict(rule, observed, bound, observed <= bound)


def _eval_throughput_floor(aggregate: dict, rule: dict) -> dict:
    bound = rule.get("min_calls_per_kcycle")
    if not isinstance(bound, (int, float)):
        return _fail(rule, None, bound, "missing min_calls_per_kcycle bound")
    observed = aggregate["floors"].get("calls_per_kcycle")
    if observed is None:
        return _fail(rule, None, bound, "aggregate reports no throughput floor")
    return _verdict(rule, observed, bound, observed >= bound)


def _eval_degraded_ceiling(aggregate: dict, rule: dict) -> dict:
    bound = rule.get("max_fraction")
    if not isinstance(bound, (int, float)):
        return _fail(rule, None, bound, "missing max_fraction bound")
    observed = aggregate["derived"]["degraded_fraction"]
    return _verdict(rule, observed, bound, observed <= bound)


_RULES: Dict[str, Callable[[dict, dict], dict]] = {
    "latency-quantile": _eval_latency_quantile,
    "net-packet-latency-quantile": _eval_net_packet_latency_quantile,
    "revocation-duty-cycle": _eval_revocation_duty_cycle,
    "fault-escapes": _eval_fault_escapes,
    "throughput-floor": _eval_throughput_floor,
    "degraded-ceiling": _eval_degraded_ceiling,
}


def _verdict(rule: dict, observed, bound, ok: bool, detail: str = "") -> dict:
    params = {key: rule[key] for key in sorted(rule) if key != "rule"}
    out = {
        "rule": rule["rule"],
        "params": params,
        "observed": observed,
        "bound": bound,
        "ok": bool(ok),
    }
    if detail:
        out["detail"] = detail
    return out


def _fail(rule: dict, observed, bound, detail: str) -> dict:
    return _verdict(rule, observed, bound, False, detail)


def evaluate_slo(aggregate: dict, policy: dict) -> dict:
    """Evaluate every rule in policy order; unknown rules fail closed."""
    policy = load_policy(policy)
    results: List[dict] = []
    for rule in policy["rules"]:
        evaluator = _RULES.get(rule["rule"])
        if evaluator is None:
            results.append(
                _fail(
                    rule, None, None,
                    f"unknown rule {rule['rule']!r} — failing closed",
                )
            )
            continue
        results.append(evaluator(aggregate, rule))
    return {
        "schema": SLO_SCHEMA,
        "policy_digest": policy_digest(policy),
        "passed": all(result["ok"] for result in results),
        "results": results,
    }


def slo_report(plan, aggregate: dict, policy: dict) -> dict:
    """The committed ``OBS_slo.json`` document."""
    return {
        "version": SLO_SCHEMA,
        "plan": plan.to_dict(),
        "fingerprint": plan.fingerprint(),
        "aggregate": aggregate,
        "slo": evaluate_slo(aggregate, policy),
    }
