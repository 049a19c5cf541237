"""The SLO artifact: regenerate, byte-compare, fail closed.

``OBS_slo.json`` is the ``slo`` entry of the artifact table.  Its
producer reads the fleet plan from the committed file's ``plan`` block
and the policy from ``OBS_slo_policy.json`` beside it, so each test
here builds a small repository root in a temporary directory: a policy
plus a committed file whose plan is small enough to run in a second.
"""

import json
import os

import pytest

from repro.artifact import Inputs
from repro.fleet import FleetPlan

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Small plan so the module stays fast (the stock plan is `make check`'s).
SMALL = FleetPlan(devices=4, injections_per_device=1, alloc_ops=4)


def _root(tmp_path, rules):
    """A repository root holding a policy and a plan-only SLO file."""
    (tmp_path / "OBS_slo_policy.json").write_text(
        json.dumps({"version": 1, "rules": rules})
    )
    (tmp_path / "OBS_slo.json").write_text(
        json.dumps({"plan": SMALL.to_dict()})
    )
    return Inputs(root=str(tmp_path))


@pytest.fixture()
def small_baseline(artifacts, entry, tmp_path):
    """A freshly generated small-plan baseline + its policy."""
    inputs = _root(tmp_path, [
        {"rule": "fault-escapes", "max": 0},
        {"rule": "latency-quantile", "q": 0.99, "max_cycles": 1000},
    ])
    assert artifacts.refresh(entry("slo"), inputs) == 0
    return inputs


class TestGate:
    def test_regenerated_baseline_passes_the_check(
        self, artifacts, entry, small_baseline
    ):
        assert artifacts.check(entry("slo"), small_baseline) == 0

    def test_tampered_baseline_is_drift(
        self, artifacts, entry, small_baseline, capsys
    ):
        path = os.path.join(small_baseline.root, "OBS_slo.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["aggregate"]["counters"]["calls"] += 1
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert artifacts.check(entry("slo"), small_baseline) == 1
        assert "drifted at aggregate.counters.calls" in capsys.readouterr().err

    def test_violated_objective_fails_even_when_bytes_match(
        self, artifacts, entry, tmp_path
    ):
        """A policy that cannot hold produces a failing report; the
        check must flag it even though the committed file records the
        same failure (a red baseline is not a green gate)."""
        inputs = _root(tmp_path, [
            {"rule": "throughput-floor", "min_calls_per_kcycle": 10**6},
        ])
        assert artifacts.refresh(entry("slo"), inputs) == 1
        assert artifacts.check(entry("slo"), inputs) == 1

    def test_unknown_rule_fails_closed_through_the_tool(
        self, artifacts, entry, tmp_path, capsys
    ):
        inputs = _root(tmp_path, [{"rule": "made-up-objective"}])
        assert artifacts.refresh(entry("slo"), inputs) == 1
        assert "made-up-objective" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(
        self, artifacts, entry, tmp_path, capsys
    ):
        inputs = _root(tmp_path, [{"rule": "fault-escapes", "max": 0}])
        os.unlink(os.path.join(inputs.root, "OBS_slo.json"))
        assert artifacts.check(entry("slo"), inputs) == 2
        assert "make refresh NAME=slo" in capsys.readouterr().err


class TestCommittedArtifacts:
    def test_committed_slo_baseline_is_fresh_and_green(self, artifacts, entry):
        """The repo's own OBS_slo.json must reproduce and pass."""
        assert artifacts.check(entry("slo"), Inputs(root=REPO)) == 0
