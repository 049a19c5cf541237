"""The artifact table and its loop.

Every entry's claims accept its committed file and reject a tampered
copy; the loop itself is driven with cheap stub entries through its
three outcomes (0 match, 1 drift or broken claim, 2 unreadable file).
"""

import copy
import json
import os

import pytest

from repro.artifact import Inputs, render_json

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

FAULT_REPLAY = (
    "replay: PYTHONPATH=src python tools/fault_campaign.py "
    "--reproduce 7 --seed 20260806"
)


def _escape(doc):
    doc["outcomes"]["escaped"] = 1
    doc["escaped_details"] = [{
        "index": 7, "fault_class": "tag_flip",
        "scenario": "synthetic", "detail": "",
    }]


def _degraded_shard(doc):
    doc["degraded"] = [{"shard": 1, "devices": [2, 3], "reason": "synthetic"}]


def _weak_zero_copy(doc):
    row = next(r for r in doc["comparison"] if r["connections"] == 2048)
    row["stack_cycles_ratio"] = 1.4


def _failed_slo(doc):
    doc["slo"]["passed"] = False


def _audit_violation(doc):
    doc["images"]["baremetal"]["violations"].append({
        "category": "bounds", "index": 0, "mnemonic": "sw",
        "message": "synthetic",
    })


def _lost_instruction(doc):
    doc["retired"] += 1


def _dropped_workload(doc):
    del doc["workloads"]["coremark_1k"]


def _dropped_module(text):
    return text.replace("bench_table4_alloc", "", 1)


#: One tamper per entry; each breaks a claim, not just the bytes.
TAMPERS = {
    "simspeed": _dropped_workload,
    "faults": _escape,
    "fleet": _degraded_shard,
    "slo": _failed_slo,
    "net": _weak_zero_copy,
    "audit": _audit_violation,
    "profile": _lost_instruction,
    "tables": _dropped_module,
}


def _committed(artifact):
    with open(os.path.join(REPO, artifact.path)) as fh:
        text = fh.read()
    return text if artifact.path.endswith(".txt") else json.loads(text)


def _tampered(artifact):
    doc = copy.deepcopy(_committed(artifact))
    tamper = TAMPERS[artifact.name]
    if isinstance(doc, str):
        return tamper(doc)
    tamper(doc)
    return doc


def test_every_entry_has_a_tamper(artifacts):
    assert [a.name for a in artifacts.ARTIFACTS] == list(TAMPERS)


@pytest.mark.parametrize("name", list(TAMPERS))
def test_claims_accept_committed_and_reject_tampered(entry, name):
    artifact = entry(name)
    assert artifact.claims(_committed(artifact)) == []
    assert artifact.claims(_tampered(artifact))


def test_fault_escape_prints_its_replay_command(entry):
    problems = entry("faults").claims(_tampered(entry("faults")))
    assert problems[0] == "1 escaped injections (must be 0)"
    assert FAULT_REPLAY in problems[1]
    assert "fault class tag_flip" in problems[1]


def test_fleet_drift_names_a_command_reproducing_the_device(entry, capsys):
    committed = _committed(entry("fleet"))
    fresh = copy.deepcopy(committed)
    fresh["devices"][2]["cycles"] += 1
    (line,) = entry("fleet").diagnose(committed, fresh)
    code = line.split('python -c "', 1)[1].rstrip('"')
    exec(code, {})
    reproduced = json.loads(capsys.readouterr().out)
    device = committed["devices"][2]
    assert {key: reproduced[key] for key in device} == device


def test_fault_drift_names_the_class_that_moved(entry):
    committed = _committed(entry("faults"))
    fresh = copy.deepcopy(committed)
    fresh["by_class"]["splice"]["detected"] -= 1
    fresh["by_class"]["splice"]["masked"] += 1
    (line,) = entry("faults").diagnose(committed, fresh)
    assert line.startswith("fault class splice:")
    assert "--reproduce INDEX --seed 20260806" in line


def test_fault_campaign_replays_one_injection(capsys):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "fault_campaign", os.path.join(REPO, "tools", "fault_campaign.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--reproduce", "7", "--seed", "20260806"]) == 0
    assert "injection #7 (seed 20260806)" in capsys.readouterr().out


class TestLoop:
    """The check loop on a stub entry whose producer is a constant."""

    DOC = {"a": {"b": 1}, "c": [1, 2]}

    @pytest.fixture()
    def stub(self, artifacts):
        return artifacts.Artifact(
            "stub", "STUB.json", lambda inputs: self.DOC, lambda doc: []
        )

    def _commit(self, tmp_path, doc):
        (tmp_path / "STUB.json").write_text(render_json(doc))
        return Inputs(root=str(tmp_path))

    def test_match_exits_0_with_a_timing_line(
        self, artifacts, stub, tmp_path, capsys
    ):
        assert artifacts.check(stub, self._commit(tmp_path, self.DOC)) == 0
        out = capsys.readouterr().out
        assert out.startswith("stub ") and " s  STUB.json" in out

    def test_one_value_tamper_exits_1_naming_path_and_command(
        self, artifacts, stub, tmp_path, capsys
    ):
        tampered = copy.deepcopy(self.DOC)
        tampered["a"]["b"] = 2
        assert artifacts.check(stub, self._commit(tmp_path, tampered)) == 1
        err = capsys.readouterr().err
        assert "drifted at a.b: committed 2, fresh run 1" in err
        assert "reproduce: make refresh NAME=stub" in err

    def test_missing_file_exits_2_with_the_command(
        self, artifacts, stub, tmp_path, capsys
    ):
        assert artifacts.check(stub, Inputs(root=str(tmp_path))) == 2
        err = capsys.readouterr().err
        assert "cannot read STUB.json" in err
        assert "reproduce: make refresh NAME=stub" in err

    def test_broken_claim_exits_1_even_when_bytes_match(
        self, artifacts, stub, tmp_path, capsys
    ):
        from dataclasses import replace

        strict = replace(stub, claims=lambda doc: ["synthetic claim"])
        assert artifacts.check(strict, self._commit(tmp_path, self.DOC)) == 1
        assert "committed file: synthetic claim" in capsys.readouterr().err

    def test_failing_producer_exits_1(self, artifacts, stub, tmp_path, capsys):
        from dataclasses import replace

        def broken(inputs):
            raise RuntimeError("synthetic failure")

        failing = replace(stub, produce=broken)
        assert artifacts.check(failing, self._commit(tmp_path, self.DOC)) == 1
        assert (
            "failed: RuntimeError: synthetic failure"
            in capsys.readouterr().err
        )

    def test_text_artifacts_name_the_first_differing_line(
        self, artifacts, tmp_path, capsys
    ):
        text = artifacts.Artifact(
            "text", "STUB.txt", lambda inputs: "one\ntwo\n", lambda doc: []
        )
        (tmp_path / "STUB.txt").write_text("one\nTWO\n")
        assert artifacts.check(text, Inputs(root=str(tmp_path))) == 1
        assert (
            "drifted at line 2: committed 'TWO', fresh run 'two'"
            in capsys.readouterr().err
        )

    def test_refresh_writes_the_canonical_bytes(
        self, artifacts, stub, tmp_path
    ):
        assert artifacts.refresh(stub, Inputs(root=str(tmp_path))) == 0
        assert (tmp_path / "STUB.json").read_text() == render_json(self.DOC)

    def test_refresh_needs_a_name(self, artifacts, capsys):
        assert artifacts.main(["refresh"]) == 2
        assert "refresh needs a NAME" in capsys.readouterr().err


def test_simspeed_gate_allows_20_percent_after_probe_scaling(monkeypatch):
    """The host-timed entry's rule, on canned measurements: this host
    runs the probe 2x slower, so 2.3 s against a 1 s baseline is +15 %
    and passes, while 2.5 s is +25 % and fails."""
    from repro.analysis import simspeed

    baseline = {
        "probe_seconds": 0.1,
        "workloads": {"alu_loop": {"seconds": 1.0},
                      "mem_loop": {"seconds": 1.0}},
    }
    measured = {"alu_loop": {"seconds": 2.3}, "mem_loop": {"seconds": 2.5}}
    monkeypatch.setattr(simspeed, "_best_of", lambda: (0.2, measured))
    monkeypatch.setattr(simspeed, "MEASURERS", {})
    problems = simspeed.check_speed(baseline)
    assert len(problems) == 1
    assert problems[0].startswith("mem_loop: 2.500s is +25.0%")
