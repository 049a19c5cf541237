"""The artifact table and its loop.

Every entry's claims accept its committed file and reject a tampered
copy; the loop itself is driven with cheap stub entries through its
three outcomes (0 match, 1 drift or broken claim, 2 unreadable file).
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.tables import (
    ATTRIBUTION,
    BANNER,
    BATCH_BOUND,
    BATCH_WINDOW,
    CLAIMS,
    COMPILER_FIXES,
    ENCODING,
    ENERGY,
    FIGURE,
    FIGURE2,
    GRANULE,
    IOT,
    NET_SCALE,
    PEEPHOLE,
    QUARANTINE,
    SECTIONS,
    TABLE2,
    TABLE3,
    TABLE4,
    TEMPORAL_COST,
    TIMING,
    TITLES,
    WORST_WINDOW,
    read_sections,
    tables_claims,
)
from repro.artifact import Inputs, render_json
from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import read_table4

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


def _fleet_escape(doc):
    doc["aggregates"]["faults"]["escaped"] = 1


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


def _slow_alu_loop(doc):
    doc["workloads"]["alu_loop"]["mips"] = 0.03


def _slow_table3(doc):
    doc["workloads"]["table3_iter1"]["seconds"] = 30.0


def _seed_speed_alu_loop(doc):
    doc["speedup_vs_seed"]["alu_loop"] = 1.5


def _edit(text, title, old, new):
    """``text`` with one value in section ``title`` replaced, in place."""
    body = read_sections(text)[title]
    assert body.count(old) == 1 and len(old) == len(new), (title, old)
    head, banner, rest = text.partition(f"{title}\n{BANNER}\n")
    return head + banner + body.replace(old, new) + rest[len(body):]


def _hardware_s_loses_at_128b(text):
    return _edit(text, FIGURE[CoreKind.FLUTE], "128B   0.860x", "128B   1.001x")


#: One tamper per entry; each breaks a claim, not just the bytes.
TAMPERS = {
    "simspeed": _dropped_workload,
    "faults": _escape,
    "fleet": _fleet_escape,
    "slo": _failed_slo,
    "net": _weak_zero_copy,
    "audit": _audit_violation,
    "profile": _lost_instruction,
    "tables": _hardware_s_loses_at_128b,
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


FLUTE_FIGURE, IBEX_FIGURE = FIGURE[CoreKind.FLUTE], FIGURE[CoreKind.IBEX]
FLUTE_TABLE4, IBEX_TABLE4 = TABLE4[CoreKind.FLUTE], TABLE4[CoreKind.IBEX]

#: One one-value edit of the committed tables per claim, in CLAIMS
#: order: (section, old text, new text).  Each breaks its claim.
CLAIM_TAMPERS = [
    # Ablations
    (COMPILER_FIXES, "24,474              0.00%", "24,474              9.99%"),
    (GRANULE, "32 B      1,024 B", "32 B      8,192 B"),
    (GRANULE, "0.20%  9,216 B", "0.20%  1,000 B"),
    (QUARANTINE, "4,465,570", "5,465,570"),
    (BATCH_WINDOW, "7,168", "1,000"),
    (BATCH_WINDOW, "7,168      229,376", "7,168      239,376"),
    (PEEPHOLE, "22,215  25,510", "22,215  25,900"),
    # Encoding precision
    (ENCODING, "object     511 B", "object     510 B"),
    (ENCODING, "0.128%", "0.528%"),
    (ENCODING, "8.91%", "4.91%"),
    (ENCODING, "0.128%", "0.328%"),
    (ENCODING, "SRAM overhead     1.56%", "SRAM overhead     1.57%"),
    # Figure 2
    (FIGURE2, "mem-cap-wo          2", "mem-cap-wo          3"),
    # Figure 5
    (FLUTE_FIGURE, "32B   1.046x", "32B 200.000x"),
    (FLUTE_FIGURE, "128KiB 173.609x", "128KiB  19.000x"),
    (FLUTE_FIGURE, "32B   1.017x", "32B   1.050x"),
    (FLUTE_FIGURE, "128B   0.860x", "128B   1.001x"),
    (FLUTE_FIGURE, "512B   0.978x", "512B   1.021x"),
    (FLUTE_FIGURE, "2KiB   1.517x", "2KiB   0.999x"),
    (FLUTE_FIGURE, "128KiB 144.523x", "128KiB   3.000x"),
    # Figure 6
    (IBEX_FIGURE, "32B   0.800x", "32B   1.000x"),
    (IBEX_FIGURE, "64B   0.854x", "64B   1.000x"),
    (IBEX_FIGURE, "128KiB 240.029x", "128KiB  19.000x"),
    (IBEX_FIGURE, "32B   0.757x", "32B   1.150x"),
    (IBEX_FIGURE, "128KiB 159.430x", "128KiB 158.000x"),
    # End-to-end IoT application
    (IOT, "CPU load        14.9%", "CPU load        35.0%"),
    (IOT, "(10ms)         6000", "(10ms)         5999"),
    (IOT, "received           64", "received            0"),
    (IOT, "allocated        18000", "allocated            0"),
    (ENERGY, "+28.0%", "+50.0%"),
    (TEMPORAL_COST, "34.85%", "34.95%"),
    (TEMPORAL_COST, "34.90%", "35.90%"),
    (TEMPORAL_COST, "35.87%", "90.00%"),
    # The receive chain at scale
    (NET_SCALE, "10609                4948", "10609                5948"),
    (NET_SCALE, "2.14x              5.0", "2.14x              3.0"),
    (NET_SCALE, "1.0                24", "1.0                58"),
    # The real-time bound
    (WORST_WINDOW, "128KiB               2048                 448",
     "128KiB               2048                 449"),
    (BATCH_BOUND, "64                    448", "64                  1,800"),
    (BATCH_BOUND, "256                  1,792", "256                  1,900"),
    # Table 2
    (TABLE2, "26988", "26989"),
    (TABLE2, "2.760", "2.900"),
    (TABLE2, "(2.07x)", "(2.09x)"),
    (TABLE2, "(2.28x)", "(2.30x)"),
    (TABLE2, "58431", "58700"),
    (TABLE2, "61422", "61500"),
    (TIMING, "revoker  alu-bypass (EX)     36", "revoker  alu-bypass (EX)     37"),
    # Table 3
    (TABLE3, "1.892        5.43\nflute", "1.892        9.43\nflute"),
    (TABLE3, "1.892        5.43\n ibex", "1.892        5.44\n ibex"),
    (TABLE3, "1.811       11.09", "1.811        8.09"),
    (TABLE3, "1.624       17.14", "1.624       29.14"),
    (TABLE3, "1.811       11.09", "1.811        5.43"),
    (TABLE3, "1.811       11.09", "1.811       18.00"),
    (ATTRIBUTION, "+17.7%        +29.1%", "+17.7%        +18.0%"),
    # Table 4
    (FLUTE_TABLE4, "6,651,906", "6,500,000"),
    (FLUTE_TABLE4, "1,044,578", "  600,000"),
    (FLUTE_TABLE4, "         5,914", "        60,000"),
    (FLUTE_TABLE4, "5,349,378", "6,400,000"),
    (IBEX_TABLE4, "1,564,005", "1,550,000"),
]


def test_every_tables_claim_has_a_tamper():
    assert len(CLAIMS) == len(CLAIM_TAMPERS) == 58


@pytest.mark.parametrize(
    "claim, tamper", list(zip(CLAIMS, CLAIM_TAMPERS)),
    ids=[f"claim{n:02d}" for n in range(1, len(CLAIMS) + 1)],
)
def test_tables_claim_rejects_its_tamper(entry, claim, tamper):
    title = tamper[0]
    assert title in claim.sections
    tampered = _edit(_committed(entry("tables")), *tamper)
    assert f"{title}: claim fails: {claim.statement}" in tables_claims(tampered)


def test_tables_claims_name_a_missing_section(entry):
    text = _committed(entry("tables")).replace(TIMING, "Timing", 1)
    assert tables_claims(text) == [f"missing section: {TIMING}"]


def test_unknown_module_rejected(artifacts, capsys):
    assert artifacts.main(["check", "bench_does_not_exist"]) == 2
    assert "no such artifact: bench_does_not_exist" in capsys.readouterr().err


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
    assert reproduced == committed["devices"][2]


def _reproduce(line):
    """What the ``python -c`` command a diagnosis prints writes, run
    alone from the repository root."""
    code = line.split('python -c "', 1)[1].rstrip('"')
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout


def test_net_drift_names_a_command_reproducing_the_point(entry):
    """One counter of the 1-connection copy point moved by one: the
    diagnosis names that point, and its command, run alone, prints the
    point as a fresh run computes it."""
    fresh = _committed(entry("net"))
    committed = copy.deepcopy(fresh)
    committed["sweep"][0]["counters"]["allocs"] += 1
    (line,) = entry("net").diagnose(committed, fresh)
    assert line.startswith("sweep point copy @ 1 connections")
    assert json.loads(_reproduce(line)) == fresh["sweep"][0]


def test_net_diagnosis_is_silent_when_no_point_moved(entry):
    committed = _committed(entry("net"))
    fresh = copy.deepcopy(committed)
    fresh["comparison"][0]["stack_cycles_ratio"] += 1
    assert entry("net").diagnose(committed, fresh) == []


def test_tables_titles_are_the_committed_sections_in_order(entry):
    titles = [title for fn in SECTIONS for title in TITLES[fn]]
    assert titles == list(read_sections(_committed(entry("tables"))))


@pytest.mark.parametrize("title, old, new", [
    (TABLE2, "26988", "26989"),
    (ENCODING, "8.91%", "8.92%"),
], ids=["table2", "encoding"])
def test_tables_drift_names_a_command_rendering_the_section(
    entry, title, old, new
):
    """One number of a measurement section moved: the diagnosis names
    the section, and its command, run alone, renders the section as a
    fresh run does."""
    fresh = _committed(entry("tables"))
    committed = _edit(fresh, title, old, new)
    (line,) = entry("tables").diagnose(committed, fresh)
    assert line.startswith(f"section {title!r}")
    rendered = read_sections(_reproduce(line))
    assert rendered[title] == read_sections(fresh)[title]


@pytest.mark.parametrize("title, old, new", [
    (IBEX_TABLE4, "9,810", "9,811"),
    (IBEX_FIGURE, "128KiB 240.029x", "128KiB 240.030x"),
], ids=["table4", "figure6"])
def test_tables_sweep_drift_names_a_command_running_the_size(
    entry, title, old, new
):
    """One number of Ibex's 128 KiB row moved: the diagnosis names the
    core and size, and its command runs that size's eight cells and
    prints the cycles a fresh run puts in Table 4."""
    fresh = _committed(entry("tables"))
    committed = _edit(fresh, title, old, new)
    (line,) = entry("tables").diagnose(committed, fresh)
    assert line.startswith("ibex allocator sweep at 128KiB")
    fresh_row = {
        key: cycles
        for key, cycles in read_table4(read_sections(fresh)[IBEX_TABLE4]).items()
        if key[1] == 128 * 1024
    }
    assert len(fresh_row) == 8
    assert read_table4(_reproduce(line)) == fresh_row


def test_tables_diagnosis_is_silent_when_no_section_moved(entry):
    committed = _committed(entry("tables"))
    fresh = committed.replace("Regenerate with", "Regenerate from", 1)
    assert entry("tables").diagnose(committed, fresh) == []


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

    def test_failing_gate_names_the_check_not_a_refresh(
        self, artifacts, stub, tmp_path, capsys
    ):
        """A host-timed entry's failure is rechecked: refreshing its file
        would only move the baseline to this host's noise."""
        from dataclasses import replace

        timed = replace(stub, gate=lambda doc: ["synthetic: +25.0% over"])
        assert artifacts.check(timed, self._commit(tmp_path, self.DOC)) == 1
        err = capsys.readouterr().err
        assert "stub: synthetic: +25.0% over" in err
        assert (
            "reproduce: PYTHONPATH=src python tools/artifacts.py check stub"
            in err
        )
        assert "make refresh" not in err

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


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (_slow_alu_loop, "alu_loop runs at 0.03 MIPS (floor: 0.03)"),
        (_slow_table3, "table3_iter1 takes 30.0 s (ceiling: 30.0)"),
        (_seed_speed_alu_loop,
         "alu_loop is 1.5x the seed's interpretive MIPS (floor: 1.5)"),
    ],
    ids=["alu_mips", "table3_seconds", "alu_speedup_vs_seed"],
)
def test_simspeed_floor_rejects_its_tamper(entry, tamper, problem):
    doc = copy.deepcopy(_committed(entry("simspeed")))
    tamper(doc)
    assert entry("simspeed").claims(doc) == [problem]


def test_reproduce_lines_of_the_real_entries(artifacts):
    """Only the host-timed ``simspeed`` entry prints its check command;
    every byte-gated entry prints its refresh."""
    lines = {a.name: a.reproduce for a in artifacts.ARTIFACTS}
    assert lines.pop("simspeed") == (
        "PYTHONPATH=src python tools/artifacts.py check simspeed"
    )
    assert lines == {name: f"make refresh NAME={name}" for name in lines}


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
