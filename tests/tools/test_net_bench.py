"""The net sweep and its artifact gate.

``BENCH_net.json`` is the ``net`` entry of the artifact table:
:func:`repro.iot.loadgen.net_sweep` produces it from self-checked
sweep points, and the entry's claim demands zero-copy stay at least
2x cheaper in per-packet stack cycles at 1024 or more sessions.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.artifact import Inputs, render_json
from repro.iot.loadgen import NET_BENCH_VERSION, sweep_document

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Tiny sweep so the module stays fast (the full sweep is `make check`'s).
SMALL_CONNS = (2, 4)
SMALL_ROUNDS = {2: 2, 4: 2}


def _small_sweep(inputs):
    return sweep_document(SMALL_CONNS, SMALL_ROUNDS, jobs=inputs.jobs)


@pytest.fixture(scope="module")
def small_doc():
    return sweep_document(SMALL_CONNS, SMALL_ROUNDS, jobs=1)


@pytest.fixture()
def small_net(entry):
    """The net entry, producing the tiny sweep."""
    return replace(entry("net"), produce=_small_sweep)


class TestNetBench:
    def test_sweep_covers_both_modes(self, small_doc):
        keys = [
            (p["mode"], p["connections"]) for p in small_doc["sweep"]
        ]
        assert keys == [
            ("copy", 2), ("zerocopy", 2), ("copy", 4), ("zerocopy", 4)
        ]

    def test_serial_and_parallel_bytes_identical(self, small_doc):
        parallel = sweep_document(SMALL_CONNS, SMALL_ROUNDS, jobs=2)
        assert render_json(parallel) == render_json(small_doc)

    def test_rendered_form_is_canonical(self, small_doc):
        rendered = render_json(small_doc)
        assert rendered.endswith("\n")
        assert json.dumps(
            json.loads(rendered), indent=2, sort_keys=True
        ) + "\n" == rendered

    def test_comparison_rows_carry_ratios(self, small_doc):
        for row in small_doc["comparison"]:
            assert row["stack_cycles_ratio"] > 1.0
            assert row["allocs_per_packet_copy"] > (
                row["allocs_per_packet_zerocopy"]
            )

    def test_cli_writes_file(self, artifacts, small_net, tmp_path):
        # The tiny sweep has no at-scale point, so the claim fails (1),
        # but the file is written all the same.
        assert artifacts.refresh(small_net, Inputs(root=str(tmp_path))) == 1
        written = json.loads((tmp_path / "BENCH_net.json").read_text())
        assert written["version"] == NET_BENCH_VERSION


class TestCommittedBaseline:
    def test_committed_baseline_meets_the_claim(self, entry):
        with open(os.path.join(REPO, "BENCH_net.json")) as fh:
            baseline = json.load(fh)
        assert entry("net").claims(baseline) == []

    def test_committed_sweep_reaches_scale(self):
        with open(os.path.join(REPO, "BENCH_net.json")) as fh:
            baseline = json.load(fh)
        assert max(baseline["config"]["connections"]) >= 1024


class TestGate:
    def test_missing_baseline_exits_2(self, artifacts, entry, tmp_path):
        assert artifacts.check(entry("net"), Inputs(root=str(tmp_path))) == 2

    def test_tampered_counter_detected(
        self, artifacts, small_net, small_doc, tmp_path, capsys
    ):
        doc = json.loads(render_json(small_doc))
        doc["sweep"][0]["counters"]["packets_delivered"] += 1
        (tmp_path / "BENCH_net.json").write_text(render_json(doc))
        assert artifacts.check(small_net, Inputs(root=str(tmp_path))) == 1
        assert (
            "drifted at sweep[0].counters.packets_delivered"
            in capsys.readouterr().err
        )

    def test_ratio_floor_enforced(self, entry):
        doc = {
            "comparison": [
                {"connections": 2048, "stack_cycles_ratio": 1.4},
            ]
        }
        problems = entry("net").claims(doc)
        assert len(problems) == 1
        assert "1.4" in problems[0]

    def test_no_at_scale_point_is_a_problem(self, entry):
        doc = {"comparison": [{"connections": 64, "stack_cycles_ratio": 9.0}]}
        assert entry("net").claims(doc)
