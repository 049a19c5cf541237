"""Differential proof: zero-copy changes cycle cost, never behaviour.

The zero-copy rebuild of the receive path is an optimisation with a
contract: for identical wire input, the application must observe
*identical* messages, state and drop accounting under both
disciplines — only the cycle economics may differ.  This suite holds
the seed application and the scaled pipeline to that contract, and
pins the fleet device sample (which now embeds a net-traffic phase)
across execution tiers.
"""

import json

import pytest

from repro.allocator import TemporalSafetyMode
from repro.fleet.device import DeviceSpec, run_device
from repro.iot.app import IoTApplication
from repro.iot.loadgen import NetLoadGen, drive
from repro.iot.sessions import NetPipeline
from repro.isa import Tier
from repro.machine import System
from repro.pipeline import CoreKind


#: Pipeline counters that measure the discipline itself: zero-copy
#: narrows where copying allocates.  Every other counter that is not a
#: cycle count must agree across disciplines.
DISCIPLINE_COUNTERS = ("allocs", "frees", "narrowings")


def _behaviour_counters(pipeline: NetPipeline) -> dict:
    return {
        name: value
        for name, value in pipeline.counters().items()
        if "cycles" not in name and name not in DISCIPLINE_COUNTERS
    }


def _app_observables(zero_copy: bool, duration_ms: int = 3_000) -> dict:
    app = IoTApplication(
        core=CoreKind.IBEX,
        mode=TemporalSafetyMode.HARDWARE,
        zero_copy=zero_copy,
    )
    report = app.run(duration_ms=duration_ms)
    return {
        "packets_received": report.packets_received,
        "js_ticks": report.js_ticks,
        "js_objects_allocated": report.js_objects_allocated,
        "led_final": tuple(report.led_final),
        "net": _behaviour_counters(app.pipeline),
        "mqtt_messages": app.session.mqtt.stats.dispatched,
        "tls_decrypted": app.session.tls.stats.records_decrypted,
    }


class TestSeedAppDifferential:
    def test_app_behaviour_identical_across_disciplines(self):
        zero = _app_observables(True)
        assert zero == _app_observables(False)
        assert zero["packets_received"] > 0

    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_cpu_load_regime_preserved(self, zero_copy):
        """The e2e benchmark's acceptance window holds in both modes.

        Its window is calibrated at the paper's 60 s run (the one-off
        80M-cycle handshake dominates anything much shorter).
        """
        app = IoTApplication(
            core=CoreKind.IBEX,
            mode=TemporalSafetyMode.HARDWARE,
            zero_copy=zero_copy,
        )
        report = app.run(duration_ms=60_000)
        assert 0.05 < report.cpu_load < 0.35
        assert report.js_ticks == 6000
        assert sum(report.led_final) == 1


def _pipeline_observables(zero_copy: bool) -> dict:
    pipeline = NetPipeline(zero_copy=zero_copy, collect_messages=True)
    pipeline.establish_many(range(1, 17))
    gen = NetLoadGen(
        range(1, 17), seed=20260807, corrupt_rate=0.15, reorder_rate=0.15
    )
    drive(pipeline, gen, rounds=3)
    return {
        "messages": pipeline.messages,
        "per_session": {
            conn_id: (
                session.delivered,
                session.delivered_bytes,
                session.expected_seq,
            )
            for conn_id, session in sorted(pipeline.sessions.items())
        },
        **_behaviour_counters(pipeline),
        "crypto_cycles": pipeline.stats.cycles_crypto,
    }


class TestScaledPipelineDifferential:
    def test_pipeline_behaviour_identical_across_disciplines(self):
        zero = _pipeline_observables(True)
        copy = _pipeline_observables(False)
        assert zero == copy
        assert zero["packets_delivered"] > 0
        assert zero["dropped_corrupt"] > 0  # the faults actually fired

    def test_cycles_differ_where_they_should(self):
        """The disciplines are not accidentally the same code path."""
        zero = NetPipeline(zero_copy=True)
        copy = NetPipeline(zero_copy=False)
        for pipeline in (zero, copy):
            pipeline.establish_many(range(1, 5))
            gen = NetLoadGen(range(1, 5), seed=1)
            drive(pipeline, gen, rounds=2)
        assert copy.stats.allocs > zero.stats.allocs
        assert copy.stats.cycles_driver > zero.stats.cycles_driver
        assert zero.stats.narrowings > 0
        assert copy.stats.narrowings == 0


class TestTierDifferential:
    """The device sample — net phase included — across execution tiers.

    The fleet's byte-identity contract says the execution tier of the
    device's CPU kernel can never leak into its report; the net phase
    rides the same sample, so it inherits the obligation.
    """

    @pytest.mark.parametrize("device_id", [0, 3])
    def test_device_sample_tier_invariant(self, device_id, monkeypatch):
        spec = DeviceSpec(device_id=device_id, fleet_seed=20260807)
        fused = run_device(spec)
        make_cpu = System.make_cpu
        monkeypatch.setattr(
            System, "make_cpu",
            lambda system, **kw: make_cpu(system, **kw, tier=Tier.INTERP),
        )
        interp = run_device(spec)
        assert json.dumps(fused, sort_keys=True) == json.dumps(
            interp, sort_keys=True
        )
        assert fused["net"]["counters"]["packets_delivered"] > 0

    def test_device_sample_run_to_run_stable(self):
        spec = DeviceSpec(device_id=1, fleet_seed=20260807)
        assert json.dumps(run_device(spec), sort_keys=True) == json.dumps(
            run_device(spec), sort_keys=True
        )
