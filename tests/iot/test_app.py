"""Tests for the end-to-end IoT application (section 7.2.3)."""

import json
import pathlib

import pytest

from repro.allocator import TemporalSafetyMode
from repro.iot.app import IoTApplication
from repro.iot.jsvm import led_animation_bytecode
from repro.pipeline import CoreKind

_POLICY = pathlib.Path(__file__).resolve().parents[2] / "AUDIT_policy.json"
#: The compartments the IoT image adds to the stock system.
IOT_COMPARTMENTS = ("firewall", "tcpip", "tls", "mqtt", "jsvm")


@pytest.fixture(scope="module")
def short_run():
    app = IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
    report = app.run(duration_ms=1000)
    return app, report


class TestEndToEnd:
    def test_bytecode_delivered_over_the_stack(self, short_run):
        app, report = short_run
        assert app.vm.has_program
        assert report.packets_received > 0

    def test_js_ticks_every_10ms(self, short_run):
        _, report = short_run
        assert report.js_ticks >= 90  # ~100 ticks in 1s, minus bootstrap

    def test_leds_animated(self, short_run):
        app, report = short_run
        assert sum(report.led_final) == 1  # exactly one LED in the chase

    def test_js_objects_heap_allocated_and_collected(self, short_run):
        app, report = short_run
        assert report.js_objects_allocated > 0
        assert report.gc_passes > 0

    def test_cpu_load_computed(self, short_run):
        """A 1 s window cannot amortize the TLS handshake (~4 s of

        20 MHz CPU), so load may exceed 1 here; the paper-scale figure
        is asserted over a longer window below."""
        _, report = short_run
        assert report.cpu_load > 0
        assert report.idle_fraction == pytest.approx(1 - report.cpu_load)

    def test_cpu_load_paper_regime_over_longer_window(self):
        app = IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
        report = app.run(duration_ms=20_000)
        # Paper: 17.5 % over 60 s including connection establishment.
        # Over 20 s the handshake weighs 3x heavier, so accept < 45 %.
        assert 0.05 < report.cpu_load < 0.45

    def test_all_compartments_present(self, short_run):
        app, _ = short_run
        for name in ("alloc", "app") + IOT_COMPARTMENTS:
            assert app.system.switcher.compartment(name)

    def test_compartment_calls_went_through_switcher(self, short_run):
        app, _ = short_run
        assert app.system.switcher.stats.calls > 100


class TestBytecodeDelivery:
    def test_redelivery_replaces_the_program(self):
        """Every connect() delivers the program again; the VM must then
        hold that program, not the old one with the new one appended."""
        app = IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
        app.connect()
        app.connect()
        assert app.vm.bytecode == led_animation_bytecode()


class TestSecurityPosture:
    def test_packet_buffers_quarantined_after_release(self, short_run):
        """Every packet is one heap buffer, freed when the chain is done.

        A freed buffer is painted and quarantined, so temporal safety
        covers every packet (paper 7.2.3).
        """
        app, report = short_run
        stats = app.pipeline.stats
        accepted = stats.packets_in - stats.dropped_backpressure
        assert accepted == report.packets_received > 0
        # Zero-copy: one driver-edge allocation per packet, no other.
        assert stats.allocs == stats.frees == accepted

    def test_loader_finalized(self, short_run):
        from repro.rtos.loader import LoaderError

        app, _ = short_run
        with pytest.raises(LoaderError):
            app.system.loader.add_compartment("late")



class TestImageAudit:
    """The rebuilt image, as the signer sees it."""

    @pytest.fixture(scope="class")
    def audit(self):
        from repro.rtos import audit_image

        app = IoTApplication(core=CoreKind.IBEX,
                             mode=TemporalSafetyMode.HARDWARE)
        return audit_image(app.system.switcher, app.system.loader.memory_map)

    def test_image_passes_the_committed_policy(self, audit):
        from repro.verify import evaluate_policy

        policy = json.loads(_POLICY.read_text())
        assert evaluate_policy(audit, policy) == []

    def test_one_receive_chain_entered_from_the_driver_loop(self, audit):
        """The app enters each stage and the JS VM by one export each.

        No stage links to another: the driver loop carries every
        packet from stage to stage.
        """
        imports = sorted(
            (imp.importer, imp.exporter, imp.export)
            for imp in audit.imports
            if imp.exporter in IOT_COMPARTMENTS
        )
        assert imports == [
            ("app", "firewall", "admit"),
            ("app", "jsvm", "tick"),
            ("app", "mqtt", "dispatch"),
            ("app", "tcpip", "ingest"),
            ("app", "tls", "process"),
        ]
        exports = [
            (record.compartment, record.export)
            for record in audit.exports
            if record.compartment in IOT_COMPARTMENTS
        ]
        assert sorted(exports) == [(comp, name) for _, comp, name in imports]
