"""Every example script must run clean — they are the documentation."""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=120):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("quickstart.py", ()),
        ("memory_safety_tour.py", ()),
        ("compartment_firmware.py", ()),
        ("baremetal_assembly.py", ()),
        ("multithreaded_sensors.py", ()),
        ("image_audit.py", ()),
        ("iot_application.py", ("2",)),
    ],
)
def test_example_runs_clean(script, args):
    result = run_example(script, *args)
    assert result.returncode == 0, result.stderr


def test_memory_safety_tour_blocks_all_eight():
    result = run_example("memory_safety_tour.py")
    assert "8/8 attacks blocked" in result.stdout


def test_quickstart_shows_the_story():
    result = run_example("quickstart.py")
    assert "tag=False" in result.stdout
    assert "out-of-bounds read" in result.stdout


def test_baremetal_uaf_dies():
    result = run_example("baremetal_assembly.py")
    assert "cheri-tag-violation" in result.stdout


def load_example(name):
    spec = importlib.util.spec_from_file_location(name[:-3], EXAMPLES / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_image_audit_signs_the_iot_image(capsys):
    load_example("image_audit.py").main()
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "the image is signable under this policy" in out


def test_iot_application_reports_a_live_device(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["iot_application.py", "1"])
    load_example("iot_application.py").main()
    out = capsys.readouterr().out
    ticks = int(re.search(r"JS ticks\s+(\d+)", out).group(1))
    packets = int(re.search(r"packets received\s+(\d+)", out).group(1))
    leds = re.search(r"LEDs\s+\[([*.]+)\]", out).group(1)
    assert ticks == 100
    assert packets > 0
    assert leds.count("*") == 1
