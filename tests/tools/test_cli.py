"""The trace and profile command-line tools, run as their users run them.

Each tool runs as a subprocess from a temporary working directory, so
a run can leave nothing behind in the repository.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.workload import FLEET_PROFILE_DEVICES

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _spawn(tmp_path, tool, *args):
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", tool), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def _run(tmp_path, tool, *args):
    proc = _spawn(tmp_path, tool, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _processes(path):
    """The process names a ``trace_event`` file declares."""
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    return [
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event["name"] == "process_name"
    ]


@pytest.mark.parametrize(
    "args, processes",
    [((), 1), (("--fleet",), FLEET_PROFILE_DEVICES)],
    ids=["device", "fleet"],
)
def test_trace_export_writes_one_process_per_device(tmp_path, args, processes):
    out = tmp_path / "trace.json"
    _run(tmp_path, "trace_export.py", *args, "-o", str(out))
    names = _processes(out)
    assert len(names) == len(set(names)) == processes


def test_trace_export_refuses_a_negative_fleet(tmp_path):
    proc = _spawn(tmp_path, "trace_export.py", "--fleet", "-1")
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("trace_export.py: error: argument --fleet")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_profile_report_refuses_zero_iterations(tmp_path):
    # Zero kernel iterations would count down past zero and run ~2^32
    # loops; the tool must refuse it up front (the spawn's timeout
    # fails the test instead of hanging it).
    proc = _spawn(tmp_path, "profile_report.py", "--iterations", "0")
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("profile_report.py: error: argument --iterations")
    assert "Traceback" not in proc.stderr


def test_profile_report_reconciles(tmp_path):
    out = _run(tmp_path, "profile_report.py")
    assert "per-context cycle attribution:" in out
    assert "hot PCs" in out
    assert list(tmp_path.iterdir()) == []
