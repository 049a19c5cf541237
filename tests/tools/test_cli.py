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


def test_trace_export_refuses_a_kernel_for_a_fleet(tmp_path):
    # A fleet rotates its devices' kernels; a --kernel it would ignore
    # is a usage error, not a trace of some other kernel.
    proc = _spawn(
        tmp_path, "trace_export.py", "--fleet", "1", "--kernel", "matrix",
        "-o", "k.json",
    )
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("trace_export.py: error: argument --kernel")
    assert "device i profiles FLEET_KERNELS[i % 3]" in error
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


@pytest.mark.parametrize(
    "tool, option, value",
    [
        ("profile_report.py", "--top", "0"),
        ("profile_report.py", "--top", "-1"),
        ("profile_report.py", "--rounds", "-1"),
        ("trace_export.py", "--rounds", "-1"),
    ],
    ids=["top-zero", "top-negative", "profile-rounds", "trace-rounds"],
)
def test_tools_refuse_counts_that_print_wrong_output(
    tmp_path, tool, option, value
):
    # --top 0 printed "(no samples)" under thousands of retired
    # instructions, --top -1 all but the coldest PC, and a negative
    # --rounds silently ran no allocation churn.
    proc = _spawn(tmp_path, tool, option, value)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith(f"{tool}: error: argument {option}")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_profile_report_reconciles(tmp_path):
    out = _run(tmp_path, "profile_report.py")
    assert "per-context cycle attribution:" in out
    assert "hot PCs" in out
    assert list(tmp_path.iterdir()) == []
