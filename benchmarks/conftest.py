"""Shared benchmark configuration.

The Section-7 tables are produced in process by
:mod:`repro.analysis.tables` (``make refresh NAME=tables``); what
remains here is the host-time harness, run with
``pytest benchmarks/ --benchmark-disable -s``.
"""


def emit(title: str, body: str) -> None:
    """Print a measurement with a recognisable banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{body}\n")
