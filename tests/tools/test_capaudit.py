"""The audit artifact: deterministic, job-count independent, claim-enforcing.

``AUDIT_baseline.json`` is the ``audit`` entry of the artifact table:
:func:`repro.verify.audit_document` produces it and the entry's claims
demand zero violations, a clean policy and a consistent crosscheck.
"""

import json
import os

import pytest

from repro.artifact import Inputs, render_json
from repro.verify import audit_document

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def doc():
    return audit_document(Inputs(root=REPO))


def test_audit_document_shape(doc):
    assert set(doc) == {"version", "images", "linkage", "policy", "crosscheck"}
    assert set(doc["images"]) == {"baremetal", "coremark", "regwalk", "switcher"}


def test_audit_is_deterministic(doc):
    again = audit_document(Inputs(root=REPO))
    assert render_json(doc) == render_json(again)


def test_parallel_jobs_produce_identical_bytes(artifacts, entry):
    """The committed audit reproduces whatever ``--jobs`` says."""
    assert artifacts.check(entry("audit"), Inputs(root=REPO, jobs=3)) == 0


def test_committed_baseline_matches_a_fresh_run(doc):
    with open(os.path.join(REPO, "AUDIT_baseline.json")) as fh:
        committed = fh.read()
    assert committed == render_json(doc), (
        "AUDIT_baseline.json is stale — refresh with: make refresh NAME=audit"
    )


def test_gates_pass_on_the_stock_audit(entry, doc):
    assert entry("audit").claims(doc) == []


def test_gates_catch_injected_violations(entry, doc):
    bad = json.loads(render_json(doc))
    bad["images"]["baremetal"]["violations"].append(
        {
            "category": "bounds",
            "index": 0,
            "mnemonic": "sw",
            "message": "synthetic",
        }
    )
    bad["policy"]["violations"].append(
        {"rule": "mmio-allowlist", "subject": "x", "message": "synthetic"}
    )
    bad["crosscheck"]["consistent"] = False
    problems = entry("audit").claims(bad)
    assert len(problems) == 3
