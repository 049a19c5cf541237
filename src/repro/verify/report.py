"""The committed signing-time audit (``AUDIT_baseline.json``).

One document tells the complete static story of the repo's images:

* **images** — every audited image (:mod:`repro.verify.images`) run
  through the abstract interpreter: violations (zero on stock images),
  per-category obligation counts and proven-property counts;
* **linkage** — the stock system's linkage report (exports, sealed
  import tokens, capability grants classified against the memory map)
  evaluated against the declarative policy in ``AUDIT_policy.json``;
* **crosscheck** — the static-vs-dynamic falsifiability gate over the
  code-splice mutants.

The document is a pure function of the images, the stock system and
the policy, so its bytes are identical run to run.  The whole audit
takes well under a second, less than starting a worker process would,
so it runs serially.
"""

from __future__ import annotations

from repro.artifact import Inputs
from repro.machine import System

from .absint import verify_image
from .crosscheck import run_crosscheck
from .images import AUDITED_IMAGES
from .policy import audit_image, evaluate_policy

AUDIT_VERSION = 1

#: The committed linkage policy.
AUDIT_POLICY = "AUDIT_policy.json"


def audit_document(inputs: Inputs) -> dict:
    """The full audit document (deterministic)."""
    system = System.build()
    linkage = audit_image(system.switcher, system.loader.memory_map)
    policy = inputs.load(AUDIT_POLICY)
    return {
        "version": AUDIT_VERSION,
        "images": {
            name: verify_image(AUDITED_IMAGES[name]()).to_dict()
            for name in sorted(AUDITED_IMAGES)
        },
        "linkage": linkage.to_dict(),
        "policy": {
            "file": AUDIT_POLICY,
            "violations": [
                v.to_dict() for v in evaluate_policy(linkage, policy)
            ],
        },
        "crosscheck": run_crosscheck(),
    }
