"""Static capability-safety verification (paper sections 3-4).

The paper's security argument is that memory safety is *statically
auditable*: capability monotonicity, sealed entry sentries, interrupt
posture and held authority are all decidable from the firmware image
before it ever runs.  This package is that auditor for our image model:

* :mod:`cfg` — per-compartment control-flow graphs over pre-decoded
  guest code (reusing the ISA decode and the translation cache's block
  boundaries);
* :mod:`domain` — the abstract capability lattice (tag, otype set,
  must/may permissions, bounds, address interval, provenance);
* :mod:`absint` — the worklist abstract interpreter that runs each
  compartment to fixpoint and proves (or reports it cannot prove) the
  monotonicity / sentry / stack-confinement / isolation properties;
* :mod:`policy` — the ``cheriot-audit``-style declarative policy engine
  over the linkage report (one schema, shared with
  :mod:`repro.rtos.audit`);
* :mod:`images` — the audited image set mirroring the repo's
  example/workload images;
* :mod:`crosscheck` — the falsifiability gate tying the static verdicts
  to the dynamic fault campaign through code-splice mutants;
* :mod:`report` — all of the above as the committed
  ``AUDIT_baseline.json`` (``make refresh NAME=audit``).
"""

from .absint import (
    CompartmentSpan,
    Finding,
    ImageSpec,
    VerifyResult,
    verify_image,
)
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .crosscheck import run_crosscheck
from .domain import AbstractCap, Tri
from .images import AUDITED_IMAGES
from .policy import (
    AuditReport,
    PolicyViolation,
    audit_image,
    evaluate_policy,
)
from .report import audit_document

__all__ = [
    "AUDITED_IMAGES",
    "AbstractCap",
    "AuditReport",
    "BasicBlock",
    "CompartmentSpan",
    "ControlFlowGraph",
    "Finding",
    "ImageSpec",
    "PolicyViolation",
    "Tri",
    "VerifyResult",
    "audit_document",
    "audit_image",
    "build_cfg",
    "evaluate_policy",
    "run_crosscheck",
    "verify_image",
]
