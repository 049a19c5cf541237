"""Critical-path (f_max) estimates for the Ibex variants.

The paper reports that **all** Ibex configurations close timing at the
same 330 MHz f_max — i.e. none of the CHERIoT additions lands on the
critical path:

* the bounds check shares the MEM-stage window the address adder
  already occupies;
* the load filter's base extraction "would not be on the critical
  path" (section 3.3.2) and its revocation-bit lookup has a dedicated
  pipeline slot (Figure 4);
* the background revoker is a decoupled state machine.

We model each block with a logic *depth* (gate levels on its worst
input-to-register path) and a stage assignment; a variant's f_max is
set by its deepest stage.  Depths are estimates calibrated so the
RV32E baseline sits at the paper's 330 MHz; the claim reproduced is
that every variant's deepest path is still a *baseline* path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .area_power import FMAX_MHZ

#: Gate levels the 28nm process closes at the baseline f_max; the
#: baseline's deepest stage defines it.
_BASELINE_DEPTH = 36


@dataclass(frozen=True)
class PathContribution:
    """One block's worst path within a pipeline stage."""

    block: str
    stage: str
    depth: int  # gate levels


#: Per-stage logic depth of the baseline core (the ALU + bypass network
#: in EX is the critical stage of a small in-order core).
_BASELINE_PATHS = (
    PathContribution("fetch-align", "IF", 22),
    PathContribution("decode", "ID", 28),
    PathContribution("alu-bypass", "EX", _BASELINE_DEPTH),
    PathContribution("lsu-align", "MEM", 30),
    PathContribution("writeback-mux", "WB", 14),
)

_PMP_PATHS = (
    # The PMP's comparators and priority mux sit in parallel with the
    # LSU's address path but the 16-way priority tree is deep.
    PathContribution("pmp-match-priority", "MEM", 34),
)

_CAPABILITY_PATHS = (
    # Bounds decode overlaps the address add; the final compare adds a
    # few levels but stays under the EX ALU path.
    PathContribution("cap-bounds-compare", "MEM", 35),
    PathContribution("cap-perm-check", "MEM", 18),
    PathContribution("cap-setbounds", "EX", 33),
)

_LOAD_FILTER_PATHS = (
    # Base extraction happens in MEM (already computed for the bounds
    # check); the revocation bit lands in WB and only gates the tag.
    PathContribution("load-filter-base-extract", "MEM", 24),
    PathContribution("load-filter-tag-strip", "WB", 8),
)

_REVOKER_PATHS = (
    # Decoupled engine: its own tiny 2-stage pipeline.
    PathContribution("revoker-fsm", "ENGINE", 20),
    PathContribution("revoker-snoop-compare", "ENGINE", 16),
)


@dataclass(frozen=True)
class TimingReport:
    variant: str
    critical_block: str
    critical_stage: str
    depth: int

    @property
    def fmax_mhz(self) -> float:
        """Depth scales delay linearly; calibrated at the baseline."""
        return FMAX_MHZ * _BASELINE_DEPTH / self.depth

    @property
    def meets_baseline_fmax(self) -> bool:
        return self.depth <= _BASELINE_DEPTH


def _variants() -> "List[Tuple[str, tuple]]":
    return [
        ("RV32E", _BASELINE_PATHS),
        ("RV32E + PMP16", _BASELINE_PATHS + _PMP_PATHS),
        ("RV32E + capabilities", _BASELINE_PATHS + _CAPABILITY_PATHS),
        (
            "+ load filter",
            _BASELINE_PATHS + _CAPABILITY_PATHS + _LOAD_FILTER_PATHS,
        ),
        (
            "+ background revoker",
            _BASELINE_PATHS
            + _CAPABILITY_PATHS
            + _LOAD_FILTER_PATHS
            + _REVOKER_PATHS,
        ),
    ]


def timing_reports() -> List[TimingReport]:
    """Critical path of every Table 2 variant."""
    reports = []
    for name, paths in _variants():
        worst = max(paths, key=lambda p: p.depth)
        reports.append(TimingReport(name, worst.block, worst.stage, worst.depth))
    return reports


def format_timing() -> str:
    from repro.analysis.reporting import format_table

    rows = [
        (
            r.variant,
            f"{r.critical_block} ({r.critical_stage})",
            r.depth,
            f"{r.fmax_mhz:.0f} MHz",
        )
        for r in timing_reports()
    ]
    return format_table(["variant", "critical path", "depth", "f_max"], rows)
