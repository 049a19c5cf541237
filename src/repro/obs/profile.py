"""Cycle attribution: who spent the cycles, and at which PC.

Two independent profilers share the CoreModel cycle clock:

:class:`CycleAttributor`
    A context stack.  RTOS layers push a context name ("switcher", a
    compartment name, "scheduler", "allocator", "revoker") around the
    work they do; every push/pop settles the cycles elapsed since the
    last transition into the context that was running.  Because every
    elapsed cycle lands in exactly one bucket, the totals reconcile
    with ``CoreModel.cycles`` by construction — the invariant
    ``make profile`` checks.

:class:`PCProfiler`
    A CPU retire hook.  Each retired instruction is charged the cycles
    the core model accrued since the previous retire, keyed by PC —
    the hot-PC histogram.  Attach it only while profiling; detached it
    costs nothing (the executor's hook check is a single ``is None``
    branch).

Fleet profiles: :func:`profile_to_dict` serialises one profiler into a
JSON-shaped histogram (PCs keyed by fixed-width hex, so ``sort_keys``
yields numeric order), :func:`merge_profile_dicts` folds many devices'
histograms by per-PC integer addition — commutative and associative,
like every merge on the byte-reproducible path — and :func:`diff_hot`
compares the top-N against a committed baseline to catch hot-path
regressions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

ROOT_CONTEXT = "app"

#: Schema tag on serialised profiles; bump on shape changes.
PROFILE_SCHEMA = 1


class CycleAttributor:
    """Attribute every elapsed cycle to the innermost active context."""

    def __init__(self, core_model) -> None:
        self.core = core_model
        self._stack: List[str] = [ROOT_CONTEXT]
        self._mark = core_model.cycles
        self.totals: Dict[str, int] = {}

    def _settle(self) -> None:
        now = self.core.cycles
        elapsed = now - self._mark
        if elapsed:
            top = self._stack[-1]
            self.totals[top] = self.totals.get(top, 0) + elapsed
        self._mark = now

    def push(self, context: str) -> None:
        self._settle()
        self._stack.append(context)

    def pop(self) -> None:
        self._settle()
        if len(self._stack) > 1:
            self._stack.pop()

    def rebase(self) -> None:
        """Forget the totals and any un-settled cycles — pairs with
        ``System.reset_cycles``, so attribution restarts with the core's
        count."""
        self._mark = self.core.cycles
        self.totals.clear()

    @property
    def current(self) -> str:
        return self._stack[-1]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def snapshot(self) -> Dict[str, int]:
        """Totals including cycles still accruing in the current context."""
        self._settle()
        return dict(self.totals)

    def total(self) -> int:
        return sum(self.snapshot().values())


class PCProfiler:
    """Hot-PC histogram built from the executor's retire hook."""

    def __init__(self, core_model) -> None:
        self.core = core_model
        self._last = core_model.cycles
        self.cycles_by_pc: Dict[int, int] = {}
        self.hits_by_pc: Dict[int, int] = {}
        self.text_by_pc: Dict[int, str] = {}
        self.retired = 0

    def attach(self, cpu) -> "PCProfiler":
        """Register on ``cpu`` and resync the cycle mark."""
        self._last = self.core.cycles
        cpu.add_retire_hook(self.record)
        return self

    def detach(self, cpu) -> None:
        cpu.remove_retire_hook(self.record)

    def record(self, instr, info) -> None:
        now = self.core.cycles
        pc = info.pc
        self.cycles_by_pc[pc] = self.cycles_by_pc.get(pc, 0) + (now - self._last)
        self.hits_by_pc[pc] = self.hits_by_pc.get(pc, 0) + 1
        if pc not in self.text_by_pc:
            self.text_by_pc[pc] = getattr(instr, "text", None) or type(instr).__name__
        self.retired += 1
        self._last = now

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles_by_pc.values())

    def hot(self, n: int = 10) -> List[Tuple[int, int, int, str]]:
        """Top-``n`` PCs by cycles: (pc, cycles, hits, text)."""
        ranked = sorted(
            self.cycles_by_pc.items(), key=lambda item: item[1], reverse=True
        )
        return [
            (pc, cycles, self.hits_by_pc[pc], self.text_by_pc.get(pc, "?"))
            for pc, cycles in ranked[:n]
        ]


def _pc_key(pc: int, image: str = "") -> str:
    """Fixed-width hex so lexicographic key order equals PC order.

    ``image`` prefixes the key (``traced-list:0x2000074c``): a raw PC
    only names an instruction *within one program image*, so profiles
    of different images must keep separate PC namespaces or the merge
    would add cycles of unrelated instructions that happen to share an
    address.
    """
    key = f"0x{pc:08x}"
    return f"{image}:{key}" if image else key


def profile_to_dict(profiler: PCProfiler, image: str = "") -> dict:
    """Serialise one profiler's hot-PC histogram, merge-ready.

    ``image`` names the program the profiler watched; same-image
    profiles merge per-PC, different images stay disjoint.
    """
    pcs = {}
    for pc in sorted(profiler.cycles_by_pc):
        pcs[_pc_key(pc, image)] = {
            "cycles": profiler.cycles_by_pc[pc],
            "hits": profiler.hits_by_pc.get(pc, 0),
            "text": profiler.text_by_pc.get(pc, "?"),
        }
    return {"schema": PROFILE_SCHEMA, "retired": profiler.retired, "pcs": pcs}


def merge_profile_dicts(profiles: Iterable[dict]) -> dict:
    """Fold per-device profile dicts into one fleet histogram.

    Cycles, hits and retired counts add per PC key; the disassembly
    text must agree wherever two devices saw the same key (within one
    image it is a pure function of the program, so disagreement means
    the inputs mixed different builds under one label and the merge
    refuses).
    """
    merged_pcs: Dict[str, dict] = {}
    retired = 0
    for profile in profiles:
        if profile.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"profile schema {profile.get('schema')!r} != {PROFILE_SCHEMA}"
            )
        retired += profile["retired"]
        for key in sorted(profile["pcs"]):
            entry = profile["pcs"][key]
            slot = merged_pcs.get(key)
            if slot is None:
                merged_pcs[key] = {
                    "cycles": entry["cycles"],
                    "hits": entry["hits"],
                    "text": entry["text"],
                }
            else:
                if slot["text"] != entry["text"]:
                    raise ValueError(
                        f"PC {key} text mismatch: "
                        f"{slot['text']!r} vs {entry['text']!r}"
                    )
                slot["cycles"] += entry["cycles"]
                slot["hits"] += entry["hits"]
    pcs = {key: merged_pcs[key] for key in sorted(merged_pcs)}
    return {"schema": PROFILE_SCHEMA, "retired": retired, "pcs": pcs}


def hot_from_dict(profile: dict, n: int = 10) -> List[Tuple[str, int, int, str]]:
    """Top-``n`` PCs of a serialised profile: (key, cycles, hits, text).

    Ties break on the (fixed-width) key so the ranking is total and
    deterministic.
    """
    ranked = sorted(
        profile["pcs"].items(),
        key=lambda item: (-item[1]["cycles"], item[0]),
    )
    return [
        (key, entry["cycles"], entry["hits"], entry["text"])
        for key, entry in ranked[:n]
    ]


def diff_hot(baseline: dict, current: dict, n: int = 10) -> List[str]:
    """Human-oriented top-``n`` drift between two serialised profiles.

    Returns one line per difference (empty list: the hot sets agree):
    PCs that entered or left the top-``n``, and per-PC cycle drift for
    PCs present in both rankings.
    """
    base_hot = {key: (cycles, text) for key, cycles, _, text in hot_from_dict(baseline, n)}
    cur_hot = {key: (cycles, text) for key, cycles, _, text in hot_from_dict(current, n)}
    lines = []
    for key in sorted(base_hot.keys() | cur_hot.keys()):
        if key not in cur_hot:
            cycles, text = base_hot[key]
            lines.append(f"{key} left top-{n} (was {cycles:,} cyc, {text})")
        elif key not in base_hot:
            cycles, text = cur_hot[key]
            lines.append(f"{key} entered top-{n} ({cycles:,} cyc, {text})")
        elif base_hot[key][0] != cur_hot[key][0]:
            lines.append(
                f"{key} cycles {base_hot[key][0]:,} -> {cur_hot[key][0]:,} "
                f"({cur_hot[key][1]})"
            )
    return lines


def render_attribution(
    totals: Dict[str, int],
    core_cycles: Optional[int] = None,
    width: int = 40,
) -> str:
    """Text flamegraph-style bars for a per-context cycle breakdown."""
    lines = []
    grand = sum(totals.values())
    denominator = grand or 1
    for name, cycles in sorted(totals.items(), key=lambda kv: kv[1], reverse=True):
        frac = cycles / denominator
        bar = "#" * max(1, round(frac * width)) if cycles else ""
        lines.append(f"  {name:<16} {cycles:>12,}  {frac:6.1%}  {bar}")
    lines.append(f"  {'total':<16} {grand:>12,}")
    if core_cycles is not None:
        status = "reconciled" if grand == core_cycles else "MISMATCH"
        lines.append(f"  {'core model':<16} {core_cycles:>12,}  [{status}]")
    return "\n".join(lines)


def render_hot_pcs(profiler: PCProfiler, n: int = 10, width: int = 30) -> str:
    """Text histogram of the hottest PCs."""
    rows = profiler.hot(n)
    if not rows:
        return "  (no samples)"
    top = rows[0][1] or 1
    lines = []
    for pc, cycles, hits, text in rows:
        bar = "#" * max(1, round(cycles / top * width))
        lines.append(f"  {pc:#010x}  {cycles:>10,} cyc  {hits:>8,} hits  {bar}  {text}")
    return "\n".join(lines)
