"""What every producer of a committed artifact shares.

The repository's evidence lives in committed files (``BENCH_*``,
``OBS_*``, ``AUDIT_baseline.json``, ``bench_output_tables.txt``), each
regenerated by one producer function and gated by the artifact table
in ``tools/artifacts.py``.  The producers share three things, defined
once here:

* :func:`render_json` — the one canonical byte form of a JSON
  artifact: sorted keys, two-space indent, trailing newline;
* :func:`parallel_map` — the one worker pool: an order-preserving map
  over worker processes, so an artifact's bytes never depend on the
  job count or on which worker finished first;
* :class:`Inputs` — what the artifact loop hands a producer: the job
  count, the directory holding the committed files, the committed
  document itself (some producers read their configuration from it),
  and a cache that lets two producers share one expensive run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional


def render_json(doc) -> str:
    """The canonical byte form of a JSON artifact."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> List:
    """``[fn(item) for item in items]``, on up to ``jobs`` processes.

    Results come back in input order whatever the completion order, so
    any document assembled from them is job-count independent.  Workers
    are spawned, not forked, and start from a fresh import: ``fn`` must
    be a module-level function (it is pickled by name) and ``items``
    must pickle.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


@dataclass
class Inputs:
    """Everything a producer may read besides its own code."""

    #: Directory holding the committed files (the repository root).
    root: str = "."
    #: Worker processes the producer may use (via :func:`parallel_map`).
    jobs: int = 1
    #: The committed document being regenerated, when it is readable.
    committed: Optional[object] = None
    #: A fleet checkpoint directory whose shard results stand in for a
    #: fresh shard run (an interrupted-then-resumed fleet, say).
    results_from: Optional[str] = None
    #: Shared by every producer of one loop run.
    cache: dict = field(default_factory=dict)

    def load(self, name: str) -> dict:
        """A committed JSON input file, e.g. a policy."""
        with open(os.path.join(self.root, name)) as fh:
            return json.load(fh)
