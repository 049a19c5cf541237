"""Per-shard checkpoints: an interrupted fleet resumes, never restarts.

Layout of a checkpoint directory::

    manifest.json        {"fingerprint": ..., "plan": {...}}
    shard-0003.json      one completed shard's result
    work/                scratch: specs, heartbeats, worker logs

Results are committed atomically (tmp file + ``os.replace``), so a
SIGKILL mid-write can never leave a half-result that a resume would
trust.  The manifest pins the directory to one plan fingerprint; a
``--resume`` against a different plan is refused with the two
fingerprints named, because merging shards from different plans would
silently corrupt the report.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Optional

from .plan import FleetPlan

_SHARD_RE = re.compile(r"^shard-(\d{4})\.json$")


class CheckpointError(Exception):
    """A checkpoint directory that cannot be used as requested."""


class CheckpointStore:
    """Atomic per-shard result files under one directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.workdir = os.path.join(root, "work")
        os.makedirs(self.workdir, exist_ok=True)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def bind(self, plan: FleetPlan, resume: bool) -> None:
        """Pin this directory to ``plan`` (or verify it already is).

        Without ``resume`` stale shard files from a previous run are
        removed — a fresh run must never pick up old results.
        """
        fingerprint = plan.fingerprint()
        existing = self._read_manifest()
        if existing is not None and existing.get("fingerprint") != fingerprint:
            if resume:
                raise CheckpointError(
                    f"checkpoint dir {self.root!r} belongs to plan "
                    f"{existing.get('fingerprint')!r}, not {fingerprint!r}; "
                    "resume refused — delete the directory or rerun the "
                    "original plan"
                )
            self._clear_shards()
        elif not resume:
            self._clear_shards()
        payload = {"fingerprint": fingerprint, "plan": plan.to_dict()}
        self._write_atomic(self.manifest_path, json.dumps(payload, indent=2))

    def _read_manifest(self) -> Optional[dict]:
        try:
            with open(self.manifest_path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise CheckpointError(
                f"corrupt manifest {self.manifest_path!r}: {exc}"
            ) from exc

    def _clear_shards(self) -> None:
        for name in os.listdir(self.root):
            if _SHARD_RE.match(name):
                os.unlink(os.path.join(self.root, name))

    # ------------------------------------------------------------------
    # Shard results
    # ------------------------------------------------------------------

    def shard_path(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard-{shard_id:04d}.json")

    def commit(self, shard_id: int, result: dict) -> None:
        """Atomically persist one completed shard."""
        self._write_atomic(
            self.shard_path(shard_id), json.dumps(result, sort_keys=True)
        )

    def completed(self) -> Dict[int, dict]:
        """Every committed shard result, keyed by shard id.

        A malformed file (e.g. from a torn write on a dying host, which
        the atomic rename makes very unlikely but a hostile filesystem
        can still produce) is treated as absent: the shard simply runs
        again.
        """
        out: Dict[int, dict] = {}
        for name in sorted(os.listdir(self.root)):
            match = _SHARD_RE.match(name)
            if not match:
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path) as fh:
                    out[int(match.group(1))] = json.load(fh)
            except ValueError:
                os.unlink(path)
        return out

    def results_for(self, plan: FleetPlan) -> Dict[int, dict]:
        """Every shard of ``plan``, read back from this directory.

        Refuses a directory that is not a checkpoint of ``plan`` or that
        misses a shard — a partial fleet must not pass for a whole one.
        """
        manifest = self._read_manifest()
        if manifest is None:
            raise CheckpointError(
                f"no manifest in {self.root!r}; not a checkpoint dir"
            )
        if manifest.get("fingerprint") != plan.fingerprint():
            raise CheckpointError(
                f"checkpoint dir {self.root!r} holds plan "
                f"{manifest.get('fingerprint')!r}, expected "
                f"{plan.fingerprint()!r}"
            )
        results = self.completed()
        missing = [
            spec.shard_id for spec in plan.shards()
            if spec.shard_id not in results
        ]
        if missing:
            raise CheckpointError(
                f"checkpoint dir {self.root!r} is incomplete: missing "
                f"shards {missing} — finish the run with --resume"
            )
        return results

    # ------------------------------------------------------------------

    @staticmethod
    def _write_atomic(path: str, payload: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
