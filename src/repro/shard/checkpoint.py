"""Barrier checkpoints: content-addressed snapshots of a sharded run.

At a window barrier the gang is *globally quiescent in the protocol
sense*: every worker has drained its grant (``sim.run(until=grant,
inclusive=False)`` returned), every cross-shard frame in flight is an
explicit message sitting in the coordinator's ``pending`` lists, and no
worker holds a half-applied update.  That makes the barrier the one
moment where "the whole distributed computation" is a plain value:

* per shard — the worker's entire world (engine queue + clock + seq,
  per-node RNG substreams, the struct-of-arrays store, routing tables,
  ledger and metrics) pickled as one object, plus the process-global
  packet-``uid`` watermark;
* at the coordinator — the window counter and the not-yet-injected
  deliveries / alive flips / route flips.

Restoring both sides reconstructs the run *exactly*: the resumed
execution replays the identical event sequence, draws the identical RNG
values and produces the identical digest as the uninterrupted one.  The
``uid`` watermark is read without consuming a value, so writing a
checkpoint perturbs nothing — a run checkpointed every window stays
bit-identical to one never checkpointed.

On-disk layout (content-addressed by workload, newest-wins, every file
written to a temp name and ``os.replace``d like the runner cache)::

    <dir>/<key16>/win-000008/shard-00.pkl
                            shard-01.pkl
                            coord.pkl
                            MANIFEST.json      # written last: commit marker

A window directory without its ``MANIFEST.json`` was torn mid-write and
is ignored (and eventually pruned); ``keep`` bounds how many committed
windows are retained.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.exceptions import CheckpointError, ConfigurationError
from repro.sim.packet import restore_uid_state, uid_state

__all__ = [
    "CheckpointConfig",
    "CheckpointStore",
    "ResumePoint",
    "base_dir_for",
    "restore_world",
    "snapshot_world",
    "workload_key",
]

#: Bump when the snapshot or manifest layout changes; mismatched
#: checkpoints are rejected, never misread.
FORMAT_VERSION = 1

_MANIFEST = "MANIFEST.json"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often barrier checkpoints are written.

    ``every`` counts *windows*: after the coordinator finishes barrier
    ``k`` it checkpoints iff ``k % every == 0``.  ``keep`` retains the
    newest committed windows and prunes the rest (plus any torn,
    manifest-less directories).
    """

    dir: str
    every: int = 8
    keep: int = 2

    def __post_init__(self) -> None:
        if not self.dir:
            raise ConfigurationError("checkpoint dir must be a non-empty path")
        if not isinstance(self.every, int) or self.every < 1:
            raise ConfigurationError(
                f"checkpoint every must be a positive integer, got {self.every!r}"
            )
        if not isinstance(self.keep, int) or self.keep < 1:
            raise ConfigurationError(
                f"checkpoint keep must be a positive integer, got {self.keep!r}"
            )


@dataclass(frozen=True)
class ResumePoint:
    """One committed checkpoint, located and manifest-verified."""

    window: int
    path: Path
    manifest: dict

    def shard_blob(self, shard: int) -> bytes:
        return (self.path / f"shard-{shard:02d}.pkl").read_bytes()

    def coordinator_state(self) -> dict:
        return pickle.loads((self.path / "coord.pkl").read_bytes())


def base_dir_for(path) -> Path:
    """The store *base* directory a ``resume_from`` path belongs to.

    Users may hand back any level they kept: the base checkpoint dir,
    the ``<key>`` run dir, or one committed ``win-*`` window dir.  The
    base is what a :class:`CheckpointStore` needs so that the resumed
    run keeps writing new checkpoints into the same tree.
    """
    p = Path(path)
    if (p / _MANIFEST).exists():
        return p.parent.parent
    if p.is_dir() and any(
        d.is_dir() and d.name.startswith("win-") and (d / _MANIFEST).exists()
        for d in p.iterdir()
    ):
        return p.parent
    return p


# ----------------------------------------------------------------------
# workload identity
# ----------------------------------------------------------------------
def workload_key(workload, shards: int) -> str:
    """16-hex content address of ``(workload, shards)``.

    Everything that shapes the deterministic execution participates —
    positions (raw float bytes), traffic, protocol and its params,
    radio, world config, battery, seed, rounds, the shard count and the
    snapshot format version.  Execution-neutral knobs (checkpoint
    cadence/location, the config's own shard default) are normalized
    out, so "the same run, checkpointed elsewhere" resolves to the same
    key.
    """
    cfg = workload.world.replace(shards=1, checkpoint_dir=None, checkpoint_every=8)
    canon = (
        np.ascontiguousarray(np.asarray(workload.sensor_positions, dtype=float)).tobytes(),
        np.ascontiguousarray(np.asarray(workload.gateway_positions, dtype=float)).tobytes(),
        float(workload.comm_range),
        tuple((float(t), int(s)) for t, s in workload.traffic),
        str(workload.protocol),
        tuple(sorted(workload.protocol_params.items())),
        workload.radio,
        cfg,
        float(workload.sensor_battery),
        None if workload.seed is None else int(workload.seed),
        tuple(float(t) for t in workload.rounds),
        int(shards),
        FORMAT_VERSION,
    )
    return hashlib.sha256(pickle.dumps(canon, protocol=4)).hexdigest()[:16]


# ----------------------------------------------------------------------
# world snapshots (what one worker writes per shard file)
# ----------------------------------------------------------------------
def snapshot_world(world, proto, extra: Optional[dict] = None) -> bytes:
    """Pickle one worker's entire simulation state at a barrier.

    The world object graph (engine + network + channel + metrics) and
    the attached protocol are one strongly-connected pickle, so shared
    references (the store, the collectors, bound-method handlers)
    restore as shared.  The process-global ``uid`` watermark rides
    along, read without consuming a value; the store's column checksum
    lets :func:`restore_world` detect corrupt or truncated blobs before
    handing back a world.

    The engine refuses to snapshot mid-``run`` (its ``__getstate__``
    raises) — callers hold the barrier invariant, this just enforces it.
    """
    payload = {
        "format": FORMAT_VERSION,
        "world": world,
        "proto": proto,
        "uid": uid_state(),
        "store_checksum": world.network.store.checksum(),
        "extra": dict(extra or {}),
    }
    return pickle.dumps(payload, protocol=4)


def restore_world(blob: bytes):
    """Inverse of :func:`snapshot_world` → ``(world, proto, extra)``.

    Restores the ``uid`` watermark into *this process* (the caller is a
    fresh worker replacing the dead one) and verifies the store column
    checksum — a mismatch means the blob decoded into different bytes
    than were frozen, and resuming from it would silently diverge.
    """
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"undecodable checkpoint blob: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {payload.get('format') if isinstance(payload, dict) else '?'!r}"
            f" is not {FORMAT_VERSION} — written by an incompatible version"
        )
    world, proto = payload["world"], payload["proto"]
    want = payload["store_checksum"]
    got = world.network.store.checksum()
    if got != want:
        raise CheckpointError(
            f"node-state checksum mismatch after restore ({got[:12]} != "
            f"{want[:12]}) — checkpoint corrupt"
        )
    restore_uid_state(payload["uid"])
    return world, proto, payload["extra"]


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Commit / locate / prune checkpoints for one ``(workload, shards)``.

    All paths live under ``<dir>/<key>``; the coordinator hands workers
    their shard-file paths (workers write their own snapshots — the
    blobs never cross the pipe), then commits the window by writing the
    coordinator state and, last, the manifest.
    """

    def __init__(self, config: CheckpointConfig, key: str, shards: int) -> None:
        self.config = config
        self.key = key
        self.shards = int(shards)
        self.run_dir = Path(config.dir) / key

    # -- paths ----------------------------------------------------------
    def window_dir(self, window: int) -> Path:
        return self.run_dir / f"win-{window:06d}"

    def shard_path(self, window: int, shard: int) -> Path:
        return self.window_dir(window) / f"shard-{shard:02d}.pkl"

    # -- write side -----------------------------------------------------
    def begin(self, window: int) -> Path:
        """Create (or reuse) the window directory workers will fill."""
        d = self.window_dir(window)
        d.mkdir(parents=True, exist_ok=True)
        return d

    def commit(self, window: int, coordinator_state: dict) -> Path:
        """Seal window ``window``: coord state, then the manifest marker.

        Every shard file must already be in place (workers acked their
        writes before the coordinator got here); a missing one fails the
        commit instead of publishing a checkpoint that cannot restore.
        """
        d = self.window_dir(window)
        missing = [
            s for s in range(self.shards) if not self.shard_path(window, s).exists()
        ]
        if missing:
            raise CheckpointError(
                f"cannot commit window {window}: shard files missing for {missing}"
            )
        _atomic_write_bytes(
            d / "coord.pkl", pickle.dumps(coordinator_state, protocol=4)
        )
        manifest = {
            "format": FORMAT_VERSION,
            "key": self.key,
            "window": int(window),
            "shards": self.shards,
            "files": [f"shard-{s:02d}.pkl" for s in range(self.shards)] + ["coord.pkl"],
        }
        _atomic_write_text(
            d / _MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        self._prune(keep_window=window)
        return d

    def _prune(self, keep_window: int) -> None:
        """Drop everything but the ``keep`` newest committed windows.

        Torn directories (no manifest) older than the window just
        committed are abandoned writes — removed too.
        """
        if not self.run_dir.is_dir():  # pragma: no cover - just committed
            return
        committed, torn = [], []
        for d in self.run_dir.iterdir():
            if not d.is_dir() or not d.name.startswith("win-"):
                continue
            ((committed if (d / _MANIFEST).exists() else torn)).append(d)
        committed.sort(key=lambda d: d.name)
        for d in committed[: -self.config.keep] if len(committed) > self.config.keep else []:
            shutil.rmtree(d, ignore_errors=True)
        for d in torn:
            if d.name < f"win-{keep_window:06d}":
                shutil.rmtree(d, ignore_errors=True)

    # -- read side ------------------------------------------------------
    def latest(self) -> Optional[ResumePoint]:
        """Newest committed checkpoint of this run, or ``None``."""
        if not self.run_dir.is_dir():
            return None
        best: Optional[Path] = None
        for d in sorted(self.run_dir.iterdir()):
            if d.is_dir() and d.name.startswith("win-") and (d / _MANIFEST).exists():
                best = d
        if best is None:
            return None
        return self._load(best)

    def _load(self, window_dir: Path) -> ResumePoint:
        try:
            manifest = json.loads((window_dir / _MANIFEST).read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable manifest in {window_dir}: {exc}") from exc
        if manifest.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {window_dir} has format {manifest.get('format')!r}, "
                f"expected {FORMAT_VERSION}"
            )
        if manifest.get("key") != self.key:
            raise CheckpointError(
                f"checkpoint {window_dir} belongs to workload {manifest.get('key')!r}, "
                f"not {self.key!r} — wrong run"
            )
        if manifest.get("shards") != self.shards:
            raise CheckpointError(
                f"checkpoint {window_dir} was written by {manifest.get('shards')} "
                f"shards, cannot resume with {self.shards}"
            )
        for name in manifest.get("files", []):
            if not (window_dir / name).exists():
                raise CheckpointError(
                    f"checkpoint {window_dir} is missing {name!r} despite its manifest"
                )
        return ResumePoint(
            window=int(manifest["window"]), path=window_dir, manifest=manifest
        )

    def locate(self, path) -> ResumePoint:
        """Resolve an explicit ``resume_from`` path to a checkpoint.

        Accepts the base checkpoint dir, this run's key directory, or a
        specific committed window directory — whatever the user kept.
        """
        p = Path(path)
        if (p / _MANIFEST).exists():
            return self._load(p)
        candidates = [p / self.key, p]
        for c in candidates:
            if c.is_dir() and c.resolve() == self.run_dir.resolve():
                found = self.latest()
                if found is not None:
                    return found
            elif c.is_dir() and any(
                d.name.startswith("win-") and (d / _MANIFEST).exists()
                for d in c.iterdir()
                if d.is_dir()
            ):
                # A run dir that is not ours: its manifests will carry a
                # different key and _load will say so precisely.
                newest = max(
                    (
                        d
                        for d in c.iterdir()
                        if d.is_dir() and d.name.startswith("win-") and (d / _MANIFEST).exists()
                    ),
                    key=lambda d: d.name,
                )
                return self._load(newest)
        raise CheckpointError(
            f"no committed checkpoint found under {path!r} for workload key "
            f"{self.key!r} (looked for win-*/{_MANIFEST})"
        )
