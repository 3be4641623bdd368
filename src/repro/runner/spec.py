"""Sweep specifications and stable cell identity.

A sweep is a list of :class:`ExperimentSpec`s; each spec expands into
one :class:`SweepCell` per seed.  The cell's :func:`cache_key` is the
identity used everywhere — for the on-disk cache, for deterministic
result merging, and in JSONL traces — and is a stable hash of
``(experiment, params, seed, repro.__version__)``: the same cell hashes
identically across processes, interpreter restarts and machines, and
any code-version bump invalidates old cache entries wholesale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import ConfigurationError
from repro.sim.serialize import serializable, to_jsonable

__all__ = ["ExperimentSpec", "SweepCell", "cache_key", "parse_seeds"]


def _repro_version() -> str:
    # Imported lazily: repro/__init__ re-exports the runner, so a
    # top-level ``import repro`` here would be circular.
    import repro

    return repro.__version__


def cache_key(
    experiment: str,
    params: dict,
    seed: int,
    version: Optional[str] = None,
) -> str:
    """Stable hex digest identifying one simulation cell.

    Hashes the canonical JSON of the four identity components; dict key
    order and tuple-vs-list container choices do not affect the key.
    Dataclass parameter values (a ``WorldConfig``, a ``FaultPlan``) are
    hashed through their tagged :func:`~repro.sim.serialize.to_jsonable`
    form, so the instance and its jsonable round-trip produce the same
    key; tuple/list params keep their historical byte-identical encoding.
    """
    identity = {
        "experiment": experiment,
        "params": _canonical(params),
        "seed": seed,
        "version": version if version is not None else _repro_version(),
    }
    blob = json.dumps(
        identity, sort_keys=True, separators=(",", ":"), default=_encode_param
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _canonical(value):
    """Recursively normalize a params value for hashing.

    Dataclasses collapse to their tagged jsonable form (then recurse, so
    nested configs normalize too).  Everything else passes through
    untouched — unrecognized containers still fall back to
    :func:`_encode_param` inside ``json.dumps``, preserving the
    historical encoding byte-for-byte.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(to_jsonable(value))
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _encode_param(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(obj)
    return list(obj)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Parse a seed list: ``"4"``, ``"0,2,5"``, ``"0..7"`` (inclusive), or
    comma-separated mixtures like ``"0..3,8"``."""
    seeds: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigurationError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ConfigurationError(f"no seeds in {text!r}")
    return tuple(seeds)


@serializable
@dataclass
class SweepCell:
    """One (experiment, params, seed) simulation unit.

    ``timeout_s`` is a wall-clock budget for executing the cell — an
    execution knob, not identity: :func:`cache_key` hashes only
    ``(experiment, params, seed, version)``, so timed and untimed runs
    of the same cell share a cache entry.
    """

    experiment: str
    params: dict
    seed: int
    timeout_s: Optional[float] = None

    @property
    def key(self) -> str:
        return cache_key(self.experiment, self.params, self.seed)


@serializable
@dataclass
class ExperimentSpec:
    """An experiment name, parameter overrides, and the seeds to run.

    ``seeds`` may be given as an iterable of ints or the string syntax
    of :func:`parse_seeds` (``"0..7"``).  ``timeout_s`` bounds the wall
    clock of every cell the spec expands into; a cell that exceeds it is
    recorded as failed (never cached, skipped by aggregation) instead of
    wedging the whole sweep.
    """

    experiment: str
    params: dict = field(default_factory=dict)
    seeds: tuple = (0,)
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.seeds, str):
            self.seeds = parse_seeds(self.seeds)
        else:
            self.seeds = tuple(int(s) for s in self.seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"duplicate seeds in {self.seeds!r}")
        if self.timeout_s is not None:
            self.timeout_s = float(self.timeout_s)
            if not self.timeout_s > 0:
                raise ConfigurationError(
                    f"timeout_s must be positive, got {self.timeout_s!r}"
                )

    def cells(self) -> list[SweepCell]:
        """One cell per seed, in seed order (the merge order)."""
        return [
            SweepCell(
                experiment=self.experiment,
                params=dict(self.params),
                seed=s,
                timeout_s=self.timeout_s,
            )
            for s in self.seeds
        ]


def expand_cells(specs: Iterable[ExperimentSpec]) -> list[SweepCell]:
    """All cells of all specs, in deterministic spec-then-seed order."""
    return [cell for spec in specs for cell in spec.cells()]
