"""Experiment requests: paper-artifact regeneration as service jobs.

Every ``benchmarks/output/*.txt`` artifact is one entry of
:data:`repro.experiments.ARTIFACTS`: rendered text from an experiment id
plus literal kwargs (e.g. ``fig01``'s reduced grid), deterministic for a
given program.  :class:`ExperimentRequest` wraps one such id and kwargs
as a submittable, fingerprintable request, so ``scripts/run_missing.py``
regenerates the artifacts through the service worker pool.  The
fingerprint covers the id, the kwargs and :func:`code_digest` — the code
that renders them — so a store that outlives a code change renders
afresh instead of serving the older text.  ``RunRequest.fingerprint``
stays code-free: the run ledger compares one config across commits by it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..obs.report import config_fingerprint

__all__ = ["EXPERIMENT_SCHEMA", "ExperimentRequest", "code_digest"]

#: Experiment-request wire tag (also how the service tells request kinds
#: apart on the queue).
EXPERIMENT_SCHEMA = "repro.experiment-request/1"


@functools.cache
def code_digest() -> str:
    """sha256 over the ``repro`` package's sources (the C kernels' text
    included), read once per process."""
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentRequest:
    """One experiment rendering (``table1``, ``fig01``, ``ablation_cache``)."""

    id: str
    kw: Mapping[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        return config_fingerprint(
            schema=EXPERIMENT_SCHEMA,
            id=self.id,
            kw=dict(sorted(dict(self.kw).items())),
            code=code_digest(),
        )

    def execute(self) -> str:
        """Render the experiment text (runs the underlying pipeline)."""
        from ..experiments import run_experiment

        return run_experiment(self.id, **dict(self.kw))

    def report_for(self, text: str) -> dict:
        """The small store manifest for a rendered artifact."""
        return {
            "kind": "experiment",
            "id": self.id,
            "kw": dict(self.kw),
            "chars": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    def to_dict(self) -> dict:
        return {
            "schema": EXPERIMENT_SCHEMA,
            "id": self.id,
            "kw": dict(self.kw),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentRequest":
        schema = d.get("schema", EXPERIMENT_SCHEMA)
        if schema != EXPERIMENT_SCHEMA:
            raise ValueError(
                f"unknown experiment-request schema {schema!r} "
                f"(expected {EXPERIMENT_SCHEMA!r})"
            )
        return cls(id=d["id"], kw=dict(d.get("kw") or {}))
