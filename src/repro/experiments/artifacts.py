"""The committed paper artifacts: one table, one rendering rule.

Every ``benchmarks/output/<slug>.txt`` table, figure, ablation and the
claims table is one :class:`Artifact` of :data:`ARTIFACTS` — its header,
the :data:`~repro.experiments.EXPERIMENTS` id that renders its body, and
that experiment's literal keyword arguments.  ``scripts/run_missing.py``
regenerates the missing ones from this table and byte-checks all of them
(``--check``); nothing else names an artifact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["ARTIFACTS", "Artifact"]

_RULE = "=" * 78


@dataclass(frozen=True)
class Artifact:
    """One committed artifact: ``header`` framing ``experiment(**kw)``."""

    header: str
    experiment: str
    kw: Mapping[str, Any] = field(default_factory=dict)

    @property
    def slug(self) -> str:
        """The output file's stem, derived from the header."""
        return re.sub(r"[^a-z0-9]+", "_", self.header.lower()).strip("_")[:60]

    def render(self, text: str) -> str:
        """The artifact's bytes: the experiment's text under its header."""
        return f"{_RULE}\n{self.header}\n{_RULE}\n{text}\n"


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact(
        "Table 1: Application characteristics (paper values + measured "
        "from this package's instrumented solver)",
        "table1",
    ),
    Artifact(
        "Table 2: Computation-communication ratios (exact reproduction)",
        "table2",
    ),
    Artifact(
        "Figure 1: X MOMENTUM in an excited axisymmetric jet "
        "(reduced-size real solver run)",
        "fig01",
        {"nx": 100, "nr": 40, "steps": 800},
    ),
    Artifact(
        "Figure 2: Single-processor execution time, Versions 1..7 "
        "(RS6000/560)",
        "fig02",
    ),
    Artifact(
        "Figure 3: Navier-Stokes execution time on LACE "
        "(ALLNODE-F / ALLNODE-S / Ethernet)",
        "fig03",
    ),
    Artifact("Figure 4: Euler execution time on LACE", "fig04"),
    Artifact(
        "Figure 5: Components of execution time (Navier-Stokes; LACE)",
        "fig05",
    ),
    Artifact("Figure 6: Components of execution time (Euler; LACE)", "fig06"),
    Artifact(
        "Figure 7: Communication optimization V5/V6/V7 (Navier-Stokes; LACE)",
        "fig07",
    ),
    Artifact(
        "Figure 8: Communication optimization V5/V6/V7 (Euler; LACE)",
        "fig08",
    ),
    Artifact(
        "Figure 9: Navier-Stokes execution time on all computing platforms",
        "fig09",
    ),
    Artifact(
        "Figure 10: Euler execution time on all computing platforms", "fig10"
    ),
    Artifact("Figure 11: MPL vs PVMe (Navier-Stokes; IBM SP)", "fig11"),
    Artifact("Figure 12: MPL vs PVMe (Euler; IBM SP)", "fig12"),
    Artifact(
        "Figure 13: Processor busy times / load balance "
        "(Navier-Stokes; IBM SP)",
        "fig13",
    ),
    Artifact("Ablation: T3D cache size/associativity", "ablation_cache"),
    Artifact(
        "Ablation: axial vs radial domain decomposition",
        "ablation_decomposition",
    ),
    Artifact("Ablation: heterogeneous LACE node mix", "ablation_imbalance"),
    Artifact(
        "Ablation: message-library overhead on the NOW", "ablation_startup"
    ),
    Artifact(
        "Ablation: Y-MP vector length vs partitioning", "ablation_vector"
    ),
    Artifact(
        "Cross-check: paper vs measured workload", "workload_comparison"
    ),
    Artifact("Claims: paper findings vs measured (Sections 6-7)", "claims"),
)
