"""Benchmark configuration: where benchmark reports are written.

The paper's tables, figures and ablations are not pytest benchmarks:
each is an entry of ``repro.experiments.ARTIFACTS``, regenerated and
byte-checked by ``scripts/run_missing.py``.  ``bench_solver_kernels.py``
writes its report next to them, in ``OUTPUT_DIR``.
"""

import os

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
