"""Experiment harness: one entry point per paper table/figure/ablation,
and the table of committed artifacts they render."""

from .artifacts import ARTIFACTS, Artifact
from .runners import (
    EXPERIMENTS,
    run_experiment,
    run_fig01,
    characterize,
)

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "EXPERIMENTS",
    "run_experiment",
    "run_fig01",
    "characterize",
]
