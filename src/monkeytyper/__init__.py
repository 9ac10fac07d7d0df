"""monkeytyper: random-typing trials, geometric extrapolation, and exact odds.

The library answers one question at three levels of rigor: how long would a
uniformly random character source take to type a fixed text?

* :mod:`monkeytyper.simulate` runs seeded prefix-matching trials and measures
  attempts and wall-clock time.
* :mod:`monkeytyper.analysis` fits growth factors to measured averages,
  extrapolates them to the full target, and computes the exact closed-form
  probabilities on scaled decimals.
* :mod:`monkeytyper.cli` wires both into ``simulate | project | prob |
  census | report`` commands.

Only the trials draw random numbers, and only :mod:`monkeytyper.simulate`
imports numpy. The package root is numpy-free: import the trial API
(``ExperimentConfig``, ``run_experiment``, ...) from ``monkeytyper.simulate``.
"""

from .analysis import (
    CensusReport,
    TimeBreakdown,
    build_projection_table,
    convert_time,
    corpus_census,
    expected_attempts,
    fit_growth_model,
    growth_factor,
    log10_series,
    success_probability,
)
from .data import HAMLET_PHRASE, hamlet_soliloquy, published_averages
from .model import (
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    GrowthModel,
    MeasurementTable,
    ProjectionRow,
    ProjectionTable,
    TargetText,
    TrialRecord,
)
from .scaled import ScaledDecimal, scaled_int_pow

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CensusReport",
    "GrowthModel",
    "HAMLET_PHRASE",
    "LETTERS",
    "LETTERS_AND_SPACE",
    "MeasurementTable",
    "ProjectionRow",
    "ProjectionTable",
    "ScaledDecimal",
    "TargetText",
    "TimeBreakdown",
    "TrialRecord",
    "build_projection_table",
    "convert_time",
    "corpus_census",
    "expected_attempts",
    "fit_growth_model",
    "growth_factor",
    "hamlet_soliloquy",
    "log10_series",
    "published_averages",
    "scaled_int_pow",
    "success_probability",
]
