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
    project_series,
    success_probability,
)
from .data import HAMLET_PHRASE, hamlet_soliloquy, published_averages
from .model import (
    LETTERS,
    LETTERS_AND_SPACE,
    Alphabet,
    AlphabetMismatchError,
    GrowthModel,
    MeasurementTable,
    ProjectionRow,
    ProjectionTable,
    TargetText,
    TrialRecord,
)
from .scaled import ScaledDecimal, scaled_int_pow
from .simulate import (
    ExperimentConfig,
    RngStream,
    derive_trial_seed,
    measure_throughput,
    run_experiment,
    run_prefix_trial,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "CensusReport",
    "ExperimentConfig",
    "GrowthModel",
    "HAMLET_PHRASE",
    "LETTERS",
    "LETTERS_AND_SPACE",
    "MeasurementTable",
    "ProjectionRow",
    "ProjectionTable",
    "RngStream",
    "ScaledDecimal",
    "TargetText",
    "TimeBreakdown",
    "TrialRecord",
    "build_projection_table",
    "convert_time",
    "corpus_census",
    "derive_trial_seed",
    "expected_attempts",
    "fit_growth_model",
    "growth_factor",
    "hamlet_soliloquy",
    "log10_series",
    "measure_throughput",
    "project_series",
    "published_averages",
    "run_experiment",
    "run_prefix_trial",
    "scaled_int_pow",
    "success_probability",
]
