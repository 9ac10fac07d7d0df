"""Bundled reference data.

Two fixtures ship with the package, both taken from the published
random-typing experiment this library reproduces:

* ``hamlet_soliloquy.txt`` -- the First Folio soliloquy the experiment
  targets, stored verbatim (1,520 characters, line breaks included,
  no trailing newline).
* ``published_trials.csv`` -- the raw 10-trial measurement matrix for
  prefix lengths 1..5 (attempts and wall-clock seconds per trial) and its
  ``average`` rows, the base series of the published projection.
"""

from __future__ import annotations

import functools
import os

from ..model import read_measurement_csv

#: The 41-character target phrase.
HAMLET_PHRASE = "To be, or not to be, that is the Question"

#: Character count the published experiment reports for the soliloquy.
PUBLISHED_SOLILOQUY_LENGTH = 1520

#: The prefix-1 base time the published projection used: the matrix prints
#: that average as 0.000 s, and no seconds are projected from a zero time.
PREFIX_1_SECONDS = 0.0001


def _read_text(name: str) -> str:
    # a plain file beside this module; a zipped package is not a data source
    with open(os.path.join(os.path.dirname(__file__), name), encoding="utf-8") as f:
        return f.read()


@functools.cache
def hamlet_soliloquy() -> str:
    """Return the bundled soliloquy exactly as stored (1,520 characters), read once."""
    return _read_text("hamlet_soliloquy.txt")


def published_averages() -> tuple[list[float], list[float]]:
    """Return the published per-prefix ``(attempts, seconds)`` averages,
    prefixes 1..5, read from the matrix's ``average`` rows on every call;
    the first of the seconds is ``PREFIX_1_SECONDS``."""
    _, attempts, seconds = read_measurement_csv(_read_text("published_trials.csv"))
    return attempts, [PREFIX_1_SECONDS, *seconds[1:]]
