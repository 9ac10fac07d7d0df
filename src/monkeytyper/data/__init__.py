"""Bundled reference data.

Three fixtures ship with the package, all taken from the published
random-typing experiment this library reproduces:

* ``hamlet_soliloquy.txt`` -- the First Folio soliloquy the experiment
  targets, stored verbatim (1,520 characters, line breaks included,
  no trailing newline).
* ``published_trials.csv`` -- the raw 10-trial measurement matrix for
  prefix lengths 1..5 (attempts and wall-clock seconds per trial).
* ``published_averages.json`` -- the per-prefix averages the published
  projection used as its geometric-progression base, together with the
  41-character target phrase.
"""

from __future__ import annotations

import json
from importlib import resources

#: The 41-character target phrase.
HAMLET_PHRASE = "To be, or not to be, that is the Question"

#: Character count the published experiment reports for the soliloquy.
PUBLISHED_SOLILOQUY_LENGTH = 1520


def _read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def hamlet_soliloquy() -> str:
    """Return the bundled soliloquy exactly as stored (1,520 characters)."""
    return _read_text("hamlet_soliloquy.txt")


def published_averages() -> dict:
    """Return the published per-prefix averages.

    Keys: ``attempts`` (list of 5 ints), ``seconds`` (list of 5 floats,
    the first entry is the 0.0001 s stand-in the published projection used
    for the sub-millisecond prefix-1 average), ``target`` (str).
    """
    return json.loads(_read_text("published_averages.json"))

