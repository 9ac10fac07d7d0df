"""Import monkeytyper and build one workload's inputs, then exit.

``run.py`` times this script in fresh interpreters to measure ``setup_s``.
Usage: ``python3 bench/setup_probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path

import workloads

root = Path(__file__).resolve().parents[1]
workloads.build(sys.argv[1], workloads.load_program(root), int(sys.argv[2]), root)
