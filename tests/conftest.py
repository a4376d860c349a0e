"""Test-session set-up: source path for child processes, a fixed hypothesis profile."""

import os
from pathlib import Path

from hypothesis import settings

import moyal_lab

_SRC = str(Path(moyal_lab.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# property tests draw the same examples on every run and stay within a fixed budget
settings.register_profile("moyal-lab", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("moyal-lab")
