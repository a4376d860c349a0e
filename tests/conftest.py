"""Let the CLI tests' child processes import the package from a source checkout."""

import os
from pathlib import Path

import moyal_lab

_SRC = str(Path(moyal_lab.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
