"""Flat binary serialization with a JSON sidecar for grid-valued data.

Layout: row-major complex samples as interleaved little-endian float64
pairs (re, im) in ``<path>.bin`` (numpy's ``<c16``, written and read in
one call each), and a sidecar ``<path>.json`` holding
{"kind", "shape", "N", "L", "hbar"}, where N, L and hbar are the fields of
the data's `grid.GridSpec` lattice.  Grid symbols, operator matrices and
wavefunctions all share the format; ``kind`` tells them apart.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import GridSpec, GridSymbol


def _write(path, kind: str, arr: np.ndarray, spec: GridSpec) -> None:
    data = np.ascontiguousarray(arr, dtype="<c16")
    path = Path(path)
    data.tofile(path.with_suffix(".bin"))
    sidecar = {"kind": kind, "shape": list(data.shape),
               "N": spec.n, "L": spec.box, "hbar": spec.hbar}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _read(path, kind: str) -> tuple[GridSpec, np.ndarray]:
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    if meta["kind"] != kind:
        raise ValueError(f"expected a {kind} payload, found {meta['kind']!r}")
    arr = np.fromfile(path.with_suffix(".bin"), dtype="<c16").reshape(meta["shape"])
    return GridSpec(meta["N"], meta["L"], meta["hbar"]), arr


def save_grid_symbol(g, path) -> None:
    _write(path, "grid", g.samples, g.spec)


def load_grid_symbol(path):
    return GridSymbol(*_read(path, "grid"))


def save_operator(m, path) -> None:
    _write(path, "operator", m.entries, m.grid)


def load_operator(path):
    from .weylop import OperatorMatrix

    return OperatorMatrix(*_read(path, "operator"))


def save_wave(w, path) -> None:
    _write(path, "wave", w.values, w.grid)


def load_wave(path):
    from .weylop import WaveVector

    return WaveVector(*_read(path, "wave"))
