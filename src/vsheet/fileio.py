"""On-disk formats: binary/CSV source fields, solution dumps, certificates.

Binary source layout (little endian): int32 nt, nx, ny; float64 Lt, Lx,
Ly, gamma; then the complex64 samples in C order with t as the leading
(major) axis, shape (nt, nx, ny).  The CSV variant keeps the same metadata
on a leading comment line and one ``it,ix,iy,re,im`` row per sample.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

import numpy as np

from .grids import GridSpec

__all__ = [
    "write_source_bin",
    "read_source_bin",
    "write_source_csv",
    "read_source_csv",
    "read_source",
    "write_front_solution",
    "read_front_solution",
    "write_json",
    "write_csv",
]

_HEADER = np.dtype(
    [
        ("nt", "<i4"),
        ("nx", "<i4"),
        ("ny", "<i4"),
        ("Lt", "<f8"),
        ("Lx", "<f8"),
        ("Ly", "<f8"),
        ("gamma", "<f8"),
    ]
)

_SOLUTION_HEADER = np.dtype(
    [("nt", "<i4"), ("nx", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("gamma", "<f8")]
)


def _grid_fields(grid: GridSpec) -> tuple:
    return (grid.nt, grid.nx, grid.ny, grid.Lt, grid.Lx, grid.Ly, grid.gamma)


def write_source_bin(path, raw: np.ndarray, grid: GridSpec) -> None:
    raw = np.asarray(raw)
    if raw.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(f"raw shape {raw.shape} does not match the grid")
    header = np.array([_grid_fields(grid)], dtype=_HEADER)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(raw, dtype=np.complex64).tobytes())


def read_source_bin(path) -> tuple[np.ndarray, GridSpec]:
    """Read a binary source file; a file whose size does not match its header is rejected."""
    blob = pathlib.Path(path).read_bytes()
    size = _HEADER.itemsize
    if len(blob) < size:
        raise ValueError(f"source file {path} holds {len(blob)} bytes, shorter than its {size}-byte header")
    header = np.frombuffer(blob[:size], dtype=_HEADER)[0]
    nt, nx, ny = int(header["nt"]), int(header["nx"]), int(header["ny"])
    expected = size + nt * nx * ny * np.dtype("<c8").itemsize
    if min(nt, nx, ny) < 0 or len(blob) != expected:
        raise ValueError(
            f"source file {path} holds {len(blob)} bytes, expected {expected} for nt={nt}, nx={nx}, ny={ny}"
        )
    grid = GridSpec(
        nt=nt, nx=nx, ny=ny,
        Lt=float(header["Lt"]), Lx=float(header["Lx"]), Ly=float(header["Ly"]),
        gamma=float(header["gamma"]),
    )
    data = np.frombuffer(blob[size:], dtype="<c8")
    return data.astype(np.complex128).reshape(nt, nx, ny), grid


def write_source_csv(path, raw: np.ndarray, grid: GridSpec) -> None:
    raw = np.asarray(raw)
    if raw.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(f"raw shape {raw.shape} does not match the grid")
    nt, nx, ny, lt, lx, ly, gamma = _grid_fields(grid)
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# vfs-source nt={nt} nx={nx} ny={ny} Lt={lt!r} Lx={lx!r} Ly={ly!r} gamma={gamma!r}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["it", "ix", "iy", "re", "im"])
        for it in range(nt):
            for ix in range(nx):
                for iy in range(ny):
                    z = raw[it, ix, iy]
                    writer.writerow([it, ix, iy, repr(float(z.real)), repr(float(z.imag))])


def read_source_csv(path) -> tuple[np.ndarray, GridSpec]:
    """Read a CSV source file; every (it, ix, iy) of the grid must appear exactly once."""
    with open(path, newline="") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# vfs-source"):
            raise ValueError(f"source file {path} lacks the '# vfs-source ...' metadata line")
        try:
            meta = dict(tok.split("=", 1) for tok in meta_line.split()[2:])
            grid = GridSpec(
                nt=int(meta["nt"]), nx=int(meta["nx"]), ny=int(meta["ny"]),
                Lt=float(meta["Lt"]), Lx=float(meta["Lx"]), Ly=float(meta["Ly"]),
                gamma=float(meta["gamma"]),
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"source file {path}: bad metadata line ({exc!r})") from None
        shape = (grid.nt, grid.nx, grid.ny)
        raw = np.zeros(shape, dtype=np.complex128)
        seen = np.zeros(shape, dtype=bool)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["it", "ix", "iy", "re", "im"]:
            raise ValueError(f"source file {path}: unexpected CSV columns {header}")
        for row in reader:
            try:
                it, ix, iy, re_part, im_part = row
                index = (int(it), int(ix), int(iy))
                value = float(re_part) + 1j * float(im_part)
            except ValueError:
                raise ValueError(f"source file {path} line {reader.line_num + 1}: malformed row {row}") from None
            if not all(0 <= i < n for i, n in zip(index, shape)):
                raise ValueError(f"source file {path} line {reader.line_num + 1}: index {index} outside the grid {shape}")
            if seen[index]:
                raise ValueError(f"source file {path} line {reader.line_num + 1}: sample {index} appears twice")
            seen[index] = True
            raw[index] = value
    if not seen.all():
        raise ValueError(f"source file {path} holds {int(seen.sum())} of {seen.size} samples")
    return raw, grid


def read_source(path) -> tuple[np.ndarray, GridSpec]:
    """Dispatch on extension: .csv for text, anything else binary; rejects non-finite samples."""
    raw, grid = read_source_csv(path) if str(path).endswith(".csv") else read_source_bin(path)
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"source file {path} holds non-finite samples")
    return raw, grid


def write_front_solution(prefix, solution) -> tuple[pathlib.Path, pathlib.Path]:
    """Dump f as complex64 binary plus a JSON sidecar; returns both paths."""
    prefix = pathlib.Path(prefix)
    grid = solution.grid
    bin_path = prefix.with_suffix(".bin")
    header = np.array(
        [(grid.nt, grid.nx, grid.Lt, grid.Lx, grid.gamma)], dtype=_SOLUTION_HEADER
    )
    with open(bin_path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(solution.f, dtype=np.complex64).tobytes())
    sidecar = {
        "s": solution.s,
        "regime": solution.regime.value,
        "norms": {
            f"{space.value}_s{order:g}": value
            for (order, space), value in sorted(
                solution.norms.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
            )
        },
        "report": solution.report,
        "grid": {
            "nt": grid.nt, "nx": grid.nx, "ny": grid.ny,
            "Lt": grid.Lt, "Lx": grid.Lx, "Ly": grid.Ly, "gamma": grid.gamma,
        },
    }
    json_path = prefix.with_suffix(".json")
    write_json(json_path, sidecar)
    return bin_path, json_path


def read_front_solution(prefix) -> tuple[dict, np.ndarray]:
    """Read back ``PREFIX.bin`` as written by :func:`write_front_solution`.

    Returns the header as a dict (``nt``, ``nx``, ``Lt``, ``Lx``, ``gamma``)
    and the physical-space front ``f`` as a complex64 array of shape
    (nt, nx).  A file whose size does not match its header is rejected.
    """
    path = pathlib.Path(prefix).with_suffix(".bin")
    blob = path.read_bytes()
    size = _SOLUTION_HEADER.itemsize
    if len(blob) < size:
        raise ValueError(f"solution file {path} holds {len(blob)} bytes, shorter than its {size}-byte header")
    record = np.frombuffer(blob[:size], dtype=_SOLUTION_HEADER)[0]
    header = {name: record[name].item() for name in _SOLUTION_HEADER.names}
    nt, nx = header["nt"], header["nx"]
    expected = size + nt * nx * np.dtype("<c8").itemsize
    if nt < 0 or nx < 0 or len(blob) != expected:
        raise ValueError(f"solution file {path} holds {len(blob)} bytes, expected {expected} for nt={nt}, nx={nx}")
    return header, np.frombuffer(blob[size:], dtype="<c8").astype(np.complex64).reshape(nt, nx)


def _strict(obj):
    """Replace each non-finite float under key k by null plus a ``k_nonfinite`` tag."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(value, float) and not math.isfinite(value):
                out[key] = None
                out[f"{key}_nonfinite"] = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
            else:
                out[key] = _strict(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def write_json(path, payload) -> None:
    """Strict JSON (no NaN/Infinity tokens), keys sorted; see ``_strict`` for non-finite floats."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, columns: list, rows: list) -> None:
    """Write rows of mixed scalars with repr'd floats (deterministic output)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
