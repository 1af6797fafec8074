"""On-disk formats: binary/CSV source fields, solution dumps, certificates.

``_HEADER`` declares the source grid record and ``_SOLUTION_HEADER`` the
solution's: field names, little-endian types and order.  A ``.bin`` file is
its packed record (44 and 32 bytes) followed by its samples in C order with
t as the leading (major) axis: a source's real (nt, nx, ny) samples as
``_PAYLOAD`` (float32) and a solution's (nt, nx) front as
``_SOLUTION_PAYLOAD`` (complex64).  The CSV source keeps the source record
on a leading ``# vfs-source`` comment line and one ``it,ix,iy,value`` row
per sample; a solution's JSON sidecar holds it as ``"grid"``.  Sources are
real: the writers pass their input through :func:`grids.real_source`.
Payloads are written a block of whole leading-axis rows (about
``_BLOCK_BYTES``) at a time through one buffer, and read straight into the
returned array.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pathlib

import numpy as np

from .grids import GridSpec, real_source

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

# field names are GridSpec's; the int fields give the payload's shape
_HEADER = np.dtype(
    [("nt", "<i4"), ("nx", "<i4"), ("ny", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("Ly", "<f8"), ("gamma", "<f8")]
)
_SOLUTION_HEADER = np.dtype([("nt", "<i4"), ("nx", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("gamma", "<f8")])
_PAYLOAD = np.dtype("<f4")
# the front is not exactly real: g is not Hermitian on the Nyquist row and column
_SOLUTION_PAYLOAD = np.dtype("<c8")
_CSV_COLUMNS = ["it", "ix", "iy", "value"]
# payload bytes that a block write moves through its buffer: whole leading-axis rows, at least one
_BLOCK_BYTES = 1 << 20


def _record(grid: GridSpec, header: np.dtype) -> dict:
    return {name: getattr(grid, name) for name in header.names}


def _write_packed(path, header: np.dtype, grid: GridSpec, payload: np.ndarray, dtype: np.dtype) -> None:
    """The grid record packed as ``header``, then ``payload`` as ``dtype`` in C order.

    The payload is cast and written a block of whole leading-axis rows at a
    time through one reused buffer, so no payload-sized copy is made.
    """
    payload = np.asarray(payload)
    rows = max(1, _BLOCK_BYTES // (math.prod(payload.shape[1:]) * dtype.itemsize))
    buffer = np.empty((rows,) + payload.shape[1:], dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(np.array([tuple(_record(grid, header).values())], dtype=header).tobytes())
        for start in range(0, len(payload), len(buffer)):
            block = buffer[: len(payload) - start]
            block[...] = payload[start : start + len(block)]
            fh.write(block)


def _read_packed(path, header: np.dtype, dtype: np.dtype, kind: str) -> tuple[dict, np.ndarray]:
    """The header record as a dict and the ``dtype`` payload, shaped by the record's int fields.

    The payload is read straight into the returned array.  A file whose
    size does not match its header, or that is cut while it is read, is
    rejected in one line naming ``kind`` and the path; so is a float32
    payload stored as complex64, twice its size, as sources were once.
    """
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        size = header.itemsize
        if length < size:
            raise ValueError(f"{kind} file {path} holds {length} bytes, shorter than its {size}-byte header")
        record = np.frombuffer(fh.read(size), dtype=header)[0]
        fields = {name: record[name].item() for name in header.names}
        shape = {name: value for name, value in fields.items() if header[name].kind == "i"}
        payload = math.prod(shape.values()) * dtype.itemsize
        if min(shape.values()) < 0 or length != size + payload:
            dims = ", ".join(f"{name}={n}" for name, n in shape.items())
            if dtype.kind == "f" and length == size + 2 * payload:
                old = "the layout from before sources were stored as float32"
                raise ValueError(f"{kind} file {path} holds a complex64 payload for {dims}: {old}")
            raise ValueError(f"{kind} file {path} holds {length} bytes, expected {size + payload} for {dims}")
        data = np.empty(tuple(shape.values()), dtype=dtype)
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{kind} file {path} was cut while it was read")
    return fields, data


def _source(path, raw, grid: GridSpec) -> np.ndarray:
    """``raw`` as a real array of the grid's shape; a ValueError naming the file for a non-zero imaginary part."""
    raw = real_source(raw, f"source file {path}")
    if raw.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(f"raw shape {raw.shape} does not match the grid")
    return raw


def _finite(path, raw: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, GridSpec]:
    """``(raw, grid)``; a ValueError naming the file for a non-finite sample, which its least or greatest is."""
    if not (np.isfinite(raw.min()) and np.isfinite(raw.max())):
        raise ValueError(f"source file {path} holds non-finite samples")
    return raw, grid


def write_source_bin(path, raw: np.ndarray, grid: GridSpec) -> None:
    _write_packed(path, _HEADER, grid, _source(path, raw, grid), _PAYLOAD)


def read_source_bin(path) -> tuple[np.ndarray, GridSpec]:
    """A binary source file's float32 samples, read straight into the returned array, and its grid.

    A file whose size does not match its header, then one that holds a
    non-finite sample, is rejected in one line naming the file.
    """
    fields, raw = _read_packed(path, _HEADER, _PAYLOAD, "source")
    return _finite(path, raw, GridSpec(**fields))


def write_source_csv(path, raw: np.ndarray, grid: GridSpec) -> None:
    raw = _source(path, raw, grid)
    meta = " ".join(f"{name}={value}" for name, value in _record(grid, _HEADER).items())
    with open(path, "w", newline="") as fh:
        fh.write(f"# vfs-source {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for index, value in zip(np.ndindex(raw.shape), raw.ravel().tolist()):
            writer.writerow([*index, repr(float(value))])


def read_source_csv(path) -> tuple[np.ndarray, GridSpec]:
    """A CSV source file's float64 samples and its grid.

    Every (it, ix, iy) of the grid must appear exactly once, and every
    sample must be finite; otherwise the file is rejected in one line
    naming it.
    """
    with open(path, newline="") as fh:
        meta_line = fh.readline().strip()
        if not meta_line.startswith("# vfs-source"):
            raise ValueError(f"source file {path} lacks the '# vfs-source ...' metadata line")
        try:
            meta = dict(tok.split("=", 1) for tok in meta_line.split()[2:])
            grid = GridSpec(
                **{name: (int if _HEADER[name].kind == "i" else float)(meta[name]) for name in _HEADER.names}
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"source file {path}: bad metadata line ({exc!r})") from None
        shape = (grid.nt, grid.nx, grid.ny)
        raw = np.zeros(shape)
        seen = np.zeros(shape, dtype=bool)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_COLUMNS:
            raise ValueError(f"source file {path}: unexpected CSV columns {header}")
        for row in reader:
            try:
                it, ix, iy, value = row
                index = (int(it), int(ix), int(iy))
                value = float(value)
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
    return _finite(path, raw, grid)


def read_source(path) -> tuple[np.ndarray, GridSpec]:
    """The real samples of a source file and its grid: float32 from ``.bin``, float64 from ``.csv``.

    Dispatches on extension: .csv for text, anything else binary.
    """
    return (read_source_csv if str(path).endswith(".csv") else read_source_bin)(path)


def write_front_solution(prefix, solution) -> tuple[pathlib.Path, pathlib.Path]:
    """Dump f as complex64 binary plus a JSON sidecar; returns both paths."""
    prefix = pathlib.Path(prefix)
    bin_path = prefix.with_suffix(".bin")
    _write_packed(bin_path, _SOLUTION_HEADER, solution.grid, solution.f, _SOLUTION_PAYLOAD)
    sidecar = {
        "s": solution.s,
        "regime": solution.regime.value,
        "norms": {f"{space.value}_s{order:g}": value for (order, space), value in solution.norms.items()},
        "report": solution.report,
        "grid": _record(solution.grid, _HEADER),
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
    return _read_packed(pathlib.Path(prefix).with_suffix(".bin"), _SOLUTION_HEADER, _SOLUTION_PAYLOAD, "solution")


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
    """Write rows of mixed scalars with repr'd floats (deterministic output); ``None`` is written ``nan``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["nan" if v is None else repr(v) if isinstance(v, float) else v for v in row])
