"""On-disk formats: binary/CSV source fields, solution dumps, certificates.

``_HEADER`` declares the source grid record and ``_SOLUTION_HEADER`` the
solution's: field names, little-endian types and order.  A ``.bin`` file is
its packed record (44 and 32 bytes) followed by the complex64 samples in C
order with t as the leading (major) axis, of shape (nt, nx, ny) for a
source and (nt, nx) for a solution.  The CSV source keeps the source
record on a leading ``# vfs-source`` comment line and one
``it,ix,iy,re,im`` row per sample; a solution's JSON sidecar holds it as
``"grid"``.  Payloads are written, and sources read, a block of whole
leading-axis rows (about ``_BLOCK_BYTES``) at a time through one buffer.
"""

from __future__ import annotations

import csv
import json
import math
import os
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

# field names are GridSpec's; the int fields give the payload's shape
_HEADER = np.dtype(
    [("nt", "<i4"), ("nx", "<i4"), ("ny", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("Ly", "<f8"), ("gamma", "<f8")]
)
_SOLUTION_HEADER = np.dtype([("nt", "<i4"), ("nx", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("gamma", "<f8")])
_CSV_COLUMNS = ["it", "ix", "iy", "re", "im"]
# payload bytes that a block read or write moves through its buffer: whole leading-axis rows, at least one
_BLOCK_BYTES = 1 << 20


def _record(grid: GridSpec, header: np.dtype) -> dict:
    return {name: getattr(grid, name) for name in header.names}


def _block_buffer(shape: tuple) -> np.ndarray:
    """An empty complex64 block of whole leading-axis rows of ``shape``: about ``_BLOCK_BYTES``, at least one row."""
    rows = max(1, _BLOCK_BYTES // (math.prod(shape[1:]) * np.dtype("<c8").itemsize))
    return np.empty((rows,) + tuple(shape[1:]), dtype="<c8")


def _write_packed(path, header: np.dtype, grid: GridSpec, payload: np.ndarray) -> None:
    """The grid record packed as ``header``, then ``payload`` as complex64 in C order.

    The payload is cast and written a block of whole leading-axis rows at a
    time through one reused buffer, so no payload-sized copy is made.
    """
    payload = np.asarray(payload)
    buffer = _block_buffer(payload.shape)
    with open(path, "wb") as fh:
        fh.write(np.array([tuple(_record(grid, header).values())], dtype=header).tobytes())
        for start in range(0, len(payload), len(buffer)):
            block = buffer[: len(payload) - start]
            block[...] = payload[start : start + len(block)]
            fh.write(block)


def _read_record(fh, path, header: np.dtype, kind: str) -> tuple[dict, tuple]:
    """The header record of the open packed file ``fh`` as a dict, and the payload shape its int fields give.

    Leaves ``fh`` at the payload.  A file whose size does not match its
    header is rejected in one line naming ``kind`` and the path.
    """
    length = os.fstat(fh.fileno()).st_size
    size = header.itemsize
    if length < size:
        raise ValueError(f"{kind} file {path} holds {length} bytes, shorter than its {size}-byte header")
    record = np.frombuffer(fh.read(size), dtype=header)[0]
    fields = {name: record[name].item() for name in header.names}
    shape = {name: value for name, value in fields.items() if header[name].kind == "i"}
    expected = size + math.prod(shape.values()) * np.dtype("<c8").itemsize
    if min(shape.values()) < 0 or length != expected:
        dims = ", ".join(f"{name}={n}" for name, n in shape.items())
        raise ValueError(f"{kind} file {path} holds {length} bytes, expected {expected} for {dims}")
    return fields, tuple(shape.values())


def _fill(fh, array: np.ndarray, path, kind: str) -> np.ndarray:
    """``array`` read in place from ``fh``; a file cut after its size was checked is rejected."""
    if fh.readinto(array) != array.nbytes:
        raise ValueError(f"{kind} file {path} was cut while it was read")
    return array


def _read_packed(path, header: np.dtype, kind: str) -> tuple[dict, np.ndarray]:
    """The header record as a dict and the complex64 payload, shaped by the record's int fields.

    A file whose size does not match its header is rejected in one line naming ``kind`` and the path.
    """
    with open(path, "rb") as fh:
        fields, shape = _read_record(fh, path, header, kind)
        return fields, _fill(fh, np.empty(shape, dtype="<c8"), path, kind)


def write_source_bin(path, raw: np.ndarray, grid: GridSpec) -> None:
    raw = np.asarray(raw)
    if raw.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(f"raw shape {raw.shape} does not match the grid")
    _write_packed(path, _HEADER, grid, raw)


def read_source_bin(path) -> tuple[np.ndarray, GridSpec]:
    """Read a binary source file as its stored complex64 payload, read straight into the array.

    A file whose size does not match its header is rejected.
    """
    fields, data = _read_packed(path, _HEADER, "source")
    return data, GridSpec(**fields)


def write_source_csv(path, raw: np.ndarray, grid: GridSpec) -> None:
    raw = np.asarray(raw)
    if raw.shape != (grid.nt, grid.nx, grid.ny):
        raise ValueError(f"raw shape {raw.shape} does not match the grid")
    meta = " ".join(f"{name}={value}" for name, value in _record(grid, _HEADER).items())
    with open(path, "w", newline="") as fh:
        fh.write(f"# vfs-source {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for it in range(grid.nt):
            for ix in range(grid.nx):
                for iy in range(grid.ny):
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
                **{name: (int if _HEADER[name].kind == "i" else float)(meta[name]) for name in _HEADER.names}
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"source file {path}: bad metadata line ({exc!r})") from None
        shape = (grid.nt, grid.nx, grid.ny)
        raw = np.zeros(shape, dtype=np.complex128)
        seen = np.zeros(shape, dtype=bool)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_COLUMNS:
            raise ValueError(f"source file {path}: unexpected CSV columns {header}")
        for row in reader:
            try:
                it, ix, iy, re_part, im_part = row
                index = (int(it), int(ix), int(iy))
                value = complex(float(re_part), float(im_part))
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
    """The real samples of a source file and its grid: float32 from ``.bin``, float64 from ``.csv``.

    Dispatches on extension: .csv for text, anything else binary.  A
    ``.bin`` payload is read a block of whole t rows at a time into one
    reused complex64 buffer, whose real parts fill the returned array, so
    the file's complex payload is never held whole.  In this order, a file
    whose size or header is wrong, one that holds a non-finite sample and,
    since sources are real, one with a non-zero imaginary part anywhere are
    each rejected in one line naming the file.
    """
    if str(path).endswith(".csv"):
        raw, grid = read_source_csv(path)
        return _real_part(path, [raw], np.empty(raw.shape)), grid
    with open(path, "rb") as fh:
        fields, shape = _read_record(fh, path, _HEADER, "source")
        grid = GridSpec(**fields)
        buffer = _block_buffer(shape)
        blocks = (
            _fill(fh, buffer[: shape[0] - start], path, "source") for start in range(0, shape[0], len(buffer))
        )
        return _real_part(path, blocks, np.empty(shape, dtype=np.float32)), grid


def _real_part(path, blocks, out: np.ndarray) -> np.ndarray:
    """``out`` filled, block after block of leading-axis rows, with the real parts of complex ``blocks``.

    A non-finite sample is rejected as soon as its block is read; a
    non-zero imaginary part only once every block has been found finite.
    """
    start, imaginary = 0, False
    for block in blocks:
        # down the block's rows, the least and greatest of each part (real parts at even places,
        # imaginary ones at odd); a NaN is both, so the block is finite where these are, and real
        # where the imaginary ones are 0
        parts = block.view(block.real.dtype).reshape(len(block), -1)
        low, high = parts.min(axis=0), parts.max(axis=0)
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise ValueError(f"source file {path} holds non-finite samples")
        imaginary = imaginary or bool(np.any(low[1::2] < 0) or np.any(high[1::2] > 0))
        out[start : start + len(block)] = block.real
        start += len(block)
    if imaginary:
        raise ValueError(f"source file {path} has a non-zero imaginary part; sources are real")
    return out


def write_front_solution(prefix, solution) -> tuple[pathlib.Path, pathlib.Path]:
    """Dump f as complex64 binary plus a JSON sidecar; returns both paths."""
    prefix = pathlib.Path(prefix)
    bin_path = prefix.with_suffix(".bin")
    _write_packed(bin_path, _SOLUTION_HEADER, solution.grid, solution.f)
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
    header, data = _read_packed(pathlib.Path(prefix).with_suffix(".bin"), _SOLUTION_HEADER, "solution")
    return header, data.astype(np.complex64, copy=False)


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
