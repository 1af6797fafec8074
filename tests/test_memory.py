"""Memory of the source files, the sweep path and the certify scans.

A source file is read and written a row block (about 1 MB) at a time, and
read as its real parts; the sweep keeps those and one rung of spectral
fields.

On a 128x128x16 grid (numpy 2.4) reading a ``.bin`` source peaked, under
tracemalloc, at 2.07 MB: its 1 MB float32 result, the one 1 MB row block
and 4.5 rows for the block's least and greatest parts and the interpreter
(2.25 MB when the file was read whole and its 2 MB complex64 payload was
returned, and then kept by the sweep).  Writing one peaked at 1.005 MB, the row block's
buffer (4.0 MB when the payload was cast whole and then copied to bytes).
The sweep below peaked at 1.77 to 1.80 spectral fields beyond its float32
sources, whose term in the bound is now their arrays' size rather than
that of the files (twice as large).

The peak bound below was set from the measured tracemalloc peak of one
three-rung sweep on a 128x128x16 grid (numpy 2.4, one or two worker
threads): 2.89 to 2.97 spectral fields beyond the sources.  The rest of
that excess over two fields is the (t, x1) mesh arrays, each 1/16 of a
field here.  The bound leaves a quarter of a field for thread interleaving
and other numpy versions.  Without the four parts of this layout the same
sweep peaked at 5.8 to 7.3 fields, and undoing any one of them alone breaks
the bound: upcasting the sources as they are read (3.89 to 3.97), a
temporary per FFT slice (3.82 to 5.29), keeping the previous rung's fields
while the next is built (3.35 to 3.38) or squaring a whole field in
``half_line_norm`` (3.43 to 3.46).  Since each grid keeps its symbol table,
a rung builds it before its source fields and frees its solution, with the
grid and table, before the next rung: 2.67 (one thread) to 2.85 (two).
Keeping the previous rung's solution while the next rung is built gave 3.21
to 3.34.

A certify scan holds the sample plus a scratch of block-sized temporaries
per worker.  The scan bound below was set from the measured tracemalloc
peaks on a stratified sample of 4 * 2**17 points (numpy 2.4), in complex
block arrays (``chunks.BLOCK`` points of 16 bytes) per thread: the sandwich
pass 8.15 to 8.27 and the weight pass 5.81 to 6.01, at one or two threads.
Locating the extrema, which copies a stratum's values and their indices out
of each block, left them at 7.37 to 8.27 and 5.81 to 6.03.
Scanning each whole 2**17-point chunk at once peaked at 29.1 to 32.3 (sandwich)
and 23.1 to 24.0 (weight) blocks per thread, 16.9 MB for the sandwich at one
thread.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from vsheet import chunks, fileio
from vsheet.cli import builtin_sources
from vsheet.front import estimate_sweep
from vsheet.grids import GridSpec
from vsheet.hemisphere import SampleStrategy, certify_sandwich, certify_weight_bounds, sample_hemisphere
from vsheet.symbols import PhysicalParams

M2 = PhysicalParams(v=2.0, c=1.0)

# spectral fields that one sweep may hold at its peak, beyond the sources themselves
PEAK_FIELDS = 3.2

# complex block arrays that one certify scan may hold at its peak, per worker thread
SCAN_BLOCKS = 10


def _grid(nt=128, nx=128, ny=16):
    return GridSpec(nt=nt, nx=nx, ny=ny, Lt=2 * math.pi, Lx=2 * math.pi, Ly=20.0)


def _write_pair(tmp_path, grid):
    paths = [tmp_path / f"{side}.bin" for side in ("plus", "minus")]
    for path, raw in zip(paths, builtin_sources(grid)):
        fileio.write_source_bin(path, raw, grid)
    return paths


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _block_bytes(shape):
    """Bytes of one row block of a complex64 payload of ``shape``, and of one of its rows."""
    buffer = fileio._block_buffer(shape)
    return buffer.nbytes, buffer[0].nbytes


def test_a_bin_source_is_read_as_the_real_parts_of_its_payload(tmp_path):
    grid = _grid()
    path = _write_pair(tmp_path, grid)[0]
    shape = (grid.nt, grid.nx, grid.ny)
    block, row = _block_bytes(shape)
    (raw, back), peak = _traced_peak(lambda: fileio.read_source(path))
    assert back == grid and raw.dtype == np.float32 and raw.flags.c_contiguous
    # the real parts of the stored payload, bit for bit
    stored = np.frombuffer(path.read_bytes(), dtype="<c8", offset=fileio._HEADER.itemsize).reshape(shape)
    assert raw.tobytes() == np.ascontiguousarray(stored.real).tobytes()
    # the payload spans two row blocks; one block's buffer is held, plus a few rows of
    # its least and greatest parts and of the interpreter's own
    assert raw.nbytes == block == 2 ** 20
    assert peak <= raw.nbytes + block + 8 * row, (peak - raw.nbytes) / block


def test_a_bin_source_is_written_a_row_block_at_a_time(tmp_path):
    grid = _grid()
    shape = (grid.nt, grid.nx, grid.ny)
    k = np.arange(math.prod(shape)).reshape(shape)
    # a complex128 input that every platform builds alike, each part rounding to complex64
    raw = ((k % 1013) - 506) / 7.0 + 1j * ((k % 89) / 3.0)
    path = tmp_path / "fixed.bin"
    block, _ = _block_bytes(shape)
    _, peak = _traced_peak(lambda: fileio.write_source_bin(path, raw, grid))
    # the 2 MB complex64 payload is two row blocks
    assert block == 2 ** 20 and peak <= 2 * block, peak / block
    # the bytes the writer wrote when it cast the whole payload at once
    digest = "a9f842bce5a4a077581926d4741176b1861b656725fe4ac4ba0fe3fb5d93ecd0"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sweep_holds_one_rung_of_spectral_fields(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("VFS_THREADS", threads)
    grid = _grid()
    paths = _write_pair(tmp_path, grid)
    field = grid.nt * grid.nx * grid.ny * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        (raw_p, _), (raw_m, _) = (fileio.read_source(path) for path in paths)
        estimate_sweep(raw_p, raw_m, grid, M2, gammas=(1.0, 2.0, 4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sources = raw_p.nbytes + raw_m.nbytes
    assert peak < sources + PEAK_FIELDS * field, (peak - sources) / field


@pytest.mark.parametrize("threads", [1, 2])
def test_a_certify_scan_holds_a_few_blocks_per_thread(monkeypatch, threads):
    monkeypatch.setenv("VFS_THREADS", str(threads))
    sample = sample_hemisphere(4 * chunks.CHUNK, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
    block = chunks.BLOCK * np.dtype(np.complex128).itemsize
    for scan in (certify_sandwich, certify_weight_bounds):
        tracemalloc.start()
        try:
            scan(sample, M2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * SCAN_BLOCKS * block, (scan.__name__, peak / (threads * block))
