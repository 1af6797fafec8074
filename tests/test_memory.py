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

A certify run holds no array of its sample: the sample is its grids' row
and column tables, and each scan builds its points a block at a time.  The
scan bound below was set from the measured tracemalloc peaks of the sampler
and both scans, traced together, at 4 * 2**17 points (numpy 2.4), in
complex block arrays (``chunks.BLOCK`` points of 16 bytes) per thread: 9.33
at one thread and 9.18 at two, and 9.40 and 9.21 once the grid gained its
root grid.  The sampler alone now peaks at 0.23; the sandwich pass at 9.27
and 8.66, and the weight pass at 8.00 and 7.52.  A block's
points are 1.5 of those blocks; with a (3, n) sample the scans read views
of it, and peaked at 8.15 to 8.27 (sandwich) and 5.81 to 6.01 (weight), but
the sample alone was 24 blocks here (12.6 MB).  Making Sigma's unit symbol
before lam^2, so that lam^2 is not held while it is made, took the sandwich
pass from 9.84 to 9.34 at one thread.  Scanning each whole 2**17-point
chunk at once peaked at 29.1 to 32.3 (sandwich) and 23.1 to 24.0 (weight)
blocks per thread, 16.9 MB for the sandwich at one thread.

A scan must also reuse its scratch rather than fault it in afresh in every
block.  glibc returns the free top of a thread's heap to the system when it
exceeds a trim threshold, which starts at 128 KB and rises only when a
mapped buffer is freed; each scan frees one untouched buffer first
(``hemisphere._scan``).  In a new process at 2**19 points (glibc 2.36) the
two scans made 1.1 k minor faults at one thread and 2.5 k at two; without
that buffer, 50 k and 52 k.
"""

import hashlib
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vsheet
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
    n, block = 4 * chunks.CHUNK, chunks.BLOCK * np.dtype(np.complex128).itemsize

    def certify():
        sample = sample_hemisphere(n, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
        return [certify_sandwich(sample, M2), *certify_weight_bounds(sample, M2)]

    certs, peak = _traced_peak(certify)
    assert all(c.sample_size > 0 for c in certs) and certs[0].sample_size == n
    # a (3, n) float64 sample alone would be 24 blocks here
    assert 3 * n * 8 == 24 * block
    assert peak < threads * SCAN_BLOCKS * block, peak / (threads * block)


# the two scans of a new process at 16 blocks, printing the minor faults they make
_FAULTS = """
import resource
from vsheet import chunks, hemisphere
from vsheet.symbols import PhysicalParams
params = PhysicalParams(v=2.0, c=1.0)
sample = hemisphere.sample_hemisphere(16 * chunks.BLOCK, "stratified_near_roots", 1e-6, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
hemisphere.certify_sandwich(sample, params)
hemisphere.certify_weight_bounds(sample, params)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the trim threshold is glibc's")
@pytest.mark.parametrize("threads", [1, 2])
def test_a_certify_scan_does_not_fault_its_scratch_in_every_block(threads):
    src = str(pathlib.Path(vsheet.__file__).resolve().parents[1])
    env = dict(os.environ, VFS_THREADS=str(threads), PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True, text=True, check=True, timeout=120)
    pages = chunks.BLOCK * np.dtype(np.complex128).itemsize / resource.getpagesize()
    # each thread's scratch faulted in at most twice over both scans, where every block did it before
    assert int(out.stdout) < 2 * threads * SCAN_BLOCKS * pages, int(out.stdout) / (threads * SCAN_BLOCKS * pages)
