"""Memory of the sweep path and of the certify scans.

The sweep keeps its sources at file precision and one rung of spectral fields.

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
block arrays (``_BLOCK`` points of 16 bytes) per thread: the sandwich pass
8.15 to 8.27 and the weight pass 5.81 to 6.01, at one or two threads.
Locating the extrema, which copies a stratum's values and their indices out
of each block, left them at 7.37 to 8.27 and 5.81 to 6.03.
Scanning each whole 2**17-point chunk at once peaked at 29.1 to 32.3 (sandwich)
and 23.1 to 24.0 (weight) blocks per thread, 16.9 MB for the sandwich at one
thread.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vsheet import fileio, hemisphere
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


def test_a_bin_source_is_read_as_its_payload_without_a_copy(tmp_path):
    grid = _grid(nt=8, nx=8, ny=8)
    path = _write_pair(tmp_path, grid)[0]
    raw, back = fileio.read_source(path)
    assert back == grid and raw.dtype == np.complex64 and not raw.flags.writeable
    owner = raw
    while isinstance(owner, np.ndarray):
        owner = owner.base
    # the array is a view of the bytes read from the file
    assert isinstance(owner, bytes) and len(owner) == path.stat().st_size


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_sweep_holds_one_rung_of_spectral_fields(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("VFS_THREADS", threads)
    grid = _grid()
    paths = _write_pair(tmp_path, grid)
    field = grid.nt * grid.nx * grid.ny * np.dtype(np.complex128).itemsize
    sources = sum(path.stat().st_size for path in paths)
    tracemalloc.start()
    try:
        (raw_p, _), (raw_m, _) = (fileio.read_source(path) for path in paths)
        estimate_sweep(raw_p, raw_m, grid, M2, gammas=(1.0, 2.0, 4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sources + PEAK_FIELDS * field, (peak - sources) / field


@pytest.mark.parametrize("threads", [1, 2])
def test_a_certify_scan_holds_a_few_blocks_per_thread(monkeypatch, threads):
    monkeypatch.setenv("VFS_THREADS", str(threads))
    sample = sample_hemisphere(4 * hemisphere._CHUNK, SampleStrategy.STRATIFIED_NEAR_ROOTS, 1e-6, M2, seed=0)
    block = hemisphere._BLOCK * np.dtype(np.complex128).itemsize
    for scan in (certify_sandwich, certify_weight_bounds):
        tracemalloc.start()
        try:
            scan(sample, M2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * SCAN_BLOCKS * block, (scan.__name__, peak / (threads * block))
