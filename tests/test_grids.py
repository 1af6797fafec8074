"""Grids, windowed transforms, weighted norms, half-line quadrature."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsheet import grids
from vsheet.grids import (
    GridSpec,
    Space,
    boundary_terms,
    find_mode,
    forward_transform,
    half_line_norm,
    inverse_transform,
    weighted_norm,
)
from vsheet.symbols import Frequency, PhysicalParams, Regime, big_sigma, mu_pm, weight_sigma

M2 = PhysicalParams(v=2.0, c=1.0)


def _grid(nt=16, nx=16, ny=8, gamma=1.0, Ly=10.0):
    return GridSpec(nt=nt, nx=nx, ny=ny, Lt=2 * np.pi, Lx=2 * np.pi, Ly=Ly, gamma=gamma)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            _grid(nt=12)
        with pytest.raises(ValueError):
            _grid(nx=33)

    def test_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            _grid(gamma=0.5)

    def test_rejects_indivisible_quadrature(self):
        with pytest.raises(ValueError):
            GridSpec(nt=8, nx=8, ny=12, Lt=1.0, Lx=1.0, Ly=1.0, gamma=1.0)

    def test_axes_shapes(self):
        g = _grid()
        assert g.t().shape == (16,)
        assert g.x1().shape == (16,)
        assert g.delta().shape == (16,)
        assert g.eta().shape == (16,)
        y, w = g.quadrature()
        assert y.shape == w.shape == (8,)

    def test_frequency_mesh(self):
        g = _grid(gamma=2.0)
        mesh = g.freq_mesh()
        assert np.all(np.asarray(mesh.gamma) == 2.0)
        assert np.asarray(mesh.delta).shape == (16, 16)
        # delta varies along axis 0, eta along axis 1
        assert np.all(np.diff(np.asarray(mesh.eta), axis=1)[:, 0] != 0)

    def test_delta_is_angular(self):
        g = _grid()
        # integer lattice for a 2*pi window
        np.testing.assert_allclose(np.sort(g.delta()), np.arange(-8, 8), atol=1e-12)


def _rule(ny, Ly):
    """Nodes and weights of the half-line rule of a grid with ``ny`` nodes on [0, Ly]."""
    return GridSpec(nt=1, nx=1, ny=ny, Lt=1.0, Lx=1.0, Ly=Ly).quadrature()


class TestQuadrature:
    def test_weights_integrate_constants(self):
        y, w = _rule(32, 7.0)
        assert np.sum(w) == pytest.approx(7.0, rel=1e-14)
        assert np.all((y > 0) & (y < 7.0))

    def test_monotone_nodes(self):
        y, _ = _rule(24, 3.0)
        assert np.all(np.diff(y) > 0)

    def test_exact_for_polynomials(self):
        # order-8 panels integrate degree-15 polynomials exactly
        y, w = _rule(16, 2.0)
        val = np.sum(w * y**15)
        assert val == pytest.approx(2.0**16 / 16.0, rel=1e-13)

    def test_exponential_convergence(self, monkeypatch):
        monkeypatch.setattr(grids, "QUAD_ORDER", 2)
        exact = 1.0 - np.exp(-20.0 * 0.8)
        errs = []
        for ny in (8, 16, 32):
            y, w = _rule(ny, 20.0)
            errs.append(abs(np.sum(w * 0.8 * np.exp(-0.8 * y)) - exact))
        # 2-point panels -> order 4 in the panel width
        rate = np.log2(errs[0] / errs[1])
        assert 3.0 < rate < 5.0, f"unexpected convergence rate {rate}"

    def test_flat_rule_is_the_panels_flattened(self):
        offsets, local, weights = GridSpec(nt=1, nx=1, ny=24, Lt=1.0, Lx=1.0, Ly=3.0)._panels
        y, w = _rule(24, 3.0)
        np.testing.assert_array_equal(y, (offsets[:, None] + local).ravel())
        np.testing.assert_array_equal(w, np.tile(weights, 3))


class TestGridCaches:
    def test_arrays_are_kept_per_grid(self):
        g = _grid()
        assert g.freq_mesh() is g.freq_mesh()
        assert g.quadrature() is g.quadrature()
        assert g._panels is g._panels
        assert g._panel_tables is g._panel_tables
        other = dataclasses.replace(g, gamma=2.0)
        assert other.freq_mesh() is not g.freq_mesh()
        assert np.all(other.freq_mesh().gamma == 2.0) and np.all(g.freq_mesh().gamma == 1.0)

    def test_mesh_is_freed_with_the_grid(self):
        g = _grid()
        mesh = weakref.ref(g.freq_mesh())
        rule = weakref.ref(g.quadrature()[0])
        lags = weakref.ref(g._panel_tables[1])
        del g
        gc.collect()
        assert mesh() is None and rule() is None and lags() is None


    def test_symbol_table_is_freed_with_the_grid(self):
        g = _grid()
        table = weakref.ref(g.symbol_table(PhysicalParams(v=2.0, c=1.0)))
        del g
        gc.collect()
        assert table() is None

    def test_mesh_lambda_and_unit_point_are_freed_with_the_grid(self):
        g = _grid()
        g.symbol_table(PhysicalParams(v=2.0, c=1.0))
        mesh = g.freq_mesh()
        assert {"lam", "unit"} <= vars(mesh).keys()
        lam, unit = weakref.ref(mesh.lam), weakref.ref(mesh.unit[0])
        del g, mesh
        gc.collect()
        assert lam() is None and unit() is None

    @pytest.mark.parametrize("mach", [0.5, 2.0])
    def test_symbol_table_equals_the_kernels_bit_for_bit(self, mach):
        g, params = _grid(), PhysicalParams(v=mach, c=1.0)
        table, mesh = g.symbol_table(params), g.freq_mesh()
        assert g.symbol_table(PhysicalParams(v=mach, c=1.0)) is table
        for got, want in zip((table.mup, table.mum), mu_pm(mesh, params)):
            assert np.array_equal(got, want)
        assert np.array_equal(table.sigma_big, big_sigma(mesh, params))
        assert not hasattr(table, "lam")  # Lambda is the mesh's own
        if params.regime() is Regime.WEAKLY_STABLE:
            assert np.array_equal(table.abs_weight, np.abs(weight_sigma(mesh, params)))
        else:
            assert table.abs_weight is None


    # 16 x 16 and 32 x 16 at M = 2 and 32 x 32 at v = 3, c = 1.5 carry lattice modes delta = +-v eta whose
    # mu+- have exactly zero imaginary parts in the mirrored rows; nt or nx of 1 or 2 leave nothing to mirror
    @pytest.mark.parametrize(
        "nt, nx, v, c",
        [
            (16, 16, 2.0, 1.0),
            (32, 16, 2.0, 1.0),
            (32, 32, 3.0, 1.5),
            (1, 16, 2.0, 1.0),
            (2, 16, 2.0, 1.0),
            (16, 1, 2.0, 1.0),
            (16, 2, 2.0, 1.0),
            (2, 1, 2.0, 1.0),
            (16, 16, 0.8, 1.0),
            (32, 64, 1.5, 1.0),
            (64, 32, 3.0, 1.0),
        ],
        ids=["16x16", "32x16", "v3-c1.5", "nt1", "nt2", "nx1", "nx2", "nt2-nx1", "M0.8", "M1.5", "M3"],
    )
    def test_the_quarter_table_unfolds_to_the_kernels_byte_for_byte(self, nt, nx, v, c):
        g, params = _grid(nt=nt, nx=nx, gamma=1.5), PhysicalParams(v=v, c=c)
        table, mesh = g.symbol_table(params), g.freq_mesh()
        mup, mum = mu_pm(mesh, params)
        assert table.mup.tobytes() == mup.tobytes() and table.mum.tobytes() == mum.tobytes()
        assert table.sigma_big.tobytes() == big_sigma(mesh, params).tobytes()
        if params.regime() is Regime.WEAKLY_STABLE:
            assert table.abs_weight.tobytes() == np.abs(weight_sigma(mesh, params)).tobytes()
        else:
            assert table.abs_weight is None
        if (nt, nx, v) in [(16, 16, 2.0), (32, 16, 2.0), (32, 32, 3.0)]:
            # the signed zeros that conj flips are there to restore
            assert np.count_nonzero(table.mup[nt // 2 + 1 :].imag == 0.0) >= 3

    # the two solves whose symbols overflow or turn NaN: the solve's guards name those, not numpy
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v, c", [(1e-300, 1e-300), (1e153, 1.0)], ids=["nan_symbol", "overflowing_symbol"])
    def test_a_symbol_table_that_is_not_finite_is_built_without_warnings(self, v, c):
        table = _grid().symbol_table(PhysicalParams(v=v, c=c))
        assert not all(np.all(np.isfinite(a)) for a in (table.mup, table.mum, table.sigma_big))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_mu_gives_a_nan_boundary_term_without_warnings(self):
        got = boundary_terms(_grid(), np.ones((2, 8)), np.array([1.0, np.nan]))
        assert np.isfinite(got[0]) and np.isnan(got[1])


class TestFindMode:
    # periods that are not 2*pi, so the lookup's delta Lt / (2 pi) is not the integer it rounds to
    grid = GridSpec(nt=16, nx=8, ny=8, Lt=3.0, Lx=5.0, Ly=1.0, gamma=1.5)

    def test_every_lattice_point_round_trips(self):
        mesh = self.grid.freq_mesh()
        # FFT order puts the negative Nyquist frequency in row nt/2 and column nx/2
        assert mesh.delta[8, 0] == -8 * 2 * np.pi / 3.0 and mesh.eta[0, 4] == -4 * 2 * np.pi / 5.0
        for it, ix in np.ndindex(16, 8):
            assert find_mode(self.grid, mesh[it, ix]) == (it, ix)

    @pytest.mark.parametrize("dt, dx", [(0.5, 0.0), (0.0, 0.5), (-0.5, -0.5)])
    @pytest.mark.parametrize("it, ix", [(0, 0), (3, 5), (8, 4), (15, 7)])
    def test_a_point_half_a_spacing_off_is_rejected(self, it, ix, dt, dx):
        point = self.grid.freq_mesh()[it, ix]
        off = Frequency(1.5, point.delta + dt * 2 * np.pi / 3.0, point.eta + dx * 2 * np.pi / 5.0)
        with pytest.raises(ValueError, match="^frequency does not sit on the grid lattice$"):
            find_mode(self.grid, off)

    def test_the_positive_nyquist_point_is_not_on_the_lattice(self):
        with pytest.raises(ValueError, match="^frequency does not sit on the grid lattice$"):
            find_mode(self.grid, Frequency(1.5, 8 * 2 * np.pi / 3.0, 0.0))

    def test_a_point_of_another_gamma_is_rejected(self):
        point = self.grid.freq_mesh()[3, 5]
        with pytest.raises(ValueError, match=r"^frequency gamma 2\.0 differs from grid gamma 1\.5$"):
            find_mode(self.grid, Frequency(2.0, point.delta, point.eta))


class TestHalfMesh:
    @pytest.mark.parametrize("nt, nx", [(1, 1), (2, 2), (4, 1), (8, 16), (16, 4)])
    def test_mirror_expand_and_counts_agree(self, nt, nx):
        g = _grid(nt=nt, nx=nx)
        assert g.half_nx == nx // 2 + 1 and g.column_counts.shape == (g.half_nx,)
        rng = np.random.default_rng(nt * nx)
        half = rng.standard_normal((nt, g.half_nx, 3)) + 1j * rng.standard_normal((nt, g.half_nx, 3))
        full = g.expand(half)
        assert full.shape == (nt, nx, 3) and np.array_equal(g.half(full), half)
        for it, ix in np.ndindex(nt, nx):
            hit, hix, conj = g.mirror(it, ix)
            assert conj == (ix > nx // 2) and 0 <= hix < g.half_nx
            assert np.array_equal(full[it, ix], np.conj(half[hit, hix]) if conj else half[hit, hix])
        # every half-mesh column stands for as many full-mesh columns as mirror onto it
        hits = np.bincount([g.mirror(0, ix)[1] for ix in range(nx)], minlength=g.half_nx)
        assert np.array_equal(g.column_counts, hits)

    def test_the_mirror_is_the_negated_frequency_off_the_nyquist_row(self):
        g = _grid(nt=8, nx=16)
        deltas, etas = g.delta(), g.eta()
        for it, ix in np.ndindex(g.nt, g.nx):
            hit, hix, conj = g.mirror(it, ix)
            if conj:
                assert etas[hix] == -etas[ix]
                assert (deltas[hit] == -deltas[it]) == (it != g.nt // 2)
        # the last half-mesh column keeps fftfreq's eta = -pi nx / Lx
        assert etas[g.half_nx - 1] == -np.pi * g.nx / g.Lx


class TestTransforms:
    def test_round_trip(self):
        g = _grid()
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((16, 16))
        back = inverse_transform(forward_transform(raw, g), g)
        assert back.dtype == np.float64 and np.max(np.abs(back - raw)) < 1e-13

    def test_round_trip_with_trailing_axis(self):
        g = _grid()
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((16, 16, 5))
        back = inverse_transform(forward_transform(raw, g), g)
        assert back.shape == raw.shape and np.max(np.abs(back - raw)) < 1e-13

    @pytest.mark.parametrize("nt, nx, trailing", [(16, 16, ()), (16, 8, (5,)), (1, 4, ()), (8, 1, (2, 3))])
    def test_the_inverse_is_one_irfft2_bit_for_bit(self, nt, nx, trailing):
        g = _grid(nt=nt, nx=nx, gamma=2.0)
        rng = np.random.default_rng(4)
        shape = (nt, g.half_nx) + trailing
        spectral = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grow = np.exp(g.gamma * g.t()).reshape((nt,) + (1,) * len(trailing) + (1,))
        want = grow * np.fft.irfft2(spectral / g.cell, s=(nt, nx), axes=(0, 1))
        got = inverse_transform(spectral, g)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_the_inverse_takes_the_half_mesh(self):
        g = _grid(nt=16, nx=16)
        with pytest.raises(ValueError, match=r"^leading axes \(16, 16\) do not match the grid's half mesh \(16, 9\)$"):
            inverse_transform(np.zeros((16, 16), dtype=complex), g)

    @pytest.mark.parametrize(
        "nt, nx, trailing, dtype",
        [
            (16, 16, (13,), np.float64),
            (16, 16, (3, 5), np.float64),
            (16, 16, (), np.float64),
            (16, 16, (13,), np.float32),
            (16, 16, (3, 5), np.float32),
            (16, 16, (), np.float32),
            (16, 64, (24,), np.float64),
            (16, 64, (24,), np.float32),
            (2, 16, (24,), np.float64),
            (4, 16, (24,), np.float32),
            (16, 2, (24,), np.float64),
        ],
        ids=["13", "3x5", "none", "13-float32", "3x5-float32", "none-float32", "16x64x24", "16x64x24-float32",
             "nt2", "nt4-float32", "nx2"],
    )
    def test_the_two_passes_match_one_transform(self, nt, nx, trailing, dtype, monkeypatch):
        # At 16 x 64 x 24 the row pass is four tasks of 16 * 8 // 24 = 5 rows (the last one short)
        # and the column pass four tasks of the 33 * 24 half-mesh columns; at nt = 2 and 4 the
        # row pass is one task.  (3, 5) collapses to 15 columns, and a 2-d field to one.
        # A float32 source transforms bit for bit as its float64 cast.
        g = _grid(nt=nt, nx=nx)
        if (nt, nx) == (16, 64):
            assert -(-nt // min(grids._FFT_ROWS, nt * grids._FFT_DEPTH // 24)) == 4
            assert -(-33 * 24 // grids._FFT_LINES) == 4
        raw = np.random.default_rng(3).standard_normal((nt, nx) + trailing).astype(dtype)
        damp = g.cell * np.exp(-g.gamma * g.t()).reshape((nt,) + (1,) * (raw.ndim - 1))
        want = np.fft.rfft2(damp * raw.astype(np.float64), axes=(0, 1))
        for threads in ("1", "2"):
            monkeypatch.setenv("VFS_THREADS", threads)
            got = forward_transform(raw, g)
            assert got.shape == (nt, nx // 2 + 1) + trailing and got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()

    def test_a_contiguous_source_transforms_as_the_real_view_it_copies(self):
        # read_source returns a file's real parts as their own float32 array, not as a view of its complex payload
        g = _grid(nt=16, nx=64)
        stored = np.random.default_rng(5).standard_normal((16, 64, 24, 2)).astype(np.float32).view(np.complex64)[..., 0]
        assert not stored.real.flags.c_contiguous
        got = forward_transform(np.ascontiguousarray(stored.real), g)
        assert got.tobytes() == forward_transform(stored.real, g).tobytes()

    @pytest.mark.parametrize("nt, depth", [(16, 96), (64, 32), (64, 4), (2, 24)])
    def test_a_row_task_damps_at_most_nt_nx_8_doubles(self, nt, depth, monkeypatch):
        # whole-depth rows, at most _FFT_ROWS of them, and one row when a row alone is larger
        seen = []
        original = grids.map_chunks
        monkeypatch.setattr(grids, "map_chunks", lambda fn, size, chunk: seen.append((size, chunk)) or original(fn, size, chunk))
        forward_transform(np.ones((nt, 16, depth)), _grid(nt=nt))
        (size, rows), (columns, lines) = seen
        assert size == nt and 1 <= rows <= grids._FFT_ROWS and rows * depth <= max(nt * 8, depth)
        assert columns == 9 * depth and lines == grids._FFT_LINES

    def test_a_complex_field_is_rejected(self):
        g = _grid()
        with pytest.raises(ValueError, match="^the forward transform takes a real field, got complex128$"):
            forward_transform(np.zeros((16, 16), dtype=complex), g)

    def test_single_mode_spike(self):
        g = _grid()
        t, x = g.t(), g.x1()
        # e^{gamma t} cancels the window; the real mode 2 cos(2 t - 3 x) lands on bin (2, -3) and its mirror
        raw = np.exp(g.gamma * t)[:, None] * 2.0 * np.cos(2 * t[:, None] + -3 * x[None, :])
        hat = g.expand(forward_transform(raw, g))
        it = list(np.round(g.delta()).astype(int)).index(2)
        ix = list(np.round(g.eta()).astype(int)).index(-3)
        expected = g.Lt * g.Lx
        for mode in ((it, ix), (-it % g.nt, -ix % g.nx)):
            assert abs(hat[mode] - expected) < 1e-9 * expected
            hat[mode] = 0.0
        assert np.max(np.abs(hat)) < 1e-9 * expected

    def test_parseval(self):
        g = _grid()
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((16, 16))
        windowed = np.exp(-g.gamma * g.t())[:, None] * raw
        hat = g.expand(forward_transform(raw, g))
        lhs = np.sum(np.abs(windowed) ** 2) * g.cell
        rhs = np.sum(np.abs(hat) ** 2) / (g.Lt * g.Lx)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNorms:
    def test_zero(self):
        g = _grid()
        assert weighted_norm(np.zeros((16, 16)), g, 1.0) == 0.0

    def test_s_zero_is_parseval_on_a_box_with_lt_other_than_lx(self):
        # the Riemann sum divides by Lt Lx: on a square box Lt Lt would read the same
        g = GridSpec(nt=16, nx=8, ny=8, Lt=2 * np.pi, Lx=6 * np.pi, Ly=10.0, gamma=1.0)
        raw = np.random.default_rng(4).standard_normal((16, 8))
        windowed = np.exp(-g.gamma * g.t())[:, None] * raw
        hat = g.expand(forward_transform(raw, g))
        assert weighted_norm(hat, g, 0.0) == pytest.approx(np.sqrt(np.sum(windowed**2) * g.cell), rel=1e-13)

    def test_s_zero_is_plancherel(self):
        g = _grid()
        rng = np.random.default_rng(3)
        u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        direct = np.sqrt(np.sum(np.abs(u) ** 2) / (g.Lt * g.Lx))
        assert weighted_norm(u, g, 0.0) == pytest.approx(direct, rel=1e-13)

    def test_single_mode_weight(self):
        g = _grid(gamma=2.0)
        u = np.zeros((16, 16), dtype=complex)
        it = list(np.round(g.delta()).astype(int)).index(3)
        ix = list(np.round(g.eta()).astype(int)).index(-4)
        u[it, ix] = 1.0
        lam = np.sqrt(2.0**2 + 3.0**2 + 4.0**2)
        expect = lam**1.5 / np.sqrt(g.Lt * g.Lx)
        assert weighted_norm(u, g, 1.5) == pytest.approx(expect, rel=1e-13)

    def test_aniso_single_mode(self):
        g = _grid(gamma=2.0)
        u = np.zeros((16, 16), dtype=complex)
        it = list(np.round(g.delta()).astype(int)).index(3)
        ix = list(np.round(g.eta()).astype(int)).index(-4)
        u[it, ix] = 2.0
        mesh = g.freq_mesh()
        w = abs(weight_sigma(mesh[it, ix], M2))
        lam = np.sqrt(4.0 + 9.0 + 16.0)
        expect = 2.0 * w * lam / np.sqrt(g.Lt * g.Lx)
        got = weighted_norm(u, g, 1.0, space=Space.ANISOTROPIC, params=M2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_aniso_needs_params(self):
        g = _grid()
        with pytest.raises(ValueError):
            weighted_norm(np.ones((16, 16)), g, 0.0, space=Space.ANISOTROPIC)

    @given(st.floats(-2.0, 2.0))
    def test_monotone_in_s(self, s):
        # Lambda >= gamma >= 1 on the lattice, so the norm grows with s
        g = _grid()
        rng = np.random.default_rng(5)
        u = rng.standard_normal((16, 16))
        assert weighted_norm(u, g, s + 0.5) >= weighted_norm(u, g, s) * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "shape", [(4, 8, 2), (32, 16, 8), (64, 8, 24), (8, 1, 8), (8, 2, 8)],
        ids=["4x8x2", "32x16x8", "64x8x24", "8x1x8", "8x2x8"],
    )
    @pytest.mark.parametrize("s", [0.0, 1.5])
    def test_half_line_norm_is_the_full_mesh_sum(self, shape, s):
        # the half mesh, weighted by column counts, against one np.sum over the full mesh it stands for
        g = _grid(*shape)
        rng = np.random.default_rng(5)
        half_shape = (g.nt, g.half_nx, g.ny)
        u = rng.standard_normal(half_shape) + 1j * rng.standard_normal(half_shape)
        w = g.freq_mesh().lam ** s
        squares = np.sum((w[:, :, None] * np.abs(g.expand(u))) ** 2, axis=(0, 1)) / (g.Lt * g.Lx)
        want = float(np.sqrt(np.dot(g.quadrature()[1], squares)))
        assert half_line_norm(u, g, s) == pytest.approx(want, rel=1e-14)

    # the squares of a 1e300 peak overflow, and both norms read inf for these finite fields
    @pytest.mark.parametrize("s, space", [(0.0, Space.PLAIN), (1.0, Space.PLAIN), (1.0, Space.ANISOTROPIC)])
    def test_weighted_norm_of_a_field_whose_squares_overflow_is_finite(self, s, space):
        g = _grid()
        rng = np.random.default_rng(7)
        u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        u *= 1e300 / np.max(np.abs(u))
        got = weighted_norm(u, g, s, space, M2)
        assert np.isfinite(got) and got == 2.0**1000 * weighted_norm(u * 2.0**-1000, g, s, space, M2)
        assert weighted_norm(np.full((16, 16), 1e300), g, 0.0) == pytest.approx(1e300 * np.sqrt(256 / (g.Lt * g.Lx)), rel=1e-15)

    def test_half_line_norm_of_a_field_whose_squares_overflow_is_finite(self):
        g = _grid()
        rng = np.random.default_rng(7)
        u = rng.standard_normal((16, 9, 8)) + 1j * rng.standard_normal((16, 9, 8))
        u *= 1e300 / np.max(np.abs(u))
        got = half_line_norm(u, g, 1.0)
        assert np.isfinite(got) and got == 2.0**1000 * half_line_norm(u * 2.0**-1000, g, 1.0)

    def test_a_norm_beyond_double_precision_reads_inf(self):
        g = _grid()
        assert weighted_norm(np.full((16, 16), 1e308), g, 0.0) == np.inf
        assert half_line_norm(np.full((16, 9, 8), 1e308), g, 0.0) == np.inf

    # a sum of squares that stays finite is today's, bit for bit: no rescaling and no second pass
    @pytest.mark.parametrize("s, space", [(0.0, Space.PLAIN), (1.0, Space.PLAIN), (1.0, Space.ANISOTROPIC)])
    def test_weighted_norm_of_a_finite_sum_keeps_the_unscaled_bits(self, s, space):
        g = _grid()
        rng = np.random.default_rng(7)
        u = 1e150 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        w = g.freq_mesh().lam ** s
        if space is Space.ANISOTROPIC:
            w = g.symbol_table(M2).abs_weight * w
        want = float(np.sqrt(np.sum((w * np.abs(u)) ** 2, axis=(0, 1)) / (g.Lt * g.Lx)))
        assert weighted_norm(u, g, s, space, M2) == want

    def test_half_line_norm_of_a_finite_sum_keeps_the_unscaled_bits(self):
        g = _grid(nt=32)
        rng = np.random.default_rng(7)
        u = 1e150 * (rng.standard_normal((32, 9, 8)) + 1j * rng.standard_normal((32, 9, 8)))
        weights = g.half(g.freq_mesh().lam) ** 2.0 * g.column_counts
        total = np.zeros(16)
        for start in range(0, 32, grids._REDUCE_ROWS):
            parts = np.ascontiguousarray(u[start : start + grids._REDUCE_ROWS]).view(np.float64)
            total += weights[start : start + grids._REDUCE_ROWS].ravel() @ (parts * parts).reshape(-1, 16)
        want = float(np.sqrt(np.dot(g.quadrature()[1], total[0::2] + total[1::2]) / (g.Lt * g.Lx)))
        assert half_line_norm(u, g, 1.0) == want

    def test_half_line_norm_combines_layers(self):
        g = _grid(ny=8)
        y, w = g.quadrature()
        u = np.zeros((16, 9, 8), dtype=complex)
        u[0, 0, :] = 1.0  # constant profile in y at one frequency bin
        total = half_line_norm(u, g, 0.0)
        per_layer = weighted_norm(g.expand(u)[:, :, 0], g, 0.0)
        assert total == pytest.approx(per_layer * np.sqrt(np.sum(w)), rel=1e-12)
