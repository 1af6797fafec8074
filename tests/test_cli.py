"""End-to-end CLI: every study, exit codes, deterministic artifacts."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsheet
from vsheet import cli, fileio, grids, hemisphere, symbols
from vsheet.cli import main
from vsheet.grids import GridSpec
from vsheet.chunks import CHUNK
from vsheet.hemisphere import NoRootFound
from vsheet.symbols import SQRT2, Frequency, PhysicalParams, big_sigma, weight_sigma

M2 = PhysicalParams(v=2.0, c=1.0)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _certify_cfg(tmp_path, out="cert_out", n=2000, extra="", strategy="stratified_near_roots"):
    return _write(
        tmp_path,
        "certify.cfg",
        f"""
[run]
study = certify
seed = 1
out = {tmp_path / out}

[params]
v = 2.0
c = 1.0

[sample]
n = {n}
strategy = {strategy}
{extra}
""",
    )


GRID_BLOCK = """
[grid]
nt = 16
nx = 16
ny = 16
Ly = 14.0
"""


class TestCertify:
    @pytest.mark.parametrize("v", ["3", "5", "8", "15", "50", "100"])
    def test_passes_across_the_weakly_stable_range(self, tmp_path, capsys, v):
        # from v = 8 on the fixed simple-root radius 1e-3 enclosed the glancing point and the run exited 1
        cfg = _certify_cfg(tmp_path, n=20000)
        pathlib.Path(cfg).write_text(pathlib.Path(cfg).read_text().replace("v = 2.0", f"v = {v}"))
        assert main(["certify", "--config", cfg]) == 0
        assert capsys.readouterr().out.count(": PASS") == 6

    def test_an_unresolved_simple_root_is_a_check_failure(self, tmp_path, capsys):
        cfg = _certify_cfg(tmp_path)
        pathlib.Path(cfg).write_text(pathlib.Path(cfg).read_text().replace("v = 2.0", "v = 1e5"))
        assert main(["certify", "--config", cfg]) == 1
        assert "certificate simple_root_quotient: FAIL (min=nan, max=nan, n=0)" in capsys.readouterr().out
        recs = json.loads((tmp_path / "cert_out" / "certificates.json").read_text(), parse_constant=_reject_constant)
        assert recs[-1]["extras"]["reason"].startswith("unresolved arcs: radius 3.125e-17 is below double resolution")

    def test_pass_run(self, tmp_path, capsys):
        cfg = _certify_cfg(tmp_path)
        assert main(["certify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        recs = json.loads((tmp_path / "cert_out" / "certificates.json").read_text())
        names = {r["ratio_name"] for r in recs}
        assert "abs_sigma_big_over_weight_lambda" in names
        assert "simple_root_quotient" in names
        for r in recs:
            for key in ("ratio_name", "empirical_min", "empirical_max", "sample_size", "gamma_floor", "mach", "pass"):
                assert key in r

    def test_deterministic_output(self, tmp_path):
        cfg = _certify_cfg(tmp_path)
        main(["certify", "--config", cfg])
        first = (tmp_path / "cert_out" / "certificates.json").read_bytes()
        main(["certify", "--config", cfg])
        assert (tmp_path / "cert_out" / "certificates.json").read_bytes() == first

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        # several full chunks plus a partial one
        cfg = _certify_cfg(tmp_path, n=2 * CHUNK + 17)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VFS_THREADS", threads)
            assert main(["certify", "--config", cfg]) == 0
            outputs.append((tmp_path / "cert_out" / "certificates.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_elliptic_config_is_usage_error(self, tmp_path):
        cfg = _write(
            tmp_path,
            "ell.cfg",
            f"[run]\nstudy = certify\nout = {tmp_path / 'o'}\n\n[params]\nv = 1.0\nc = 1.0\n",
        )
        assert main(["certify", "--config", cfg]) == 2

    def test_heatmap_values_match_symbols(self, tmp_path):
        cfg = _certify_cfg(
            tmp_path,
            extra="""
[heatmap]
field = abs_sigma_big
gamma = 0.75
delta_min = -2
delta_max = 2
n_delta = 5
eta_min = -1
eta_max = 1
n_eta = 3
""",
        )
        main(["certify", "--config", cfg])
        lines = (tmp_path / "cert_out" / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "delta,eta,abs_sigma_big"
        assert len(lines) == 1 + 5 * 3
        for row in lines[1:]:
            d, e, val = (float(tok) for tok in row.split(","))
            want = abs(big_sigma(Frequency(0.75, d, e), M2))
            assert val == pytest.approx(want, rel=1e-12)

    def test_ratio_heatmap_and_certificates_are_pinned(self, tmp_path):
        # sha256 of both artifacts at seed 3, n = 3001 points of the quadrant grid (the seed
        # selects nothing); certificates.json hashed with the located points min_point and
        # max_point set aside
        cfg = _certify_cfg(
            tmp_path,
            n=3001,
            extra="""
[heatmap]
field = ratio
gamma = 0.25
delta_min = -2
delta_max = 2
n_delta = 41
eta_min = -1.5
eta_max = 1.5
n_eta = 31
""",
        )
        assert main(["certify", "--config", cfg, "--seed", "3"]) == 0
        out = tmp_path / "cert_out"
        records = json.loads((out / "certificates.json").read_text())
        # the five sample certificates locate their extrema; the simple-root arcs are not a sample
        assert [("min_point" in r, "max_point" in r) for r in records] == [(True, True)] * 5 + [(False, False)]
        for record in records:
            record.pop("min_point", None), record.pop("max_point", None)
        # the rest is written as fileio.write_json writes it
        stripped = (json.dumps(records, indent=2, sort_keys=True) + "\n").encode()
        digests = {
            "heatmap.csv": hashlib.sha256((out / "heatmap.csv").read_bytes()).hexdigest(),
            "certificates.json": hashlib.sha256(stripped).hexdigest(),
        }
        assert digests == {
            "heatmap.csv": "fcc8cc242cc5002549dd85016e2d0fd84fb5556ffdccf3ece017f4bf4b6dda71",
            "certificates.json": "68f297f524d5beb866d4fcb9553df47bd0b337b1a0e703349030b710bc75687e",
        }

    def test_the_seed_override_is_accepted_and_changes_nothing(self, tmp_path):
        # the grid reads no seed; --seed and [run] seed stay accepted while the benchmark harness writes them
        cfg = _certify_cfg(tmp_path)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"]) == 0
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "2"]) == 0
        a = (tmp_path / "s1" / "certificates.json").read_bytes()
        b = (tmp_path / "s2" / "certificates.json").read_bytes()
        assert a == b


class TestRoots:
    def test_all_regimes(self, tmp_path, capsys):
        # at the second ladder's small machs sqrt(4 M^2 + 1) - (M^2 + 1) cancels; the closed form must not
        for machs in ([0.5, 1.0, 1.5, 2.0, 3.0], [1e-8, 1e-6, 1e-3, 0.5, 2.0]):
            assert main(["roots", "--config", self._roots_cfg(tmp_path, " ".join(map(repr, machs)))]) == 0
            rows = json.loads((tmp_path / "roots_out" / "roots.json").read_text())
            assert [r["mach"] for r in rows] == machs
            assert {r["regime"] for r in rows} == {"Elliptic", "WeaklyStable"}
            for r in rows:
                assert r["ok"] and r["rel_error"] < 1e-8, r

    def test_degenerate_mach_fails_run(self, tmp_path):
        cfg = _write(
            tmp_path,
            "roots.cfg",
            f"""
[run]
study = roots
out = {tmp_path / 'roots_bad'}

[params]
v = 2.0
c = 1.0

[roots]
machs = {SQRT2!r}
""",
        )
        assert main(["roots", "--config", cfg]) == 1

    def _roots_cfg(self, tmp_path, machs):
        return _write(
            tmp_path,
            "roots.cfg",
            f"[run]\nstudy = roots\nout = {tmp_path / 'roots_out'}\n\n[params]\nv = 2.0\nc = 1.0\n\n"
            f"[roots]\nmachs = {machs}\n",
        )

    def test_machs_near_their_glancing_points_locate_their_roots(self, tmp_path, capsys):
        # the fixed +-20 % bracket let golden section stop at delta = v + c: exit 1 at all but 1e10,
        # which returned 1e10 + 1 inside the tolerance
        assert main(["roots", "--config", self._roots_cfg(tmp_path, "15 20 50 1000 1e5 1e6 1e7 1e10")]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "roots_out" / "roots.json").read_text())
        assert max(r["rel_error"] for r in rows) <= 1e-10 and rows[-1]["located"] == 1e10 - 1

    def test_a_root_off_its_closed_form_keeps_its_located_value(self, tmp_path, capsys):
        # just above sqrt(2) the search stops 5.7e-8 and 5.6e-8 from the closed form: those rows read
        # nan, nan, and both machs were named 1.41421
        assert main(["roots", "--config", self._roots_cfg(tmp_path, "1.414214 1.414215 1.41422 2")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line, mach, error in zip(err, ("1.414214", "1.414215"), ("5.72e-08", "5.61e-08")):
            assert line.startswith(f"roots: mach={mach}: located root ") and line.endswith(f" by {error} relative, above 1e-08")
        rows = json.loads((tmp_path / "roots_out" / "roots.json").read_text())
        assert [r["ok"] for r in rows] == [False, False, True, True]
        assert all(r["located"] > 0 for r in rows)
        assert [round(r["rel_error"], 9) for r in rows[:2]] == [5.7e-08, 5.6e-08]
        with open(tmp_path / "roots_out" / "roots.csv") as f:
            assert [row["located"] for row in csv.DictReader(f)] == [repr(r["located"]) for r in rows]

    def test_degenerate_mach_says_why_on_stderr(self, tmp_path, capsys):
        assert main(["roots", "--config", self._roots_cfg(tmp_path, repr(SQRT2))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["roots: mach=1.4142135623730951: degenerate regime (mach = sqrt(2)); no root to locate"]

    def test_a_mach_whose_square_overflows_is_a_one_line_usage_error(self, tmp_path, capsys):
        # at 1e154 M^2 is finite and only 4 M^2 overflows: the root constant must not read 0 there
        for mach in ("1e+300", "1e+154"):
            assert main(["roots", "--config", self._roots_cfg(tmp_path, f"2.0 {mach}")]) == 2
            assert capsys.readouterr().err.splitlines() == [f"vfs: the root constant at mach {mach} overflows double precision"]
            assert not (tmp_path / "roots_out" / "roots.json").exists()

    def test_a_mach_whose_root_cancels_to_zero_is_a_one_line_usage_error(self, tmp_path, capsys):
        # M^2 underflows to 0 here, below the subnormal limit of the next test
        cfg = self._roots_cfg(tmp_path, "2.0 1e-300")
        assert main(["roots", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vfs: {cfg}: [roots] machs must be a list of at least one value, each finite and at least "
            f"1.4916681462400413e-154 (the least mach with a normal M^2), got (2.0, 1e-300)"
        ]
        assert not (tmp_path / "roots_out" / "roots.json").exists()

    def test_a_mach_whose_square_is_subnormal_is_a_one_line_usage_error(self, tmp_path, capsys):
        # at 1e-160 the located root (1.00036e-160) and the closed form (9.99994e-161) both lose digits
        cfg = self._roots_cfg(tmp_path, "2.0 1e-160")
        assert main(["roots", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vfs: {cfg}: [roots] machs must be a list of at least one value, each finite and at least "
            f"1.4916681462400413e-154 (the least mach with a normal M^2), got (2.0, 1e-160)"
        ]
        assert not (tmp_path / "roots_out" / "roots.json").exists()

    def test_the_smallest_mach_with_a_normal_square_locates_its_root(self, tmp_path):
        limit = math.sqrt(sys.float_info.min)
        assert math.nextafter(limit, 0.0) ** 2 < sys.float_info.min <= limit**2
        machs = [limit, math.nextafter(limit, 1.0), 2e-154]
        assert main(["roots", "--config", self._roots_cfg(tmp_path, " ".join(map(repr, machs)))]) == 0
        rows = json.loads((tmp_path / "roots_out" / "roots.json").read_text())
        assert [r["mach"] for r in rows] == machs
        assert all(r["ok"] and r["rel_error"] < 1e-8 for r in rows)

    def test_csv_writes_nan_where_json_writes_null(self, tmp_path):
        main(["roots", "--config", self._roots_cfg(tmp_path, f"2.0 {SQRT2!r}")])
        out = tmp_path / "roots_out"
        records = json.loads((out / "roots.json").read_text())
        with open(out / "roots.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records) == 2
        numeric = ("mach", "closed_form", "located", "rel_error")
        for row, record in zip(rows, records):
            for key in numeric:
                assert math.isnan(float(row[key])) == (record[key] is None), key
        assert [key for key in numeric if records[1][key] is None] == ["closed_form", "located", "rel_error"]
        assert not any(records[0][key] is None for key in numeric)


class TestSolveAndSweep:
    def test_solve_builtin(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "solve.cfg",
            f"""
[run]
study = solve
out = {tmp_path / 'solve_out'}

[params]
v = 2.0
c = 1.0
{GRID_BLOCK}
""",
        )
        assert main(["solve", "--config", cfg]) == 0
        assert (tmp_path / "solve_out" / "front.bin").exists()
        meta = json.loads((tmp_path / "solve_out" / "front.json").read_text())
        assert meta["regime"] == "WeaklyStable"
        # the regime is printed once, in the header line; the report lines are diagnostics
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("solve [WeaklyStable]: wrote ") and "WeaklyStable" not in "".join(out[1:])
        assert [line.split(" = ")[0].strip() for line in out[1:]] == sorted(meta["report"])

    def test_solve_reads_source_files(self, tmp_path):
        from vsheet import fileio
        from vsheet.cli import builtin_sources
        from vsheet.config import load_config

        cfg_text = f"""
[run]
study = solve
out = {tmp_path / 'solve_files'}

[params]
v = 2.0
c = 1.0
{GRID_BLOCK}
"""
        cfg = _write(tmp_path, "solve_base.cfg", cfg_text)
        grid = load_config(cfg).grid
        raw_p, raw_m = builtin_sources(grid)
        fileio.write_source_bin(tmp_path / "p.bin", raw_p, grid)
        fileio.write_source_csv(tmp_path / "m.csv", raw_m, grid)
        cfg2 = _write(
            tmp_path,
            "solve_files.cfg",
            cfg_text
            + f"""
[solve]
source_plus = {tmp_path / 'p.bin'}
source_minus = {tmp_path / 'm.csv'}
""",
        )
        assert main(["solve", "--config", cfg2]) == 0
        meta = json.loads((tmp_path / "solve_files" / "front.json").read_text())
        builtin_run = _write(tmp_path, "solve_b.cfg", cfg_text)
        main(["solve", "--config", builtin_run])
        meta_b = json.loads((tmp_path / "solve_files" / "front.json").read_text())
        # complex64 file quantization: norms agree to single precision
        for key, val in meta["norms"].items():
            assert val == pytest.approx(meta_b["norms"][key], rel=1e-5)

    def test_nan_source_file_is_a_one_line_usage_error(self, tmp_path, capsys):
        from vsheet import fileio
        from vsheet.cli import builtin_sources
        from vsheet.config import load_config

        cfg_text = f"""
[run]
study = solve
out = {tmp_path / 'solve_nan'}

[params]
v = 2.0
c = 1.0
{GRID_BLOCK}
[solve]
source_plus = {tmp_path / 'p.bin'}
"""
        cfg = _write(tmp_path, "solve_nan.cfg", cfg_text)
        grid = load_config(cfg).grid
        raw_p, _ = builtin_sources(grid)
        raw_p[2, 3, 4] = np.nan
        fileio.write_source_bin(tmp_path / "p.bin", raw_p, grid)
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path / "p.bin") in err[0] and "non-finite" in err[0]

    def test_sweep_pass_and_csv(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "sweep.cfg",
            f"""
[run]
study = sweep
out = {tmp_path / 'sweep_out'}

[params]
v = 2.0
c = 1.0
{GRID_BLOCK}

[sweep]
gammas = 1 2 4
""",
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,front_aniso,g_over_f,front_plain"
        assert len(lines) == 4
        payload = json.loads((tmp_path / "sweep_out" / "sweep.json").read_text())
        assert payload["passed"] is True
        assert [row["gamma"] for row in payload["rows"]] == [1.0, 2.0, 4.0]
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("study, artifacts", [
        ("solve", ("front.bin", "front.json")),
        ("sweep", ("sweep.json", "sweep.csv")),
    ])
    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch, study, artifacts):
        # Each pass runs in at least two tasks: the transform's 32 t rows in tasks of at most
        # 32 * 8 / 24 = 10 whole-depth rows, its 17 * 24 half-mesh columns in tasks of
        # _FFT_LINES, and the kernel's 17 mirror pairs of rows in tasks of _KERNEL_PAIRS
        assert min(grids._FFT_ROWS, 32 * grids._FFT_DEPTH // 24) < 32
        assert grids._FFT_LINES < 17 * 24 and grids._KERNEL_PAIRS < 17
        sweep = "[sweep]\ngammas = 1 2 4\n" if study == "sweep" else ""
        cfg = _write(
            tmp_path,
            f"{study}.cfg",
            f"""
[run]
study = {study}
out = {tmp_path / 'out'}

[params]
v = 2.0
c = 1.0

[grid]
nt = 32
nx = 32
ny = 24
Ly = 14.0

{sweep}""",
        )
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VFS_THREADS", threads)
            assert main([study, "--config", cfg]) == 0
            outputs.append([(tmp_path / "out" / name).read_bytes() for name in artifacts])
        assert outputs[0] == outputs[1]

    # sha256 of the solve and sweep artifacts on a 32x32x16 grid
    PINNED = {
        "bin": {
            "front.bin": "7d388adf18081bcb70972df533573617ba29b560d6507484cc0eac39eeb5144f",
            "front.json": "c1c4744cd16f41d989a318c2b6ba580f4f2d8ed959bf4484082ad014119895bc",
            "sweep.json": "0d6e05fe01aab8a3c01a9aaaab69eb0e3b23f6d01a957cd239a1848091571a5d",
            "sweep.csv": "c765cf8e334307bb9fb77d71e9e64dd696dcc31fda72672b625f43f79f3f1db6",
        },
        "builtin": {
            "front.bin": "a6f2d3e142b136ee2cb5969e5f566748c37652d4b44c06b265fe570f475b020b",
            "front.json": "646fd98c35cd120f2862619cac5ac69c24ac13ca841b47a2891c7458df55b23a",
            "sweep.json": "186be090beb5c3e011e1c9d66b3c00f110244d0968346600d313104dbc44e9fb",
            "sweep.csv": "bd6d7fd011c0949aef6c2723eed522301d96e006fe18cc070499c52374ae5e7d",
        },
    }
    PIN_GRID = GridSpec(nt=32, nx=32, ny=16, Lt=2 * math.pi, Lx=2 * math.pi, Ly=14.0)
    PIN_CFG = "[params]\nv = 2.0\nc = 1.0\n\n[grid]\nnt = 32\nnx = 32\nny = 16\nLy = 14.0\n\n[solve]\n"

    @staticmethod
    def _seeded_pair(tmp_path, grid, imaginary=False, suffix=".bin") -> str:
        """A seeded source pair written to files; returns the [solve] lines that name them.

        Each side is a Gaussian envelope in (t, x1, x2) times 1 + 0.1 noise.  The noise is real, or
        with ``imaginary`` complex, which a source may not be.
        """
        rng = np.random.default_rng(5)
        t, x, (y, _) = grid.t(), grid.x1(), grid.quadrature()
        write = fileio.write_source_csv if suffix == ".csv" else fileio.write_source_bin
        solve = ""
        for side, centre in (("plus", 0.12), ("minus", 0.18)):
            envelope = (
                np.exp(-(((t - 0.4 * grid.Lt) / (0.1 * grid.Lt)) ** 2))[:, None, None]
                * (1.0 + 0.5 * np.cos(x))[None, :, None]
                * np.exp(-(((y - centre * grid.Ly) / (0.06 * grid.Ly)) ** 2))[None, None, :]
            )
            noise = rng.standard_normal(envelope.shape)
            if imaginary:
                noise = noise + 1j * rng.standard_normal(envelope.shape)
            write(tmp_path / f"{side}{suffix}", envelope * (1.0 + 0.1 * noise), grid)
            solve += f"source_{side} = {tmp_path / f'{side}{suffix}'}\n"
        return solve

    @pytest.mark.parametrize("source", ["bin", "builtin"])
    def test_solve_and_sweep_artifacts_are_pinned(self, tmp_path, source):
        solve = self._seeded_pair(tmp_path, self.PIN_GRID) if source == "bin" else ""
        cfg = _write(tmp_path, "pin.cfg", self.PIN_CFG + solve)
        digests = {}
        for study, names in (("solve", ("front.bin", "front.json")), ("sweep", ("sweep.json", "sweep.csv"))):
            assert main([study, "--config", cfg, "--out", str(tmp_path / study)]) == 0
            digests.update({name: hashlib.sha256((tmp_path / study / name).read_bytes()).hexdigest() for name in names})
        assert digests == self.PINNED[source]

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    @pytest.mark.parametrize("study", ["solve", "sweep"])
    def test_a_complex_source_file_is_a_one_line_usage_error(self, tmp_path, capsys, study, suffix):
        # the plus side is read, and named, first
        cfg = _write(tmp_path, "complex.cfg", self.PIN_CFG + self._seeded_pair(tmp_path, self.PIN_GRID, True, suffix))
        assert main([study, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vfs: source file {tmp_path / f'plus{suffix}'} has a non-zero imaginary part; sources are real"
        ]
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("edit, differ", [
        ("gamma = 3.0\n", "gamma 1.0 (header) != 3.0 ([grid])"),
        ("nt = 64\n", "nt 32 (header) != 64 ([grid])"),
    ])
    @pytest.mark.parametrize("study", ["solve", "sweep"])
    def test_a_source_header_that_differs_from_grid_is_a_one_line_usage_error(self, tmp_path, capsys, study, edit, differ):
        solve = self._seeded_pair(tmp_path, self.PIN_GRID)
        config = self.PIN_CFG.replace("nt = 32\n", "") + edit
        cfg = _write(tmp_path, "differ.cfg", config.replace("[solve]\n", "") + "\n[solve]\n" + solve)
        assert main([study, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        if edit.startswith("nt"):
            assert capsys.readouterr().err.splitlines() == [
                f"vfs: source file {tmp_path / 'plus.bin'}: its header differs from the config's [grid] in {differ}"
            ]
        else:
            # an nt left out of [grid] is its default 64, which the header differs from as well
            assert capsys.readouterr().err.splitlines() == [
                f"vfs: source file {tmp_path / 'plus.bin'}: its header differs from the config's [grid] in "
                f"nt 32 (header) != 64 ([grid]), {differ}"
            ]
        assert not any((tmp_path / "out").iterdir())

    def test_without_grid_a_source_header_sets_the_grid(self, tmp_path):
        cfg = _write(tmp_path, "header.cfg", "[params]\nv = 2.0\nc = 1.0\n\n[solve]\n" + self._seeded_pair(tmp_path, self.PIN_GRID))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "front.json").read_text())["grid"]["nt"] == 32

    @pytest.mark.parametrize("trigger", ["zero files", "s = -400"])
    def test_a_zero_source_norm_is_a_one_line_usage_error(self, tmp_path, capsys, trigger):
        if trigger == "zero files":
            fileio.write_source_bin(tmp_path / "zero.bin", np.zeros((32, 32, 16)), self.PIN_GRID)
            solve = f"source_plus = {tmp_path / 'zero.bin'}\nsource_minus = {tmp_path / 'zero.bin'}\n"
            where = "gamma = 1.0, s = 0.0"
        else:
            # Lambda^(2s) underflows to 0 at every mode from the gamma = 4 rung on, where Lambda >= 4
            solve, where = "[sweep]\ns = -400\n", "gamma = 4.0, s = -400.0"
        cfg = _write(tmp_path, "zero.cfg", self.PIN_CFG + solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vfs: the source norm sum ||F||^2_(L2 H^s) is 0 at {where}; the sweep ratios are undefined"
        ]
        assert not any((tmp_path / "out").iterdir())

    def test_an_underflowed_solve_norm_is_a_one_line_usage_error(self, tmp_path, capsys):
        # Lambda >= gamma = 4 at every mode, so the builtin pair's ||g||_(H^-400) underflows to 0
        cfg = _write(tmp_path, "under.cfg", f"[params]\nv = 2.0\nc = 1.0\n{GRID_BLOCK}gamma = 4.0\n[solve]\ns = -400\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "vfs: the norm ||g||_(H^s) of a non-zero g underflows to 0 at gamma = 4.0, s = -400.0; "
            "the reported norms would read 0"
        ]
        assert not any((tmp_path / "out").iterdir())


class TestDiagram:
    def test_flip_at_sqrt2_cell(self, tmp_path):
        cfg = _write(
            tmp_path,
            "diag.cfg",
            f"""
[run]
study = diagram
out = {tmp_path / 'diag_out'}

[params]
v = 2.0
c = 1.0

[diagram]
m_min = 0.5
m_max = 3.5
m_step = 0.05
""",
        )
        assert main(["diagram", "--config", cfg]) == 0
        lines = (tmp_path / "diag_out" / "diagram.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        flips = [
            (float(rows[i][0]), float(rows[i + 1][0]))
            for i in range(len(rows) - 1)
            if rows[i][1] != rows[i + 1][1]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert lo < SQRT2 <= hi, f"flip at ({lo}, {hi}] misses sqrt(2)"
        # root constants populated and positive on both sides of the flip
        for mach, regime, y in rows:
            assert float(y) > 0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("study", ["certify", "roots"])
def test_artifacts_are_strict_json(tmp_path, study):
    # gamma_floor = 0.5 leaves the root tubes without a point, whose certificate is then NaN; M = sqrt(2) has no roots
    if study == "certify":
        cfg = _certify_cfg(tmp_path, extra="gamma_floor = 0.5")
        name, key = "certificates.json", "empirical_max"
    else:
        cfg = _write(
            tmp_path,
            "roots.cfg",
            f"[run]\nstudy = roots\nout = {tmp_path / 'cert_out'}\n\n[params]\nv = 2.0\nc = 1.0\n\n"
            f"[roots]\nmachs = {SQRT2!r}\n",
        )
        name, key = "roots.json", "closed_form"
    main([study, "--config", cfg])
    records = json.loads((tmp_path / "cert_out" / name).read_text(), parse_constant=_reject_constant)
    tagged = [r for r in records if f"{key}_nonfinite" in r]
    assert tagged and all(r[key] is None for r in tagged)


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "vfs:" in capsys.readouterr().err

    def test_study_mismatch(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "mismatch.cfg",
            f"[run]\nstudy = sweep\nout = {tmp_path / 'x'}\n\n[params]\nv = 2.0\nc = 1.0\n",
        )
        assert main(["solve", "--config", cfg]) == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x"])

    def test_bad_params_reported(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "bad.cfg",
            f"[run]\nstudy = solve\nout = {tmp_path / 'x'}\n\n[params]\nv = -1.0\nc = 1.0\n",
        )
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"vfs: {cfg}: [params] v must be positive and finite, got -1.0\n"

    def test_bad_grid_reported(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg", f"[run]\nout = {tmp_path / 'x'}\n\n[params]\nv = 2.0\nc = 1.0\n\n[grid]\nnt = 12\n")
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"vfs: {cfg}: [grid] nt and nx must be powers of two, got 12, 64\n"
        assert not (tmp_path / "x").exists()


def test_weight_heatmap_field(tmp_path):
    cfg = _write(
        tmp_path,
        "hm.cfg",
        f"""
[run]
study = certify
seed = 0
out = {tmp_path / 'hm_out'}

[params]
v = 2.0
c = 1.0

[sample]
n = 500

[heatmap]
field = abs_weight_sigma
gamma = 1.25
delta_min = 0
delta_max = 2
n_delta = 3
eta_min = 0.5
eta_max = 1.5
n_eta = 3
""",
    )
    main(["certify", "--config", cfg])
    lines = (tmp_path / "hm_out" / "heatmap.csv").read_text().splitlines()
    d, e, val = (float(tok) for tok in lines[1].split(","))
    assert val == pytest.approx(abs(weight_sigma(Frequency(1.25, d, e), M2)), rel=1e-12)


# an import hook that refuses scipy and every scipy.* module, then one certify run
_WITHOUT_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from vsheet.cli import main

code = main(["certify", "--config", sys.argv[1]])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
sys.exit(code)
"""


@pytest.mark.parametrize("strategy", ["uniform_angular", "stratified_near_roots"])
def test_certify_runs_without_scipy(tmp_path, strategy):
    src = str(pathlib.Path(vsheet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    blocked = _certify_cfg(tmp_path, out="blocked", n=3000, strategy=strategy)
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, blocked], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert main(["certify", "--config", _certify_cfg(tmp_path, out="free", n=3000, strategy=strategy)]) == 0
    certificates = [(tmp_path / run / "certificates.json").read_bytes() for run in ("blocked", "free")]
    assert certificates[0] == certificates[1]


class TestExitCodes:
    """0 pass, 1 check failed, 2 usage or config, 3 numerical guard; 2 and 3 print one ``vfs:`` line."""

    def _one_vfs_line(self, capsys) -> str:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("vfs: "), err
        return err[0]

    def test_symbol_floor_trip_is_exit_3(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "floor.cfg",
            f"[run]\nstudy = solve\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n{GRID_BLOCK}\n"
            "[solve]\nsigma_floor = 10\n",
        )
        assert main(["solve", "--config", cfg]) == 3
        assert self._one_vfs_line(capsys).startswith("vfs: SymbolTooSmall: ")

    @pytest.mark.parametrize(
        "guard, base",
        [
            (vsheet.DegenerateDenominator, ArithmeticError),
            (vsheet.SymbolTooSmall, ArithmeticError),
            (vsheet.QuadratureUnderResolved, RuntimeError),
            (vsheet.DecayViolated, RuntimeError),
            (vsheet.InternalCheckFailed, RuntimeError),
        ],
    )
    def test_every_guard_is_exit_3(self, tmp_path, capsys, monkeypatch, guard, base):
        assert issubclass(guard, vsheet.NumericalGuard) and issubclass(guard, base)

        def trip(cfg):
            raise guard("tripped")

        monkeypatch.setattr(cli, "run", trip)
        cfg = _write(tmp_path, "r.cfg", f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n")
        assert main(["roots", "--config", cfg]) == 3
        assert self._one_vfs_line(capsys) == f"vfs: {guard.__name__}: tripped"

    def test_no_root_found_stays_a_check_failure(self, tmp_path, capsys, monkeypatch):
        def no_root(params):
            raise NoRootFound("bracket exhausted")

        monkeypatch.setattr(cli, "locate_roots", no_root)
        cfg = _write(tmp_path, "r.cfg", f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n\n[roots]\nmachs = 2.0\n")
        assert main(["roots", "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == ["roots: mach=2.0: bracket exhausted"]

    # the symbol overflows and NaNs follow, which numpy once printed as RuntimeWarnings on the way to the guards
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "v, c, named",
        [
            ("1e-300", "1e-300", "vfs: QuadratureUnderResolved: half-line truncation tail ~nan (relative)"),
            ("1e153", "1", "vfs: SymbolTooSmall: |Sigma|/Lambda^2 = inf is not finite at (delta, eta) = "),
        ],
        ids=["nan_symbol", "overflowing_symbol"],
    )
    def test_a_non_finite_symbol_never_reaches_front_json(self, tmp_path, capsys, v, c, named):
        # both used to exit 0 with null or nan norms in front.json
        cfg = _write(tmp_path, "r.cfg", f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = {v}\nc = {c}\n{GRID_BLOCK}")
        assert main(["solve", "--config", cfg]) == 3
        assert self._one_vfs_line(capsys).startswith(named)
        assert not list((tmp_path / "o").glob("front.*"))

    @pytest.mark.parametrize(
        "study, section, line",
        [
            ("certify", "heatmap", "delta_max = 1e200"),
            ("certify", "heatmap", "gamma = 1e200"),
            ("solve", "grid", "gamma = 1e200"),
            ("solve", "grid", "lt = 1e-300"),
            ("sweep", "sweep", "gammas = 1 1e300"),
        ],
    )
    def test_an_overflowing_frequency_modulus_is_named(self, tmp_path, capsys, study, section, line):
        # each printed an overflow RuntimeWarning, then "frequency components must be finite"
        cfg = _write(tmp_path, "r.cfg", f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n\n[{section}]\n{line}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([study, "--config", cfg]) == 2
        err = self._one_vfs_line(capsys)
        assert "the frequency modulus overflows double precision: the largest component is " in err
        assert f"[{section}] " in err if section != "sweep" else err.endswith("the largest component is 1e+300")
        assert not ((tmp_path / "o").exists() and any((tmp_path / "o").iterdir()))

    def test_bad_thread_count_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VFS_THREADS", "abc")
        assert main(["certify", "--config", _certify_cfg(tmp_path)]) == 2
        assert self._one_vfs_line(capsys) == "vfs: VFS_THREADS must be a positive integer, got 'abc'"

    def test_a_zero_simple_root_band_is_a_check_failure(self, tmp_path, capsys, monkeypatch):
        # |Sigma| vanishes at the first point of the default outer arc (radius 1e-3, 360 points)
        _, delta0, _ = hemisphere.root_points(M2)[0]
        phi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 360)
        gamma, delta = (1e-3 * np.cos(phi))[0], (delta0 + 1e-3 * np.sin(phi))[0]

        def vanishing(freqs, params):
            return np.where((freqs.gamma == gamma) & (freqs.delta == delta), 0.0, big_sigma(freqs, params))

        monkeypatch.setattr(hemisphere, "big_sigma", vanishing)
        assert main(["certify", "--config", _certify_cfg(tmp_path)]) == 1
        assert "certificate simple_root_quotient: FAIL (min=0," in capsys.readouterr().out
        recs = json.loads((tmp_path / "cert_out" / "certificates.json").read_text())
        assert recs[-1]["extras"]["reason"] == "zero band: |Sigma| vanishes on the arc of radius 0.001"

    # options that are gone, and what their one line says
    RETIRED = {
        # the simple-root radius is derived from the glancing gap
        "radius = 1e-3": "unknown section [simple_root]",
        # vfs roots judges agreement against one fixed bound
        "tolerance = 1e-8": "unknown key [roots] tolerance",
        # its zone points are the stratified sample's
        "strategy = quasi_random": "[sample] strategy = 'quasi_random' is not one of uniform_angular, stratified_near_roots",
    }

    @pytest.mark.parametrize(
        "study, section, line",
        [
            ("certify", "simple_root", "radius = 1e-3"),
            ("roots", "roots", "tolerance = 1e-8"),
            ("certify", "sample", "strategy = quasi_random"),
            ("certify", "sample", "explosion_threshold = nan"),
            ("certify", "sample", "explosion_threshold = 0.5"),
            ("certify", "sample", "n = 0"),
            ("certify", "sample", "n = -3"),
            # the largest sample is 10**9 points, some minutes of scans; a (3, n) sample ran out of memory here
            ("certify", "sample", "n = 1000000000000"),
            ("certify", "sample", "gamma_floor = nan"),
            ("certify", "sample", "gamma_floor = 0"),
            ("certify", "sample", "gamma_floor = 1"),
            ("certify", "sample", "gamma_floor = -0.1"),
            ("sweep", "sweep", "gammas = 2"),
            ("sweep", "sweep", "gammas = 1 nan"),
            ("sweep", "sweep", "gammas = 1 inf"),
            ("sweep", "sweep", "gammas = 0.5 1"),
            ("sweep", "sweep", "gammas = 8 4 2 1"),
            ("sweep", "sweep", "gammas = 2 2"),
            ("sweep", "sweep", "slack = nan"),
            ("sweep", "sweep", "slack = -1"),
            ("solve", "solve", "sigma_floor = nan"),
            ("solve", "solve", "sigma_floor = -1"),
            ("roots", "roots", "machs = "),
            ("roots", "roots", "machs = 0 2"),
            ("roots", "roots", "machs = 2 nan"),
            ("solve", "solve", "s = nan"),
            ("solve", "solve", "s = inf"),
            ("sweep", "sweep", "s = nan"),
            ("sweep", "sweep", "s = -inf"),
            ("solve", "solve", "s = 400"),
            ("sweep", "sweep", "s = 400"),
        ],
    )
    def test_an_out_of_range_number_is_one_vfs_line(self, tmp_path, capsys, study, section, line):
        cfg = _write(
            tmp_path,
            "r.cfg",
            f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n{GRID_BLOCK}\n[{section}]\n{line}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([study, "--config", cfg]) == 2
        key, value = line.split(" = ")
        if value == "400":
            named = "s = 400.0 overflows the norm weight Lambda^(2(s+1))"
        elif line in self.RETIRED:
            named = self.RETIRED[line]
        else:
            named = "s must be finite, got" if key == "s" else f"[{section}] {key} must be"
        assert named in self._one_vfs_line(capsys)

    def test_running_out_of_memory_is_one_vfs_line(self, tmp_path, capsys, monkeypatch):
        # the sampler is patched, so nothing of this size is ever allocated
        told = "Unable to allocate 22.4 GiB for an array with shape (3, 1000000000) and data type float64"

        def too_large(n, *args, **kwargs):
            assert n == 10**9
            raise MemoryError(told)

        monkeypatch.setattr(cli, "sample_hemisphere", too_large)
        cfg = _write(tmp_path, "big.cfg", "[params]\nv = 2.0\nc = 1.0\n[sample]\nn = 1000000000\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert self._one_vfs_line(capsys) == f"vfs: out of memory: {told}"
        assert not any((tmp_path / "o").iterdir())

    def test_certify_below_sqrt2_is_one_vfs_line(self, tmp_path, capsys):
        cfg = _write(tmp_path, "ell.cfg", f"[run]\nout = {tmp_path / 'o'}\n\n[params]\nv = 1.0\nc = 1.0\n")
        assert main(["certify", "--config", cfg]) == 2
        assert "mach > sqrt(2)" in self._one_vfs_line(capsys)

    @pytest.mark.parametrize(
        "study, out, solve, errno_text",
        [
            ("certify", "taken", "", "File exists"),
            ("certify", "taken/sub", "", "Not a directory"),
            ("solve", "o", "[solve]\nsource_plus = {tmp}\n", "Is a directory"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "source-is-a-directory"],
    )
    def test_an_unusable_path_is_a_usage_error(self, tmp_path, capsys, study, out, solve, errno_text):
        (tmp_path / "taken").write_text("")
        cfg = _write(
            tmp_path,
            "p.cfg",
            f"[params]\nv = 2.0\nc = 1.0\n{GRID_BLOCK}\n[sample]\nn = 100\n" + solve.format(tmp=tmp_path),
        )
        assert main([study, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        assert errno_text in self._one_vfs_line(capsys)

    @pytest.mark.parametrize("given", ["--out", "[run] out"], ids=["flag", "config"])
    def test_an_unusable_output_path_names_where_it_came_from(self, tmp_path, capsys, given):
        cfg = tmp_path / "c.cfg"
        run = f"[run]\nout = {cfg}\n\n" if given == "[run] out" else ""
        cfg.write_text(f"{run}[params]\nv = 2.0\nc = 1.0\n")
        argv = ["certify", "--config", str(cfg)] + (["--out", str(cfg)] if given == "--out" else [])
        assert main(argv) == 2
        origin = "--out" if given == "--out" else f"{cfg}: [run] out"
        assert self._one_vfs_line(capsys) == f"vfs: {origin} {str(cfg)!r} cannot be made a directory: File exists"

    @pytest.mark.parametrize(
        "study, point",
        [("certify", "_row_table"), ("certify", "_column_table"), ("solve", "_mu_branch")],
    )
    def test_a_failed_internal_check_is_exit_3(self, tmp_path, capsys, monkeypatch, study, point):
        row_table, column_table, branch = hemisphere._row_table, hemisphere._column_table, symbols._mu_branch

        def below_floor(*args):
            rows = row_table(*args)
            rows[0, 0] = -rows[0, 0]
            return rows

        def off_sphere(*args):
            cols = column_table(*args)
            cols[:, 0] *= 1.01
            return cols

        if point == "_row_table":
            monkeypatch.setattr(hemisphere, point, below_floor)
        elif point == "_column_table":
            monkeypatch.setattr(hemisphere, point, off_sphere)
        else:
            monkeypatch.setattr(symbols, point, lambda *args: -branch(*args) - 1e-3)
        cfg = _write(tmp_path, "c.cfg", f"[params]\nv = 2.0\nc = 1.0\n{GRID_BLOCK}\n[sample]\nn = 100\n")
        assert main([study, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        message = {"_row_table": "a point below gamma_floor", "_column_table": "a point off the unit sphere"}.get(point, "a negative real part")
        line = self._one_vfs_line(capsys)
        assert line.startswith("vfs: InternalCheckFailed: ") and message in line

    @pytest.mark.parametrize("study", ["certify", "solve", "sweep"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_a_negative_seed_is_rejected_by_name(self, tmp_path, capsys, study, where):
        seed, argv = ("seed = -1", []) if where == "config" else ("seed = 0", ["--seed", "-1"])
        cfg = _write(tmp_path, "s.cfg", f"[run]\n{seed}\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n")
        assert main([study, "--config", cfg, *argv]) == 2
        named = "[run] seed must be nonnegative, got -1" if where == "config" else "vfs: --seed must be nonnegative, got -1"
        assert named in self._one_vfs_line(capsys)
        assert not (tmp_path / "o").exists()


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# raw values that parse, for the keys the property varies; every other key
# keeps its default.  Some are rejected after parsing (nt = 6, ny = 12,
# [grid] gamma = 0.5, [heatmap] field = bogus, gamma = 0, n_delta = -1,
# explosion_threshold = nan, slack = -1, s = nan, ...).
_VALID = {
    "params": {"v": _floats(0.5, 4.0), "c": _floats(0.5, 2.0)},
    "sample": {
        "n": st.integers(1, 2000).map(str),
        "strategy": st.sampled_from(["stratified_near_roots", "uniform_angular"]),
        "gamma_floor": st.sampled_from(["0", "1e-6", "0.01", "0.5"]),
        "explosion_threshold": st.sampled_from(["1e8", "100", "1.5", "inf", "nan", "0.5"]),
    },
    "roots": {
        "machs": st.lists(_floats(0.3, 4.0), min_size=1, max_size=3).map(" ".join),
    },
    "diagram": {"m_min": _floats(0.1, 2.0), "m_max": _floats(0.1, 4.0), "m_step": _floats(0.05, 1.0)},
    "grid": {
        "nt": st.sampled_from(["4", "8", "6"]),
        "nx": st.sampled_from(["4", "8"]),
        "ny": st.sampled_from(["8", "16", "12"]),
        "ly": st.sampled_from(["10.0", "14.0"]),
        "gamma": st.sampled_from(["1.0", "2.0", "0.5"]),
    },
    "solve": {
        "source_plus": st.sampled_from(["builtin", "@DIR@/p.bin", "@DIR@/p.csv"]),
        "source_minus": st.sampled_from(["builtin", "@DIR@/m.bin", "@DIR@/m.csv"]),
        "s": st.sampled_from(["0", "0.5", "nan", "inf"]),
        "sigma_floor": st.sampled_from(["1e-12", "0", "nan", "-1"]),
    },
    "sweep": {
        "gammas": st.sampled_from(["1 2", "1 2 4", "1", "0.5 1"]),
        "slack": st.sampled_from(["0.1", "-0.99", "nan", "-1"]),
        "s": st.sampled_from(["0", "nan", "-inf"]),
    },
    "heatmap": {
        "field": st.sampled_from(["ratio", "abs_sigma_big", "abs_weight_sigma", "bogus"]),
        "gamma": st.sampled_from(["1.0", "0.25", "0", "-1", "nan"]),
        "delta_max": st.sampled_from(["3", "0.5", "inf"]),
        "n_delta": st.sampled_from(["1", "3", "0", "-1"]),
        "n_eta": st.sampled_from(["1", "4", "0"]),
    },
}
_MALFORMED = st.sampled_from(["many", "", "1..2", "2.5.", "bogus", "1 two"])

# in-range values only: a config drawn from these, with no mutation, runs its
# study to the end.  mach stays above sqrt(2) whichever of v and c is drawn
# (the defaults are v = 2, c = 1), the sample keeps points in every certified
# stratum, and a file source fixes the grid to its own (see _cli_configs).
_CLEAN = {
    "params": {"v": _floats(3.0, 4.0), "c": _floats(0.8, 1.3)},
    "sample": {
        "n": st.integers(8, 2000).map(str),
        "strategy": st.just("stratified_near_roots"),
        "gamma_floor": st.sampled_from(["1e-6", "0.01"]),
        "explosion_threshold": st.just("1e8"),
    },
    "roots": {"machs": st.lists(st.one_of(_floats(0.3, 1.3), _floats(1.5, 4.0)), min_size=1, max_size=3).map(" ".join)},
    "diagram": {"m_min": _floats(0.1, 2.0), "m_max": _floats(2.0, 4.0), "m_step": _floats(0.05, 1.0)},
    "grid": {
        "nt": st.sampled_from(["4", "8"]),
        "nx": st.sampled_from(["4", "8"]),
        "ny": st.sampled_from(["8", "16"]),
        "ly": st.sampled_from(["10.0", "14.0"]),
        "gamma": st.sampled_from(["1.0", "2.0"]),
    },
    "solve": {key: _VALID["solve"][key] for key in ("source_plus", "source_minus")},
    "sweep": {"gammas": st.sampled_from(["1 2", "1 2 4"]), "slack": st.just("0.1")},
    "heatmap": {
        "field": st.sampled_from(["ratio", "abs_sigma_big", "abs_weight_sigma"]),
        "gamma": st.sampled_from(["1.0", "0.25"]),
        "delta_max": st.sampled_from(["3", "0.5"]),
        "n_delta": st.sampled_from(["1", "3"]),
        "n_eta": st.sampled_from(["1", "4"]),
    },
}


@st.composite
def _cli_configs(draw):
    # most examples stay clean, so that every study often reaches its artifacts
    clean = draw(st.integers(0, 5)) != 0
    sections = {
        section: {key: draw(keys[key]) for key in sorted(keys) if draw(st.booleans())}
        for section, keys in (_CLEAN if clean else _VALID).items()
    }
    # the study is a hash of the drawn entries: drawn directly, it would cluster
    # on a few studies (hypothesis favours early choices and mutates old examples)
    studies = ["roots", "diagram", "certify", "solve", "sweep"]
    study = studies[zlib.crc32(repr(sections).encode()) % len(studies)]
    sections = {"run": {"study": study}, **sections}
    sections["params"].setdefault("v", "2.0")
    sections["params"].setdefault("c", "1.0")
    mutations = ["unknown_section", "unknown_key", "malformed", "missing", "duplicate"]
    mutation = "none" if clean else draw(st.sampled_from(["none"] * len(mutations) + mutations))
    section = draw(st.sampled_from(sorted(_VALID)))
    if mutation == "unknown_key":
        sections[section][draw(st.sampled_from(["gama_floor", "c", "nn", "Lt"]))] = "1"
    elif mutation == "malformed":
        sections[section][draw(st.sampled_from(sorted(_VALID[section])))] = draw(_MALFORMED)
    elif mutation == "missing":
        del sections["params"][draw(st.sampled_from(["v", "c"]))]
    # the source files the config may name, each on its own small grid; a
    # clean config that names one runs on that grid
    file_grids = {
        name: GridSpec(nt=draw(st.sampled_from([4, 8])), nx=8, ny=8, Lt=math.tau, Lx=math.tau, Ly=10.0)
        for name in ("p", "m")
    }
    if clean and set(sections["solve"].values()) - {"builtin"}:
        file_grids["m"] = file_grids["p"]
        sections["grid"] = {"nt": str(file_grids["p"].nt), "nx": "8", "ny": "8", "ly": "10.0"}
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items()) for name, body in sections.items()
    )
    if mutation == "unknown_section":
        text += f"[{draw(st.sampled_from(['sampel', 'Params', 'root']))}]\nn = 1\n"
    elif mutation == "duplicate":
        text += f"[{section}]\n"
    return study, text, file_grids


def _write_sources(directory: pathlib.Path, file_grids: dict) -> None:
    for name, grid in file_grids.items():
        raw = cli.builtin_sources(grid)[name == "m"]
        fileio.write_source_bin(directory / f"{name}.bin", raw, grid)
        fileio.write_source_csv(directory / f"{name}.csv", raw, grid)


@settings(max_examples=150)
@given(_cli_configs())
def test_any_config_gives_a_clean_exit_or_strict_artifacts(case):
    study, text, file_grids = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "src").mkdir()
        _write_sources(tmp / "src", file_grids)
        path = tmp / "run.cfg"
        path.write_text(text.replace("@DIR@", str(tmp / "src")))
        out_dir = tmp / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([study, "--config", str(path), "--out", str(out_dir)])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc in (2, 3):
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("vfs: "), (text, lines)
        if rc == 2:
            assert not (out_dir.exists() and any(out_dir.iterdir())), (text, sorted(out_dir.iterdir()))
        if rc in (0, 1):
            for artifact in out_dir.glob("*.json"):
                json.loads(artifact.read_text(), parse_constant=_reject_constant)
