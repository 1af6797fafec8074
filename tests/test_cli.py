"""End-to-end CLI: every study, exit codes, deterministic artifacts."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vsheet
from vsheet.cli import main
from vsheet.hemisphere import _CHUNK
from vsheet.symbols import SQRT2, Frequency, PhysicalParams, big_sigma, weight_sigma

M2 = PhysicalParams(v=2.0, c=1.0)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _certify_cfg(tmp_path, out="cert_out", n=2000, extra=""):
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
strategy = stratified_near_roots
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
        cfg = _certify_cfg(tmp_path, n=2 * _CHUNK + 17)
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

    def test_seed_override_changes_sample(self, tmp_path):
        cfg = _certify_cfg(tmp_path)
        main(["certify", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["certify", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "2"])
        a = (tmp_path / "s1" / "certificates.json").read_text()
        b = (tmp_path / "s2" / "certificates.json").read_text()
        assert a != b


class TestRoots:
    def test_all_regimes(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "roots.cfg",
            f"""
[run]
study = roots
out = {tmp_path / 'roots_out'}

[params]
v = 2.0
c = 1.0

[roots]
machs = 0.5 1.0 1.5 2.0 3.0
""",
        )
        assert main(["roots", "--config", cfg]) == 0
        rows = json.loads((tmp_path / "roots_out" / "roots.json").read_text())
        assert [r["mach"] for r in rows] == [0.5, 1.0, 1.5, 2.0, 3.0]
        assert {r["regime"] for r in rows} == {"Elliptic", "WeaklyStable"}
        for r in rows:
            assert r["ok"] and r["rel_error"] < 1e-8

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
        assert capsys.readouterr().err


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


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # both cost a second at startup and only the Halton sampler and the
    # pressure ODE check use them
    src = str(pathlib.Path(vsheet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, vsheet.cli; print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
