"""Tooling: the example-source script writes a pair that ``vfs solve`` accepts."""

import os
import pathlib
import subprocess
import sys

import vsheet
from vsheet import fileio
from vsheet.cli import main

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_example_source.py"


def test_make_example_source_feeds_vfs_solve(tmp_path):
    src = str(pathlib.Path(vsheet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "src"), "--nt", "16", "--nx", "16", "--ny", "16"],
        env=env, capture_output=True, text=True, check=True,
    )
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(
        f"[run]\nstudy = solve\nout = {tmp_path / 'out'}\n\n[params]\nv = 2.0\nc = 1.0\n\n"
        f"[solve]\nsource_plus = {tmp_path / 'src' / 'plus.bin'}\nsource_minus = {tmp_path / 'src' / 'minus.csv'}\n"
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    header, f = fileio.read_front_solution(tmp_path / "out" / "front")
    assert (header["nt"], header["nx"]) == (16, 16) and f.shape == (16, 16)
    assert abs(f).max() > 0
