"""Binary/CSV source formats and solution serialization round trips."""

import json
import pathlib
import re

import numpy as np
import pytest

from vsheet import fileio
from vsheet.hemisphere import BoundCertificate
from vsheet.front import Side, build_g, solve_front, transform_source
from vsheet.grids import GridSpec
from vsheet.symbols import PhysicalParams

M2 = PhysicalParams(v=2.0, c=1.0)
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _grid(ny=16):
    return GridSpec(nt=8, nx=8, ny=ny, Lt=2 * np.pi, Lx=2 * np.pi, Ly=12.0, gamma=1.0)


def _raw(grid, seed=0):
    rng = np.random.default_rng(seed)
    y, _ = grid.quadrature()
    base = rng.standard_normal((grid.nt, grid.nx, grid.ny))
    return base * np.exp(-1.8 * y)[None, None, :]


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        g = _grid()
        raw = _raw(g)
        path = tmp_path / "src.bin"
        fileio.write_source_bin(path, raw, g)
        back, g2 = fileio.read_source_bin(path)
        assert g2 == g
        # payload is stored complex64: quantization at single precision
        assert np.max(np.abs(back - raw)) < 1e-6 * np.max(np.abs(raw))

    def test_write_is_deterministic(self, tmp_path):
        g = _grid()
        raw = _raw(g, seed=1)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        fileio.write_source_bin(a, raw, g)
        fileio.write_source_bin(b, raw, g)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        g = _grid()
        path = tmp_path / "bad.bin"
        fileio.write_source_bin(path, _raw(g), g)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            fileio.read_source_bin(path)


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        g = _grid(ny=8)
        raw = _raw(g, seed=2).astype(complex)
        path = tmp_path / "src.csv"
        fileio.write_source_csv(path, raw, g)
        back, g2 = fileio.read_source_csv(path)
        assert g2 == g
        # repr round-trips doubles exactly
        np.testing.assert_array_equal(back, raw)

    def test_header_line(self, tmp_path):
        g = _grid(ny=8)
        path = tmp_path / "src.csv"
        fileio.write_source_csv(path, _raw(g, seed=3), g)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# vfs-source ")
        assert f"ny={g.ny}" in first

    @pytest.mark.parametrize("name", ["s.bin", "s.csv"])
    def test_non_finite_payload_rejected_with_file_name(self, tmp_path, name):
        g = _grid(ny=8)
        raw = _raw(g, seed=2)
        raw[1, 2, 3] = np.nan
        path = tmp_path / name
        write = fileio.write_source_csv if name.endswith(".csv") else fileio.write_source_bin
        write(path, raw, g)
        with pytest.raises(ValueError, match=f"{path}.*non-finite"):
            fileio.read_source(path)

    def test_dispatch_by_extension(self, tmp_path):
        g = _grid(ny=8)
        raw = _raw(g, seed=4)
        bin_path = tmp_path / "s.bin"
        csv_path = tmp_path / "s.csv"
        fileio.write_source_bin(bin_path, raw, g)
        fileio.write_source_csv(csv_path, raw, g)
        from_bin, _ = fileio.read_source(bin_path)
        from_csv, _ = fileio.read_source(csv_path)
        assert np.max(np.abs(from_bin - from_csv)) < 1e-6


class TestSourceFilesAreWhole:
    """A cut or partial source file is rejected in one line naming the path."""

    @pytest.mark.parametrize("keep", [20, 44, -8])
    def test_truncated_binary_names_the_path(self, tmp_path, keep):
        g = _grid()
        path = tmp_path / "cut.bin"
        raw = _raw(g)
        raw[0, 0, 0] = np.nan  # the size is named before the non-finite sample
        fileio.write_source_bin(path, raw, g)
        path.write_bytes(path.read_bytes()[:keep])
        length = path.stat().st_size
        if keep == 20:
            message = f"source file {path} holds 20 bytes, shorter than its 44-byte header"
        else:
            message = f"source file {path} holds {length} bytes, expected {44 + 8 * 8 * 16 * 8} for nt=8, nx=8, ny=16"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}\Z"):
            fileio.read_source(path)

    @pytest.mark.parametrize("read", [fileio.read_source, fileio.read_source_bin])
    def test_a_binary_cut_after_its_size_was_checked_is_rejected(self, tmp_path, monkeypatch, read):
        g = _grid()
        path = tmp_path / "cut.bin"
        fileio.write_source_bin(path, _raw(g), g)
        whole = path.stat()
        path.write_bytes(path.read_bytes()[:-8])
        # the size check saw the whole file; the payload then ends early
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: whole)
        with pytest.raises(ValueError, match=rf"^source file {re.escape(str(path))} was cut while it was read\Z"):
            read(path)

    def _csv_lines(self, tmp_path):
        g = _grid(ny=8)
        path = tmp_path / "m.csv"
        fileio.write_source_csv(path, _raw(g, seed=5), g)
        return path, path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda lines: lines[:100], "holds 98 of 512 samples"),
            (lambda lines: lines + lines[2:3], "line 515: sample \\(0, 0, 0\\) appears twice"),
            (lambda lines: lines[:2] + ["-1" + lines[-1][lines[-1].index(","):]] + lines[2:-1], "outside the grid"),
            (lambda lines: lines[:5] + ["0,0,x,1.0,0.0\n"] + lines[5:], "line 6: malformed row"),
            (lambda lines: lines[:1], "unexpected CSV columns"),
            (lambda lines: ["# vfs-source nt=8\n"] + lines[1:], "bad metadata line"),
        ],
    )
    def test_partial_csv_names_the_path(self, tmp_path, edit, match):
        path, lines = self._csv_lines(tmp_path)
        path.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match=match) as err:
            fileio.read_source(path)
        assert str(path) in str(err.value) and "\n" not in str(err.value)

    @pytest.mark.parametrize("name", ["plus.bin", "minus.csv"])
    def test_vfs_solve_on_a_cut_file_is_one_line_exit_2(self, tmp_path, capsys, name):
        from vsheet.cli import main

        g = _grid()
        path = tmp_path / name
        write = fileio.write_source_csv if name.endswith(".csv") else fileio.write_source_bin
        write(path, _raw(g), g)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            f"[run]\nstudy = solve\nout = {tmp_path / 'o'}\n\n[params]\nv = 2.0\nc = 1.0\n\n"
            f"[solve]\nsource_plus = {path}\nsource_minus = {path}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("vfs: source file ") and str(path) in err[0]


class TestSourceChecksKeepTheirOrder:
    """``read_source``'s checks after the size (see above), each with its full message: non-finite, then imaginary."""

    # 256 t rows of 64 x 16 complex64 samples: a 2 MB payload, more than one read block
    BIG = GridSpec(nt=256, nx=64, ny=16, Lt=2 * np.pi, Lx=2 * np.pi, Ly=12.0, gamma=1.0)

    @staticmethod
    def _raises(path, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}\Z"):
            fileio.read_source(path)

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, -np.inf)],
        ids=["nan", "inf", "-inf", "inf-imaginary", "-inf-imaginary"],
    )
    def test_a_non_finite_last_block_is_named_before_an_imaginary_first_block(self, tmp_path, value):
        g = self.BIG
        raw = _raw(g).astype(complex)
        raw[0, 0, 0] += 1j
        raw[-1, -1, -1] = value
        path = tmp_path / "late_nan.bin"
        fileio.write_source_bin(path, raw, g)
        assert path.stat().st_size > 2 * 1024**2
        self._raises(path, f"source file {path} holds non-finite samples")

    @pytest.mark.parametrize("where", [(0, 0, 0), (-1, -1, -1)], ids=["first-row", "last-row"])
    def test_an_imaginary_part_in_any_block_is_named(self, tmp_path, where):
        g = self.BIG
        raw = _raw(g).astype(complex)
        raw[where] += 1e-30j
        path = tmp_path / "imaginary.bin"
        fileio.write_source_bin(path, raw, g)
        self._raises(path, f"source file {path} has a non-zero imaginary part; sources are real")

    def test_a_negative_zero_imaginary_part_is_real(self, tmp_path):
        g = _grid()
        raw = _raw(g).astype(complex)
        raw.imag[...] = -0.0
        path = tmp_path / "signed_zero.bin"
        fileio.write_source_bin(path, raw, g)
        back, _ = fileio.read_source(path)
        assert np.array_equal(back, raw.real.astype(np.float32))

    def test_a_csv_imaginary_part_keeps_its_message(self, tmp_path):
        g = _grid(ny=8)
        raw = _raw(g).astype(complex)
        raw[3, 4, 5] += 0.5j
        path = tmp_path / "imaginary.csv"
        fileio.write_source_csv(path, raw, g)
        self._raises(path, f"source file {path} has a non-zero imaginary part; sources are real")

    def test_a_csv_non_finite_sample_is_named_before_an_imaginary_one(self, tmp_path):
        g = _grid(ny=8)
        raw = _raw(g).astype(complex)
        raw[0, 0, 0] += 0.5j
        raw[-1, -1, -1] = -np.inf
        path = tmp_path / "late_inf.csv"
        fileio.write_source_csv(path, raw, g)
        self._raises(path, f"source file {path} holds non-finite samples")


    def test_a_csv_infinite_imaginary_part_is_read_as_written(self, tmp_path):
        # float("0.0") + 1j * float("inf") is (nan+infj): 1j * inf has a 0 * inf real part
        g = _grid(ny=8)
        raw = _raw(g).astype(complex)
        raw[7, 7, 7] = complex(0.0, np.inf)
        path = tmp_path / "inf_imaginary.csv"
        fileio.write_source_csv(path, raw, g)
        assert "7,7,7,0.0,inf" in path.read_text().splitlines()
        back, _ = fileio.read_source_csv(path)
        assert back[7, 7, 7].real == 0.0 and back[7, 7, 7].imag == np.inf
        np.testing.assert_array_equal(back, raw)
        self._raises(path, f"source file {path} holds non-finite samples")


class TestSolutionFiles:
    def _solution(self, params=M2):
        g = _grid()
        raw = _raw(g, seed=5)
        fp = transform_source(raw, Side.PLUS, g)
        fm = transform_source(0.3 * raw, Side.MINUS, g)
        return solve_front(build_g(fp, fm, params), g, params, s=0.5)

    @pytest.mark.parametrize("mach, aniso", [(2.0, True), (1.0, False)])
    def test_sidecar_keys_are_the_readme_set(self, tmp_path, mach, aniso):
        _, json_path = fileio.write_front_solution(tmp_path / "front", self._solution(PhysicalParams(v=mach, c=1.0)))
        meta = json.loads(json_path.read_text())
        norms = {"plain_s0.5", "plain_s1.5"} | ({"aniso_s1.5"} if aniso else set())
        report = {"g_plain_norm", "symbol_floor"} | ({"front_aniso_over_g"} if aniso else set())
        assert set(meta) == {"s", "regime", "grid", "norms", "report"}
        assert (set(meta["norms"]), set(meta["report"])) == (norms, report)
        text = README.read_text()
        formats = text[text.index("## File formats") :]
        sidecar = formats[formats.index("`front.json`") : formats.index("- **Certificates")]
        named = {"s", "regime", "grid", "norms", "report", "plain_s<s>", "plain_s<s+1>", "aniso_s<s+1>",
                 "g_plain_norm", "symbol_floor", "front_aniso_over_g"}
        assert named <= set(re.findall(r"`([^`]+)`", sidecar))

    def test_round_trip_and_sidecar(self, tmp_path):
        sol = self._solution()
        bin_path, json_path = fileio.write_front_solution(tmp_path / "front", sol)
        meta = json.loads(json_path.read_text())
        assert meta["regime"] == "WeaklyStable"
        assert meta["s"] == 0.5
        assert "plain_s0.5" in meta["norms"]
        assert "aniso_s1.5" in meta["norms"]
        assert meta["grid"]["nt"] == 8
        assert set(meta["grid"]) == set(fileio._HEADER.names)
        assert "front_aniso_over_g" in meta["report"]

    def test_binary_holds_the_physical_front_as_complex64(self, tmp_path):
        sol = self._solution()
        bin_path, _ = fileio.write_front_solution(tmp_path / "front", sol)
        blob = bin_path.read_bytes()
        header_dtype = np.dtype(
            [("nt", "<i4"), ("nx", "<i4"), ("Lt", "<f8"), ("Lx", "<f8"), ("gamma", "<f8")]
        )
        header = np.frombuffer(blob[: header_dtype.itemsize], dtype=header_dtype)[0]
        g = sol.grid
        assert (int(header["nt"]), int(header["nx"])) == (g.nt, g.nx)
        assert (float(header["Lt"]), float(header["Lx"]), float(header["gamma"])) == (g.Lt, g.Lx, g.gamma)
        payload = np.frombuffer(blob[header_dtype.itemsize :], dtype="<c8").reshape(g.nt, g.nx)
        assert np.array_equal(payload, sol.f.astype(np.complex64))

    def test_read_front_solution_round_trip(self, tmp_path):
        sol = self._solution()
        fileio.write_front_solution(tmp_path / "front", sol)
        header, f = fileio.read_front_solution(tmp_path / "front")
        g = sol.grid
        assert header == {"nt": g.nt, "nx": g.nx, "Lt": g.Lt, "Lx": g.Lx, "gamma": g.gamma}
        assert f.dtype == np.complex64 and f.shape == (g.nt, g.nx)
        assert np.array_equal(f, sol.f.astype(np.complex64))

    @pytest.mark.parametrize("keep", [20, -8])
    def test_read_front_solution_rejects_truncated_file(self, tmp_path, keep):
        bin_path, _ = fileio.write_front_solution(tmp_path / "front", self._solution())
        bin_path.write_bytes(bin_path.read_bytes()[:keep])
        with pytest.raises(ValueError) as err:
            fileio.read_front_solution(tmp_path / "front")
        message = str(err.value)
        assert str(bin_path) in message and "\n" not in message

    def test_solution_binary_deterministic(self, tmp_path):
        sol = self._solution()
        p1, _ = fileio.write_front_solution(tmp_path / "one", sol)
        p2, _ = fileio.write_front_solution(tmp_path / "two", sol)
        assert p1.read_bytes() == p2.read_bytes()


class TestJsonCsvHelpers:
    def test_json_stable_key_order(self, tmp_path):
        path = tmp_path / "x.json"
        fileio.write_json(path, {"b": 1, "a": [1.5, None]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_json_is_strict_with_tagged_non_finite_values(self, tmp_path):
        path = tmp_path / "x.json"
        fileio.write_json(path, [{"a": float("inf"), "b": {"c": float("nan"), "d": -np.inf}, "e": 1.0}])

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert json.loads(path.read_text(), parse_constant=reject) == [
            {"a": None, "a_nonfinite": "inf", "b": {"c": None, "c_nonfinite": "nan", "d": None,
                                                     "d_nonfinite": "-inf"}, "e": 1.0}
        ]

    def test_finite_json_unchanged(self, tmp_path):
        payload = {"rows": [{"x": 0.1, "y": None}, (1, 2.5)], "flag": True, "name": "z"}
        path = tmp_path / "x.json"
        fileio.write_json(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_csv_repr_floats(self, tmp_path):
        path = tmp_path / "x.csv"
        fileio.write_csv(path, ["u", "v"], [(0.1, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v"
        u, v = lines[1].split(",")
        assert float(u) == 0.1 and float(v) == 1.0 / 3.0


class TestReadmeFileFormats:
    """README's "File formats" section states what the declarations in ``fileio`` write."""

    @staticmethod
    def _section() -> str:
        text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = text.index("## File formats")
        return " ".join(text[start : text.index("\n## ", start + 1)].split())

    @pytest.mark.parametrize(
        "label, header", [("Source", fileio._HEADER), ("Solution", fileio._SOLUTION_HEADER)], ids=["source", "solution"]
    )
    def test_packed_headers(self, label, header):
        entry = re.search(rf"\*\*{label} `\.bin`\*\* — little-endian packed header `(.*?)` \((\d+) bytes\)", self._section())
        assert entry, f"README gives no packed header with its size for {label} .bin"
        documented = [
            (name, kind)
            for names, kind in re.findall(r"\(([^)]*)\) (\w+)", entry.group(1))
            for name in names.split(", ")
        ]
        assert documented == [(name, header[name].name) for name in header.names]
        assert all(header[name].str[0] == "<" for name in header.names)
        assert int(entry.group(2)) == header.itemsize

    def test_csv_first_line(self, tmp_path):
        g = _grid(ny=8)
        path = tmp_path / "src.csv"
        fileio.write_source_csv(path, _raw(g), g)
        first = path.read_text().splitlines()[0]
        documented = re.search(r"first line `(# vfs-source [^`]*)`", self._section()).group(1)
        assert re.fullmatch(documented.replace("..", r"\S+"), first)
        assert [tok.split("=")[0] for tok in first.split()[2:]] == list(fileio._HEADER.names)

    def test_certificate_keys(self):
        documented = re.search(r"\*\*Certificates `\.json`\*\* — a list of records `\{([^}]*)\}`", self._section())
        keys = documented.group(1).split(", ")
        points = dict(min_point=[1.0, 0.0, 0.0], max_point=[0.0, 0.6, 0.8])
        cert = BoundCertificate("r", 0.5, 2.0, 10, 1e-6, 2.0, True, extras={"radius": 1e-3}, **points)
        assert sorted(cert.to_json_dict()) == sorted(keys)
        # empty extras and absent points are left out
        bare = BoundCertificate("r", 0.5, 2.0, 10, 1e-6, 2.0, True)
        assert sorted(bare.to_json_dict()) == sorted(set(keys) - {"extras", *points})
