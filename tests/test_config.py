"""Run configuration: one schema, strict rejection, README in step with it."""

import inspect
import math
import pathlib
import re

import pytest

from vsheet.cli import main, stability_diagram
from vsheet.config import SCHEMA, load_config, mach_ladder
from vsheet.front import estimate_sweep, solve_front
from vsheet.hemisphere import SampleStrategy, certify_sandwich, certify_weight_bounds, sample_hemisphere

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

ROOTS = "[run]\nstudy = roots\n\n[params]\nv = 2.0\nc = 1.0\n\n[roots]\nmachs = 2.0\n"


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _reference() -> str:
    text = README.read_text()
    start = text.index("## Configuration reference")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def test_defaults_of_a_minimal_config(tmp_path):
    cfg = load_config(_write(tmp_path, "[params]\nv = 2.0\nc = 1.0\n"), study="solve")
    assert (cfg.seed, cfg.out_dir, cfg.heatmap) == (0, pathlib.Path("out"), None)
    assert cfg.sample == {
        "n": 20000, "strategy": SampleStrategy.STRATIFIED_NEAR_ROOTS,
        "gamma_floor": 1e-6, "explosion_threshold": 1e8,
    }
    g = cfg.grid
    assert (g.nt, g.nx, g.ny, g.Ly, g.gamma) == (64, 64, 32, 20.0, 1.0)
    assert g.Lt == g.Lx == 6.283185307179586
    assert cfg.solve == {"s": 0.0, "sigma_floor": 1e-12, "source_plus": "builtin", "source_minus": "builtin"}
    assert cfg.sweep == {"gammas": (1.0, 2.0, 4.0, 8.0), "s": 0.0, "slack": 0.1}
    assert cfg.roots == {"machs": (0.5, 1.0, 1.5, 2.0, 3.0)}
    assert cfg.diagram == {"m_min": 0.5, "m_max": 3.5, "m_step": 0.05}


@pytest.mark.parametrize(
    "function, parameter, section, key",
    [
        (sample_hemisphere, "gamma_floor", "sample", "gamma_floor"),
        (sample_hemisphere, "seed", "run", "seed"),
        (certify_sandwich, "explosion_threshold", "sample", "explosion_threshold"),
        (certify_sandwich, "seed", "run", "seed"),
        (certify_weight_bounds, "explosion_threshold", "sample", "explosion_threshold"),
        (solve_front, "s", "solve", "s"),
        (solve_front, "sigma_floor", "solve", "sigma_floor"),
        (estimate_sweep, "s", "sweep", "s"),
        (estimate_sweep, "slack", "sweep", "slack"),
    ],
    ids=lambda item: getattr(item, "__name__", item),
)
def test_library_defaults_are_the_schema_defaults(function, parameter, section, key):
    # a library call without the keyword behaves as vfs does with a config that leaves the key out
    default = inspect.signature(function).parameters[parameter].default
    assert (type(default), default) == (type(SCHEMA[section][key]), SCHEMA[section][key])


def test_grid_keys_are_case_insensitive_and_heatmap_defaults(tmp_path):
    text = "[params]\nv = 2.0\nc = 1.0\n[grid]\nLy = 14.0\nlt = 3.0\n[heatmap]\nn_eta = 3\n"
    cfg = load_config(_write(tmp_path, text), study="solve")
    assert (cfg.grid.Ly, cfg.grid.Lt) == (14.0, 3.0)
    assert cfg.heatmap["n_eta"] == 3 and cfg.heatmap["field"] == "ratio" and cfg.heatmap["n_delta"] == 41


def test_semicolon_and_hash_start_inline_comments(tmp_path):
    text = "[params]   ; physical\nv = 2.0   # half jump\nc = 1.0 ; sound speed\n[sample]\nstrategy = uniform_angular ; or stratified_near_roots\n"
    cfg = load_config(_write(tmp_path, text), study="certify")
    assert cfg.params.c == 1.0 and cfg.sample["strategy"] is SampleStrategy.UNIFORM_ANGULAR


# Each of these loaded (or crashed with a traceback) before the schema existed.
REJECTED = {
    "unknown_section": ("[sampel]\nn = 1000\n", "[sampel]"),
    "unknown_key": ("[sample]\ngama_floor = 0.5\n", "[sample] gama_floor"),
    "malformed_int": ("[sample]\nn = many\n", "[sample] n"),
    "bad_strategy": ("[sample]\nstrategy = bogus\n", "[sample] strategy"),
    "missing_required": (None, "[params] c"),
    "duplicate_section": ("[sample]\nn = 10\n[sample]\nn = 20\n", "sample"),
    "default_section": ("[DEFAULT]\nn = 10\n", "[DEFAULT]"),
    "removed_roots_c": ("c = 2\n", "[roots] c"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_config_is_one_line_exit_2(tmp_path, capsys, case):
    extra, named = REJECTED[case]
    # ROOTS ends inside [roots], so a bare key line lands there
    text = ROOTS + extra if extra else ROOTS.replace("c = 1.0\n", "")
    path = _write(tmp_path, text)
    assert main(["roots", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("vfs: "), captured.err
    assert str(path) in err[0] and named in err[0]
    assert not (tmp_path / "out").exists()


CERTIFY = "[run]\nstudy = certify\n[params]\nv = 2.0\nc = 1.0\n[sample]\nn = 500\n[heatmap]\n"


# Each of these computed and wrote certificates.json before [heatmap] was checked at load time.
@pytest.mark.parametrize(
    "line, named",
    [
        ("field = bogus", "[heatmap] field = 'bogus' is not one of abs_sigma_big, abs_weight_sigma, ratio"),
        ("gamma = 0", "[heatmap] gamma"),
        ("gamma = nan", "[heatmap] gamma"),
        ("delta_max = inf", "[heatmap] delta_max must be finite, got inf"),
        ("n_delta = -1", "[heatmap] n_delta must be at least 1, got -1"),
        ("n_eta = 0", "[heatmap] n_eta must be at least 1, got 0"),
    ],
    ids=["bogus_field", "zero_gamma", "nan_gamma", "infinite_range", "negative_n_delta", "zero_n_eta"],
)
def test_heatmap_is_checked_before_anything_is_written(tmp_path, capsys, line, named):
    path = _write(tmp_path, CERTIFY + line + "\n")
    assert main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"vfs: {path}: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_is_rejected_by_name(tmp_path):
    with pytest.raises(ValueError, match=r"\[run\] seed must be nonnegative, got -1$"):
        load_config(_write(tmp_path, ROOTS.replace("[run]\n", "[run]\nseed = -1\n")))
    with pytest.raises(ValueError, match=r"^--seed must be nonnegative, got -2$"):
        load_config(_write(tmp_path, ROOTS), seed_override=-2)
    assert load_config(_write(tmp_path, ROOTS), seed_override=0).seed == 0


def test_percent_in_a_value_is_literal(tmp_path):
    cfg = load_config(_write(tmp_path, "[run]\nout = runs/50%\n[params]\nv = 2.0\nc = 1.0\n"), study="roots")
    assert cfg.out_dir == pathlib.Path("runs/50%")


@pytest.mark.parametrize(
    "text, match",
    [
        ("[params]\nv = 2.0\nc\n", "parsing errors"),
        ("v = 2.0\n", "no section headers"),
        ("[params]\nv = 2.0\nc = 1.0\nv = 3.0\n", "option 'v'"),
        ("[params]\nv = 2.0\nc = 1.0\n[sweep]\ngammas = 1 two\n", r"\[sweep\] gammas = '1 two' is not a list of numbers"),
        ("[params]\nv = 2.0\nc = fast\n", r"\[params\] c = 'fast' is not a number"),
        ("[Params]\nv = 2.0\nc = 1.0\n", r"unknown section \[Params\]"),
    ],
)
def test_malformed_file_names_the_file_in_one_line(tmp_path, text, match):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match=match) as err:
        load_config(path, study="roots")
    assert str(path) in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize(
    "line, named",
    [
        ("m_max = inf", "m_max must be finite, got inf"),
        ("m_step = 0", "m_step must be finite and positive, got 0.0"),
        ("m_step = nan", "m_step must be finite and positive, got nan"),
    ],
)
def test_diagram_range_must_be_finite(tmp_path, line, named):
    path = _write(tmp_path, f"[params]\nv = 2.0\nc = 1.0\n[diagram]\n{line}\n")
    with pytest.raises(ValueError) as err:
        load_config(path, study="diagram")
    assert str(err.value) == f"{path}: [diagram] {named}"


@pytest.mark.parametrize(
    "lines, given",
    [("m_min = 3\nm_max = 1", "m_min = 3.0, m_max = 1.0"), ("m_min = -2\nm_max = 0", "m_min = -2.0, m_max = 0.0")],
    ids=["reversed", "nonpositive"],
)
def test_a_diagram_range_with_no_row_is_rejected(tmp_path, lines, given):
    path = _write(tmp_path, f"[params]\nv = 2.0\nc = 1.0\n[diagram]\n{lines}\n")
    with pytest.raises(ValueError) as err:
        load_config(path, study="diagram")
    assert str(err.value) == (
        f"{path}: [diagram] m_max must be positive and at least m_min, got {given}"
    )


def test_a_rounded_mach_ladder_with_no_positive_mach_is_rejected(tmp_path):
    # m_max > 0, but the ladder rounds to the machs -1 and 0
    path = _write(tmp_path, "[params]\nv = 2.0\nc = 1.0\n[diagram]\nm_min = -1\nm_max = 0.1\nm_step = 1\n")
    assert mach_ladder(-1.0, 0.1, 1.0) == []
    with pytest.raises(ValueError) as err:
        load_config(path, study="diagram")
    assert str(err.value) == (
        f"{path}: [diagram] the ladder m_min + i * m_step has no positive mach up to m_max, "
        "got m_min = -1.0, m_max = 0.1, m_step = 1.0"
    )


@pytest.mark.parametrize("step", ["1e-7", "1e-310"])
def test_a_diagram_range_of_too_many_steps_is_rejected(tmp_path, step):
    path = _write(tmp_path, f"[params]\nv = 2.0\nc = 1.0\n[diagram]\nm_step = {step}\n")
    with pytest.raises(ValueError, match=r"\[diagram\] \(m_max - m_min\) / m_step must be at most 1000000$"):
        load_config(path, study="diagram")


def test_the_diagram_rows_are_the_mach_ladder(tmp_path):
    path = _write(tmp_path, "[params]\nv = 2.0\nc = 1.0\n[diagram]\nm_min = -0.3\n")
    diagram = load_config(path, study="diagram").diagram
    machs = mach_ladder(**diagram)
    # rungs -0.3 + i * 0.05 up to m_max = 3.5, the nonpositive ones dropped
    assert machs == [m for m in (-0.3 + i * 0.05 for i in range(77)) if m > 0]
    assert [row["mach"] for row in stability_diagram(1.0, **diagram)] == machs


def test_an_infinite_explosion_threshold_loads(tmp_path):
    # the band limit may be switched off; NaN and values below 1 are rejected (test_cli)
    path = _write(tmp_path, "[params]\nv = 2.0\nc = 1.0\n[sample]\nexplosion_threshold = inf\n")
    assert load_config(path, study="certify").sample["explosion_threshold"] == math.inf


def test_unreadable_config_is_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="cannot be read"):
        load_config(tmp_path, study="roots")


def test_every_schema_key_is_in_the_readme_reference():
    reference = _reference()
    missing = [
        f"[{section}] {key}"
        for section, keys in SCHEMA.items()
        for key in keys
        if f"| `[{section}] {key}` |" not in reference
    ]
    assert not missing
    documented = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", reference, flags=re.M)
    assert len(documented) == sum(len(keys) for keys in SCHEMA.values())


def test_readme_reference_gives_every_default():
    reference = _reference()
    for section, keys in SCHEMA.items():
        for key, default in keys.items():
            row = next(line for line in reference.splitlines() if line.startswith(f"| `[{section}] {key}` |"))
            cell = row.split("|")[3].strip()
            if isinstance(default, type):
                assert cell == "required", row
            elif isinstance(default, tuple):
                assert tuple(float(tok) for tok in cell.strip("`").split()) == default, row
            elif isinstance(default, float):
                assert math.isclose(float(cell.strip("`")), default, rel_tol=0, abs_tol=0), row
            elif isinstance(default, (int, SampleStrategy)) or default:
                assert cell.strip("`") == str(getattr(default, "value", default)), row


def test_readme_reference_states_each_range_in_the_schema_words():
    rows = {line.split("|")[1].strip(): line.split("|")[4] for line in _reference().splitlines() if line.startswith("| `[")}
    checked = []
    for section, keys in SCHEMA.items():
        for key, rule in keys.ranges.items():
            row = rows[f"`[{section}] {key}`"]
            assert rule.words in row.replace("`", ""), (section, key, rule.words, row)
            checked.append(key)
    assert len(checked) == 18


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, keys in SCHEMA.items() for key in keys.ranges],
    ids=lambda name: name,
)
def test_each_range_is_refused_in_its_words(tmp_path, section, key):
    # NaN is outside every float range; -5 is outside every int range
    raw = "-5" if isinstance(SCHEMA[section][key], int) else "nan"
    path = _write(tmp_path, f"[params]\nv = 2.0\nc = 1.0\n[{section}]\n{key} = {raw}\n")
    with pytest.raises(ValueError) as err:
        load_config(path, study="roots")
    value = int(raw) if raw == "-5" else (math.nan,) if isinstance(SCHEMA[section][key], tuple) else math.nan
    assert str(err.value) == f"{path}: [{section}] {key} must be {SCHEMA[section].ranges[key].words}, got {value!r}"


def test_readme_example_config_loads(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), flags=re.S).group(1)
    cfg = load_config(_write(tmp_path, block))
    assert cfg.study == "certify" and cfg.sample["n"] == 1_000_000
    assert cfg.sample["strategy"] is SampleStrategy.STRATIFIED_NEAR_ROOTS
    assert cfg.heatmap["field"] == "ratio" and cfg.heatmap["n_eta"] == 150
