"""Run configuration: one INI-style file, sections per study.

Example::

    [run]
    study = certify
    seed = 7
    out = results

    [params]
    v = 2.0
    c = 1.0

    [sample]
    n = 100000
    strategy = stratified_near_roots   ; or uniform_angular, quasi_random
    gamma_floor = 1e-6

``SCHEMA`` is the one list of sections and keys.  Each key's default fixes
its type; a bare type marks a required key.  An unknown section or key, a
non-empty ``[DEFAULT]``, a value that does not parse, a missing required key
and a malformed file are each rejected with one ``ValueError`` naming the
file and the ``[section] key``; a ``[params]`` or ``[grid]`` value that
``PhysicalParams`` or ``GridSpec`` refuses is reported with the file and
the section.  ``#`` and ``;`` start comments, also after a value; every
other character, ``%`` included, is taken literally.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import math
import pathlib
import sys

from .grids import GridSpec
from .hemisphere import SampleStrategy
from .symbols import PhysicalParams

__all__ = ["RunConfig", "load_config", "mach_ladder", "HeatmapField", "SCHEMA", "STUDIES"]

STUDIES = ("certify", "roots", "solve", "sweep", "diagram")


class HeatmapField(str, enum.Enum):
    """Symbol fields a ``[heatmap]`` scan can draw."""

    ABS_SIGMA_BIG = "abs_sigma_big"
    ABS_WEIGHT_SIGMA = "abs_weight_sigma"
    RATIO = "ratio"


SCHEMA = {
    "run": {"study": "", "seed": 0, "out": "out"},
    "params": {"v": float, "c": float},
    "sample": {
        "n": 20000,
        "strategy": SampleStrategy.STRATIFIED_NEAR_ROOTS,
        "gamma_floor": 1e-6,
        "explosion_threshold": 1e8,
    },
    "grid": {
        "nt": 64, "nx": 64, "ny": 32,
        "lt": math.tau, "lx": math.tau, "ly": 20.0, "gamma": 1.0,
    },
    "solve": {"s": 0.0, "sigma_floor": 1e-12, "source_plus": "builtin", "source_minus": "builtin"},
    "sweep": {"gammas": (1.0, 2.0, 4.0, 8.0), "s": 0.0, "slack": 0.1},
    "roots": {"machs": (0.5, 1.0, 1.5, 2.0, 3.0), "tolerance": 1e-8},
    "diagram": {"m_min": 0.5, "m_max": 3.5, "m_step": 0.05},
    "heatmap": {
        "field": HeatmapField.RATIO, "gamma": 1.0,
        "delta_min": -3.0, "delta_max": 3.0, "n_delta": 41,
        "eta_min": -3.0, "eta_max": 3.0, "n_eta": 41,
    },
    "simple_root": {"radius": 1e-3, "n_points": 360},
}

_EXPECTED = {int: "an integer", float: "a number", tuple: "a list of numbers"}

# A [diagram] range of more steps than this is rejected, before any mach is made.
_MAX_DIAGRAM_STEPS = 1_000_000

# The smallest [roots] mach whose square is a normal double.  Below it M^2 is
# subnormal, and both the closed-form root constant and the located root lose
# digits (at 1e-160 they differ by 3.7e-4 relative).
_MIN_ROOTS_MACH = math.sqrt(sys.float_info.min)


def mach_ladder(m_min: float, m_max: float, m_step: float) -> list[float]:
    """The positive machs ``m_min + i * m_step``, ``i = 0 .. round((m_max - m_min) / m_step)``, of a diagram."""
    machs = (m_min + i * m_step for i in range(int(round((m_max - m_min) / m_step)) + 1))
    return [mach for mach in machs if mach > 0]


def _build(path: pathlib.Path, section: str, make, fields: dict):
    """``make(**fields)``, whose ValueError is reported with the file and ``[section]``."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}] {exc}") from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    study: str
    seed: int
    out_dir: pathlib.Path
    params: PhysicalParams
    sample: dict
    grid: GridSpec
    solve: dict
    sweep: dict
    roots: dict
    diagram: dict
    heatmap: dict | None
    simple_root: dict
    # whether the file has a [grid] section, which source file headers must then match
    grid_given: bool


def _convert(kind: type, raw: str):
    if kind is tuple:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    return kind(raw)


def _read(path: pathlib.Path) -> tuple[dict, set]:
    """Every ``SCHEMA`` section as a dict of typed values, plus the names of the sections present."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path} cannot be read: {getattr(exc, 'strerror', None) or exc}") from None
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text, source=str(path))
        if cp.defaults():
            raise ValueError(f"{path}: [DEFAULT] must be empty; put each key under its own section")
        given = {section: dict(cp[section]) for section in cp.sections()}
    except configparser.Error as exc:
        message = " ".join(str(exc).split())
        raise ValueError(message if str(path) in message else f"{path}: {message}") from None
    for section, keys in given.items():
        if section not in SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]; known sections: {', '.join(SCHEMA)}")
        for key in keys:
            if key not in SCHEMA[section]:
                raise ValueError(f"{path}: unknown key [{section}] {key}; known keys: {', '.join(SCHEMA[section])}")
    values = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        for key, default in keys.items():
            kind = default if isinstance(default, type) else type(default)
            raw = given.get(section, {}).get(key)
            if raw is None:
                if kind is default:
                    raise ValueError(f"{path}: [{section}] {key} is required")
                values[section][key] = default
                continue
            try:
                values[section][key] = _convert(kind, raw)
            except ValueError:
                expected = _EXPECTED.get(kind) or "one of " + ", ".join(m.value for m in kind)
                raise ValueError(f"{path}: [{section}] {key} = {raw!r} is not {expected}") from None
    return values, set(given)


def load_config(
    path,
    study: str | None = None,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Parse and validate a run configuration file against ``SCHEMA``."""
    path = pathlib.Path(path)
    sections, present = _read(path)
    run = sections["run"]
    cfg_study = run["study"] or None
    if study and cfg_study and study != cfg_study:
        raise ValueError(f"config requests study {cfg_study!r} but the command line says {study!r}")
    chosen = study or cfg_study
    if chosen not in STUDIES:
        raise ValueError(f"study must be one of {STUDIES}, got {chosen!r}")
    diagram = sections["diagram"]
    if not (diagram["m_step"] > 0 and all(map(math.isfinite, diagram.values()))):
        raise ValueError(f"{path}: [diagram] m_min, m_max and m_step must be finite, m_step positive")
    if not 0.0 < diagram["m_max"] >= diagram["m_min"]:
        # such a range gives no row with mach > 0
        raise ValueError(
            f"{path}: [diagram] m_max must be positive and at least m_min, "
            f"got m_min = {diagram['m_min']!r}, m_max = {diagram['m_max']!r}"
        )
    if not (diagram["m_max"] - diagram["m_min"]) / diagram["m_step"] <= _MAX_DIAGRAM_STEPS:
        raise ValueError(f"{path}: [diagram] (m_max - m_min) / m_step must be at most {_MAX_DIAGRAM_STEPS}")
    if not mach_ladder(**diagram):
        # m_max > 0, but the ladder's last rung rounds to a mach <= 0
        raise ValueError(
            f"{path}: [diagram] the ladder m_min + i * m_step has no positive mach up to m_max, "
            f"got m_min = {diagram['m_min']!r}, m_max = {diagram['m_max']!r}, m_step = {diagram['m_step']!r}"
        )
    heatmap = sections["heatmap"]
    ranges = [heatmap[key] for key in ("gamma", "delta_min", "delta_max", "eta_min", "eta_max")]
    if not (all(map(math.isfinite, ranges)) and heatmap["gamma"] > 0):
        raise ValueError(f"{path}: [heatmap] gamma and the delta and eta ranges must be finite, gamma positive")
    if min(heatmap["n_delta"], heatmap["n_eta"]) < 1:
        raise ValueError(f"{path}: [heatmap] n_delta and n_eta must be at least 1")
    # a comparison written as "in range" is False for NaN, so NaN is rejected with the rest
    for section, key, ok, requirement in (
        ("run", "seed", lambda x: x >= 0, "nonnegative"),
        ("sample", "n", lambda x: x >= 1, "at least 1"),
        ("sample", "gamma_floor", lambda x: 0.0 <= x < 1.0, "in [0, 1)"),
        ("sample", "explosion_threshold", lambda x: x >= 1.0, "at least 1 (inf allowed)"),
        ("solve", "sigma_floor", lambda x: 0.0 <= x < math.inf, "finite and nonnegative"),
        ("sweep", "gammas", lambda x: len(x) >= 2 and all(1.0 <= g < math.inf for g in x),
         "a list of at least two values, each finite and at least 1"),
        ("sweep", "slack", lambda x: -1.0 < x < math.inf, "finite and greater than -1"),
        ("roots", "machs", lambda x: len(x) >= 1 and all(0.0 < m < math.inf for m in x),
         "a list of at least one value, each finite and positive"),
        ("roots", "tolerance", lambda x: 0.0 < x < math.inf, "finite and positive"),
        ("simple_root", "radius", lambda x: 0.0 < x < math.inf, "finite and positive"),
        ("simple_root", "n_points", lambda x: x >= 1, "at least 1"),
    ):
        value = sections[section][key]
        if not ok(value):
            raise ValueError(f"{path}: [{section}] {key} must be {requirement}, got {value!r}")
    for mach in sections["roots"]["machs"]:
        if mach < _MIN_ROOTS_MACH:
            raise ValueError(
                f"{path}: [roots] machs must be at least {_MIN_ROOTS_MACH!r}, where M^2 turns subnormal, got {mach!r}"
            )
    if seed_override is not None and seed_override < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed_override!r}")
    return RunConfig(
        study=chosen,
        seed=run["seed"] if seed_override is None else seed_override,
        out_dir=pathlib.Path(out_override or run["out"]),
        params=_build(path, "params", PhysicalParams, sections["params"]),
        sample=sections["sample"],
        grid=_build(
            path, "grid", GridSpec, {f.name: sections["grid"][f.name.lower()] for f in dataclasses.fields(GridSpec)}
        ),
        solve=sections["solve"],
        sweep=sections["sweep"],
        roots=sections["roots"],
        diagram=diagram,
        heatmap=heatmap if "heatmap" in present else None,
        simple_root=sections["simple_root"],
        grid_given="grid" in present,
    )
