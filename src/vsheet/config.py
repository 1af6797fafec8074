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
    strategy = stratified_near_roots   ; or uniform_angular
    gamma_floor = 1e-6

``SCHEMA`` is the one list of sections and keys.  Each key's default fixes its
type; a bare type marks a required key.  A key with a range declares it beside
its default, as a rule and the words that name it.  An unknown section or key,
a non-empty ``[DEFAULT]``, a value that does not parse or is out of its key's
range, a missing required key and a malformed file are each rejected with one
``ValueError`` naming the file and the ``[section] key``; a ``[params]`` or
``[grid]`` value that ``PhysicalParams`` or ``GridSpec`` refuses is reported
with the file and the section.  ``#`` and ``;`` start comments, also after a
value; every other character, ``%`` included, is taken literally.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import math
import pathlib
import sys
from typing import Callable, NamedTuple

from .grids import GridSpec
from .hemisphere import MAX_SAMPLE, SampleStrategy
from .symbols import Frequency, PhysicalParams

__all__ = ["RunConfig", "load_config", "mach_ladder", "HeatmapField", "SCHEMA", "STUDIES"]

STUDIES = ("certify", "roots", "solve", "sweep", "diagram")


class HeatmapField(str, enum.Enum):
    """Symbol fields a ``[heatmap]`` scan can draw."""

    ABS_SIGMA_BIG = "abs_sigma_big"
    ABS_WEIGHT_SIGMA = "abs_weight_sigma"
    RATIO = "ratio"


class _Ranged(NamedTuple):
    """A key's default and its range: a given value must pass ``ok``, which ``words`` state."""

    default: object
    ok: Callable[[object], bool]
    words: str

    def check(self, value, name: str) -> None:
        """ValueError ``<name> must be <words>, got <value>`` unless ``value`` is in range."""
        if not self.ok(value):
            raise ValueError(f"{name} must be {self.words}, got {value!r}")


class _Section(dict):
    """A section's keys and their defaults; ``ranges`` holds the :class:`_Ranged` rule of each key that has one."""

    def __init__(self, **keys):
        super().__init__((key, spec.default if isinstance(spec, _Ranged) else spec) for key, spec in keys.items())
        self.ranges = {key: spec for key, spec in keys.items() if isinstance(spec, _Ranged)}


# The smallest [roots] mach whose square is a normal double.  Below it M^2 is subnormal, and both the
# closed-form root constant and the located root lose digits (at 1e-160 they differ by 3.7e-4 relative).
_MIN_ROOTS_MACH = math.sqrt(sys.float_info.min)

# each range is written as "in range", which is False for NaN, so NaN is out of every range
_FINITE = (lambda x: -math.inf < x < math.inf, "finite")
_POSITIVE = (lambda x: 0.0 < x < math.inf, "finite and positive")
_AT_LEAST_1 = (lambda x: x >= 1, "at least 1")

SCHEMA = {
    "run": _Section(study="", seed=_Ranged(0, lambda x: x >= 0, "nonnegative"), out="out"),
    "params": _Section(v=float, c=float),
    "sample": _Section(
        n=_Ranged(20000, lambda x: 1 <= x <= MAX_SAMPLE, f"from 1 to {MAX_SAMPLE}"),
        strategy=SampleStrategy.STRATIFIED_NEAR_ROOTS,
        gamma_floor=_Ranged(1e-6, lambda x: 0.0 < x < 1.0, "in (0, 1)"),
        explosion_threshold=_Ranged(1e8, lambda x: x >= 1.0, "at least 1 (inf allowed)"),
    ),
    "grid": _Section(nt=64, nx=64, ny=32, lt=math.tau, lx=math.tau, ly=20.0, gamma=1.0),
    "solve": _Section(
        s=0.0, sigma_floor=_Ranged(1e-12, lambda x: 0.0 <= x < math.inf, "finite and nonnegative"),
        source_plus="builtin", source_minus="builtin",
    ),
    "sweep": _Section(
        gammas=_Ranged((1.0, 2.0, 4.0, 8.0),
                       lambda x: len(x) >= 2 and all(1.0 <= g < math.inf for g in x) and all(a < b for a, b in zip(x, x[1:])),
                       "a strictly increasing list of at least two values, each finite and at least 1"),
        s=0.0, slack=_Ranged(0.1, lambda x: -1.0 < x < math.inf, "finite and greater than -1"),
    ),
    "roots": _Section(
        machs=_Ranged((0.5, 1.0, 1.5, 2.0, 3.0), lambda x: len(x) >= 1 and all(_MIN_ROOTS_MACH <= m < math.inf for m in x),
                      f"a list of at least one value, each finite and at least {_MIN_ROOTS_MACH!r} (the least mach with a normal M^2)"),
    ),
    "diagram": _Section(m_min=_Ranged(0.5, *_FINITE), m_max=_Ranged(3.5, *_FINITE), m_step=_Ranged(0.05, *_POSITIVE)),
    "heatmap": _Section(
        field=HeatmapField.RATIO, gamma=_Ranged(1.0, *_POSITIVE),
        delta_min=_Ranged(-3.0, *_FINITE), delta_max=_Ranged(3.0, *_FINITE), n_delta=_Ranged(41, *_AT_LEAST_1),
        eta_min=_Ranged(-3.0, *_FINITE), eta_max=_Ranged(3.0, *_FINITE), n_eta=_Ranged(41, *_AT_LEAST_1),
    ),
}

_EXPECTED = {int: "an integer", float: "a number", tuple: "a list of numbers"}

# A [diagram] range of more steps than this is rejected, before any mach is made.
_MAX_DIAGRAM_STEPS = 1_000_000


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
    # whether the file has a [grid] section, which source file headers must then match
    grid_given: bool


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
                value = tuple(float(tok) for tok in raw.replace(",", " ").split()) if kind is tuple else kind(raw)
            except ValueError:
                expected = _EXPECTED.get(kind) or "one of " + ", ".join(m.value for m in kind)
                raise ValueError(f"{path}: [{section}] {key} = {raw!r} is not {expected}") from None
            if key in keys.ranges:
                keys.ranges[key].check(value, f"{path}: [{section}] {key}")
            values[section][key] = value
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
    heatmap = sections["heatmap"] if "heatmap" in present else None
    if heatmap is not None:
        # the scan's largest modulus sits at a corner of its (delta, eta) rectangle
        corner = {axis: max(abs(heatmap[f"{axis}_min"]), abs(heatmap[f"{axis}_max"])) for axis in ("delta", "eta")}
        _build(path, "heatmap", Frequency, dict(corner, gamma=heatmap["gamma"]))
    if seed_override is not None:
        SCHEMA["run"].ranges["seed"].check(seed_override, "--seed")
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
        heatmap=heatmap,
        grid_given="grid" in present,
    )
