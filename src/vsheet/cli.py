"""Command-line front end: ``vfs certify|roots|solve|sweep|diagram``.

Every subcommand takes ``--config FILE`` plus optional ``--out DIR`` and
``--seed N`` overrides, writes its artifacts (JSON/CSV/binary) into the
output directory and prints a short human-readable summary.  Outputs are
deterministic for a fixed config and seed.  Exit codes: 0 pass, 1 a
certificate or check failed, 2 usage or config error (an ``OSError`` on an
output or source path and a ``MemoryError`` included), 3 a numerical guard or
internal check tripped; codes 2 and 3 come with one ``vfs: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import fileio
from .config import HeatmapField, RunConfig, STUDIES, load_config, mach_ladder
from .front import Side, build_g, estimate_sweep, solve_front, transform_source
from .grids import GridSpec
from .hemisphere import (
    NoRootFound,
    certify_sandwich,
    certify_simple_root,
    certify_weight_bounds,
    locate_roots,
    sample_hemisphere,
    sandwich_ratio,
)
from .symbols import (
    Frequency,
    NumericalGuard,
    PhysicalParams,
    Regime,
    big_sigma,
    root_constants,
    weight_sigma,
)

__all__ = ["main", "run", "emit_heatmap", "stability_diagram", "builtin_sources"]


def builtin_sources(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic smooth real source pair, compactly supported in the box."""
    t, x = grid.t(), grid.x1()
    y, _ = grid.quadrature()
    tt = np.exp(-(((t - 0.35 * grid.Lt) / (0.07 * grid.Lt)) ** 2))[:, None, None]
    tt2 = np.exp(-(((t - 0.45 * grid.Lt) / (0.09 * grid.Lt)) ** 2))[:, None, None]
    xx = (0.6 + 0.4 * np.cos(2.0 * np.pi * x / grid.Lx))[None, :, None]
    xx2 = (0.5 + 0.5 * np.sin(2.0 * np.pi * x / grid.Lx)) [None, :, None]
    yy = np.exp(-(((y - 0.12 * grid.Ly) / (0.06 * grid.Ly)) ** 2))[None, None, :]
    yy2 = np.exp(-(((y - 0.18 * grid.Ly) / (0.08 * grid.Ly)) ** 2))[None, None, :]
    return tt * xx * yy, 0.7 * tt2 * xx2 * yy2


_DIAGRAM_COLUMNS = ["mach", "regime", "root_constant"]


def stability_diagram(c: float, m_min: float, m_max: float, m_step: float) -> list[dict]:
    """One row per mach of a sweep at fixed sound speed, keyed by ``_DIAGRAM_COLUMNS``.

    The machs are :func:`~vsheet.config.mach_ladder`'s.  The root constant is
    nan in the degenerate regime (mach = sqrt(2)).
    """
    rows = []
    for mach in mach_ladder(m_min, m_max, m_step):
        params = PhysicalParams(v=mach * c, c=c)
        regime = params.regime()
        root = math.nan if regime is Regime.DEGENERATE else root_constants(params)
        rows.append(dict(zip(_DIAGRAM_COLUMNS, (mach, regime.value, root))))
    return rows


def emit_heatmap(
    field: HeatmapField | str,
    params: PhysicalParams,
    gamma: float,
    delta_range: tuple[float, float],
    eta_range: tuple[float, float],
    shape: tuple[int, int],
    path,
) -> None:
    """Rectangular (delta, eta) scan of a symbol field at fixed gamma > 0, as CSV."""
    field = HeatmapField(field)
    if not gamma > 0:
        raise ValueError("heatmaps are drawn at fixed gamma > 0")
    deltas = np.linspace(delta_range[0], delta_range[1], shape[0])
    etas = np.linspace(eta_range[0], eta_range[1], shape[1])
    dd, ee = np.meshgrid(deltas, etas, indexing="ij")
    freqs = Frequency(np.full_like(dd, gamma), dd, ee)
    if field is HeatmapField.ABS_SIGMA_BIG:
        vals = np.abs(big_sigma(freqs, params))
    elif field is HeatmapField.ABS_WEIGHT_SIGMA:
        vals = np.abs(weight_sigma(freqs, params))
    else:
        vals = sandwich_ratio(freqs, params)
    rows = [
        (float(dd[i, j]), float(ee[i, j]), float(vals[i, j]))
        for i in range(shape[0])
        for j in range(shape[1])
    ]
    fileio.write_csv(path, ["delta", "eta", field.value], rows)


def _load_sources(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, GridSpec]:
    """The configured (raw_plus, raw_minus, grid); ``builtin`` sides come from one builtin pair.

    A source file's header sets the grid, unless the config has a ``[grid]``
    section: then a header that differs from it is a ValueError naming the
    file and the differing fields.
    """
    specs = (cfg.solve["source_plus"], cfg.solve["source_minus"])
    builtin = builtin_sources(cfg.grid) if "builtin" in specs else (None, None)
    (raw_p, grid_p), (raw_m, grid_m) = (
        (raw, cfg.grid) if spec == "builtin" else _read_source(spec, cfg)
        for spec, raw in zip(specs, builtin)
    )
    if grid_p != grid_m:
        raise ValueError("plus and minus sources disagree on the grid")
    # real arrays: a source file stores real samples, which read_source returns as stored
    return raw_p, raw_m, grid_p


def _read_source(path: str, cfg: RunConfig) -> tuple[np.ndarray, GridSpec]:
    """:func:`fileio.read_source`, with the header checked against a ``[grid]`` section when the config has one."""
    raw, grid = fileio.read_source(path)
    if cfg.grid_given and grid != cfg.grid:
        fields = (f.name for f in dataclasses.fields(GridSpec))
        differ = ", ".join(
            f"{name.lower()} {getattr(grid, name)!r} (header) != {getattr(cfg.grid, name)!r} ([grid])"
            for name in fields
            if getattr(grid, name) != getattr(cfg.grid, name)
        )
        raise ValueError(f"source file {path}: its header differs from the config's [grid] in {differ}")
    return raw, grid


def _study_certify(cfg: RunConfig) -> int:
    params = cfg.params
    if params.regime() is not Regime.WEAKLY_STABLE:
        raise ValueError("certify: the bound certificates require mach > sqrt(2)")
    sample = sample_hemisphere(
        cfg.sample["n"], cfg.sample["strategy"], cfg.sample["gamma_floor"], params, seed=cfg.seed
    )
    certs = [certify_sandwich(sample, params, cfg.sample["explosion_threshold"])]
    certs.extend(certify_weight_bounds(sample, params, cfg.sample["explosion_threshold"]))
    certs.append(certify_simple_root(params))
    fileio.write_json(cfg.out_dir / "certificates.json", [c.to_json_dict() for c in certs])
    if cfg.heatmap is not None:
        hm = cfg.heatmap
        emit_heatmap(
            hm["field"],
            params,
            hm["gamma"],
            (hm["delta_min"], hm["delta_max"]),
            (hm["eta_min"], hm["eta_max"]),
            (hm["n_delta"], hm["n_eta"]),
            cfg.out_dir / "heatmap.csv",
        )
    ok = True
    for cert in certs:
        status = "PASS" if cert.passed else "FAIL"
        ok &= cert.passed
        print(
            f"certificate {cert.ratio_name}: {status} "
            f"(min={cert.empirical_min:.6g}, max={cert.empirical_max:.6g}, n={cert.sample_size})"
        )
    return 0 if ok else 1


# a located root agrees with its closed form when their relative difference is at most this
_ROOT_AGREEMENT = 1e-8


def _study_roots(cfg: RunConfig) -> int:
    c = cfg.params.c
    columns = ["mach", "regime", "closed_form", "located", "rel_error", "ok"]
    rows = []
    for mach in cfg.roots["machs"]:
        params = PhysicalParams(v=mach * c, c=c)
        regime = params.regime()
        row = dict.fromkeys(columns, math.nan) | {"mach": mach, "regime": regime.value, "ok": False}
        rows.append(row)
        if regime is Regime.DEGENERATE:
            print(f"roots: mach={mach!r}: degenerate regime (mach = sqrt(2)); no root to locate", file=sys.stderr)
            continue
        row["closed_form"] = closed = c * root_constants(params)
        try:
            located = locate_roots(params)
        except NoRootFound as exc:
            print(f"roots: mach={mach!r}: {exc}", file=sys.stderr)
            continue
        rel_error = abs(abs(located) - closed) / closed
        # in range, so a NaN error fails
        row.update(located=located, rel_error=rel_error, ok=rel_error <= _ROOT_AGREEMENT)
        if not row["ok"]:
            print(
                f"roots: mach={mach!r}: located root {located:.15g} disagrees with closed form {closed:.15g} "
                f"by {rel_error:.3g} relative, above {_ROOT_AGREEMENT:g}",
                file=sys.stderr,
            )
    fileio.write_csv(cfg.out_dir / "roots.csv", columns, [list(row.values()) for row in rows])
    fileio.write_json(cfg.out_dir / "roots.json", rows)
    for row in rows:
        print(f"root mach={row['mach']!r} [{row['regime']}]: located={row['located']:.12g} closed={row['closed_form']:.12g}")
    return 0 if all(row["ok"] for row in rows) else 1


def _study_solve(cfg: RunConfig) -> int:
    raw_p, raw_m, grid = _load_sources(cfg)
    fplus = transform_source(raw_p, Side.PLUS, grid)
    fminus = transform_source(raw_m, Side.MINUS, grid)
    g_hat = build_g(fplus, fminus, cfg.params)
    sol = solve_front(g_hat, grid, cfg.params, s=cfg.solve["s"], sigma_floor=cfg.solve["sigma_floor"])
    bin_path, json_path = fileio.write_front_solution(cfg.out_dir / "front", sol)
    print(f"solve [{sol.regime.value}]: wrote {bin_path} and {json_path}")
    for key, value in sorted(sol.report.items()):
        print(f"  {key} = {value}")
    return 0


def _study_sweep(cfg: RunConfig) -> int:
    raw_p, raw_m, grid = _load_sources(cfg)
    result = estimate_sweep(
        raw_p, raw_m, grid, cfg.params,
        gammas=cfg.sweep["gammas"], s=cfg.sweep["s"], slack=cfg.sweep["slack"],
    )
    fileio.write_csv(cfg.out_dir / "sweep.csv", list(result.rows[0]), [list(row.values()) for row in result.rows])
    fileio.write_json(
        cfg.out_dir / "sweep.json",
        {"rows": [dict(r) for r in result.rows], "passed": result.passed,
         "slack": result.slack, "s": result.s},
    )
    for row in result.rows:
        print(
            f"gamma={row['gamma']:g}: g_over_f={row['g_over_f']:.6g} "
            f"front_plain={row['front_plain']:.6g} front_aniso="
            + (f"{row['front_aniso']:.6g}" if row["front_aniso"] is not None else "n/a")
        )
    print(f"sweep bounded within slack {result.slack:g}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _study_diagram(cfg: RunConfig) -> int:
    rows = stability_diagram(cfg.params.c, **cfg.diagram)
    fileio.write_csv(cfg.out_dir / "diagram.csv", _DIAGRAM_COLUMNS, [list(row.values()) for row in rows])
    flips = [(a["mach"], b["mach"]) for a, b in zip(rows, rows[1:]) if a["regime"] != b["regime"]]
    print(f"diagram: {len(rows)} rows, regime changes at {flips}")
    return 0


_RUNNERS = {
    "certify": _study_certify,
    "roots": _study_roots,
    "solve": _study_solve,
    "sweep": _study_sweep,
    "diagram": _study_diagram,
}


def run(cfg: RunConfig) -> int:
    """Execute one configured study; returns the process exit code."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.study](cfg)


def _make_out_dir(path, origin: str) -> None:
    """Make the output directory; a path that cannot be one is a ValueError naming ``origin``."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{origin} {str(path)!r} cannot be made a directory: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vfs",
        description="Vortex-sheet front toolkit: certificates, roots, solves, sweeps, diagrams.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for study in STUDIES:
        p = sub.add_parser(study, help=f"run the {study} study from a config file")
        p.add_argument("--config", required=True, help="path to the INI-style run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides [run] out)")
        p.add_argument("--seed", type=int, default=None, help="seed override (overrides [run] seed)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, study=args.study, out_override=args.out, seed_override=args.seed)
        _make_out_dir(cfg.out_dir, "--out" if args.out else f"{args.config}: [run] out")
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"vfs: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large for this machine, such as a [sample] n of 1e12
        print(f"vfs: out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except NumericalGuard as exc:
        print(f"vfs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
