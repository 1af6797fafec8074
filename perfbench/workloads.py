"""The three benchmark workloads: seeded inputs, one repetition, checks.

Each workload class has these steps:

- ``prepare(seed, workdir)`` generates every input from the seed, writes the
  config (and source files) the program reads, loads the config and returns
  the state.  This is the benchmark's set-up.
- ``rep(state, outdir)`` runs one study and writes its artifacts.  certify
  and sweep call ``vsheet.cli.main`` with the config, which is exactly what
  the ``vfs`` entry point runs, and check the artifact it writes.  closure
  has no ``vfs`` study and calls the public functions itself.  Every call
  goes through a module attribute (``cli.certify_sandwich``,
  ``pressure.solve_half_space``), so the tracing shims in ``tracing.py``
  see it.
- the ``Rep`` it returns carries the work done and the outcome of every
  correctness check.
- ``run_checks(state, rep)`` runs the checks that are too costly for every
  repetition, once per process.

The worker times the repetitions; closure also times each of its modes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time

import numpy as np

import vsheet.cli
from common import check_certificates, check_sweep
from vsheet import config, fileio, front, hemisphere, pressure
from vsheet.grids import GridSpec

TWO_PI = 6.283185307179586

# Front-equation residual every reconstructed mode must stay below.
RESIDUAL_BOUND = 1e-12

# Size of the sample prefix on which the sandwich ratio is recomputed from
# the closed forms, and the relative agreement required there.
PREFIX = 10_000
PREFIX_RTOL = 1e-9

# ratio_name of the sandwich certificate in certificates.json
SANDWICH = "abs_sigma_big_over_weight_lambda"


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition: work done, checks attempted and failed."""

    items: int
    attempted: int
    failed: int
    problems: list
    extra: dict = dataclasses.field(default_factory=dict)


def _write_config(path: pathlib.Path, sections: dict) -> None:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    path.write_text("\n".join(lines))


def _bump(r: np.ndarray) -> np.ndarray:
    """The smooth bump exp(1 - 1/(1 - r^2)) on |r| < 1, exactly zero outside."""
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def seeded_sources(grid: GridSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A smooth, compactly supported source pair on ``grid`` drawn from ``seed``.

    Each side is a product of a bump in t, a positive low-order trigonometric
    profile in x1 and a Gaussian in depth centred at 0.10-0.20 Ly with width
    at most 0.08 Ly.  The bump is exactly zero outside [0.10, 0.75] Lt, so
    no tail reaches the edges of the time box, where the exp(-gamma t)
    weight of a large gamma would magnify it.  The depth profile is below
    1e-40 of its peak at Ly, so the tail guards pass for every seed.
    """
    rng = np.random.default_rng(seed)
    t, x = grid.t(), grid.x1()
    y, _ = grid.quadrature()
    out = []
    for _ in range(2):
        tc, tw = rng.uniform(0.35, 0.50) * grid.Lt, rng.uniform(0.15, 0.25) * grid.Lt
        yc, yw = rng.uniform(0.10, 0.20) * grid.Ly, rng.uniform(0.05, 0.08) * grid.Ly
        amp = rng.uniform(0.5, 1.5)
        harmonics = rng.uniform(-0.15, 0.15, size=(3, 2))
        phase = TWO_PI * x / grid.Lx
        xx = 0.5 + sum(
            a * np.cos(k * phase) + b * np.sin(k * phase)
            for k, (a, b) in enumerate(harmonics, start=1)
        )
        tt = _bump((t - tc) / tw)
        yy = np.exp(-(((y - yc) / yw) ** 2))
        out.append((amp * tt[:, None, None] * xx[None, :, None] * yy[None, None, :]).astype(np.complex128))
    return out[0], out[1]


def _grid_section(grid: GridSpec) -> dict:
    return {
        "nt": grid.nt, "nx": grid.nx, "ny": grid.ny,
        "Lt": repr(grid.Lt), "Lx": repr(grid.Lx), "Ly": repr(grid.Ly), "gamma": repr(grid.gamma),
    }


def _prepare_sourced(study: str, grid: GridSpec, extra: dict, seed: int, workdir: pathlib.Path):
    """Write a seeded source pair and a config naming it."""
    raw_p, raw_m = seeded_sources(grid, seed)
    paths = {side: workdir / f"source_{side}.bin" for side in ("plus", "minus")}
    fileio.write_source_bin(paths["plus"], raw_p, grid)
    fileio.write_source_bin(paths["minus"], raw_m, grid)
    cfg_path = workdir / f"{study}.cfg"
    sections = {
        "run": {"study": study, "seed": seed, "out": workdir / "cold"},
        "params": {"v": 2.0, "c": 1.0},
        "grid": _grid_section(grid),
        "solve": {"source_plus": paths["plus"], "source_minus": paths["minus"]},
    }
    sections.update(extra)
    _write_config(cfg_path, sections)
    return {"cfg": config.load_config(cfg_path, study=study), "cfg_path": cfg_path}


def _load_sources(state: dict) -> dict:
    """Read the source pair back exactly as ``vfs solve`` would."""
    cfg = state["cfg"]
    raw_p, grid_p = fileio.read_source(cfg.solve["source_plus"])
    raw_m, grid_m = fileio.read_source(cfg.solve["source_minus"])
    if grid_p != cfg.grid or grid_m != cfg.grid:
        raise ValueError("source grid disagrees with the config grid")
    return dict(state, raw_plus=raw_p, raw_minus=raw_m)


# --------------------------------------------------------------------------
# certify-1m


def closed_form_ratio(gamma, delta, eta, v: float, c: float) -> np.ndarray:
    """|Sigma| / (|sigma| Lambda) from the closed forms in the README.

    Written independently of ``vsheet.symbols`` (no normalization, no branch
    bookkeeping: the sample has gamma > 0, where numpy's principal square
    root already has positive real part).
    """
    tau = gamma + 1j * delta
    mu_p = np.sqrt(((tau + 1j * v * eta) / c) ** 2 + eta**2)
    mu_m = np.sqrt(((tau - 1j * v * eta) / c) ** 2 + eta**2)
    big = tau**2 + v**2 * eta**2 * (8.0 * ((tau / c) / (mu_p + mu_m)) ** 2 - 1.0)
    m2 = (v / c) ** 2
    cy2 = c * math.sqrt(m2 + 1.0 - math.sqrt(4.0 * m2 + 1.0))
    lam = np.sqrt(gamma**2 + delta**2 + eta**2)
    weight = (tau - 1j * cy2 * eta) * (tau + 1j * cy2 * eta) / lam
    return np.abs(big) / (np.abs(weight) * lam)


class CliStudy:
    """A workload whose repetition is one ``vfs <study>`` run on the prepared config."""

    cli_study: str
    artifact: tuple  # (file name, check)

    def items(self, cfg) -> int:
        raise NotImplementedError

    def rep(self, state, outdir: pathlib.Path) -> Rep:
        name, check = self.artifact
        (outdir / name).unlink(missing_ok=True)  # a run that writes nothing must not pass on a stale file
        rc = vsheet.cli.main([self.cli_study, "--config", str(state["cfg_path"]), "--out", str(outdir)])
        problems = [f"vfs {self.cli_study} exited {rc}"] if rc else []
        try:
            payload = json.loads((outdir / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"artifact {name}: {exc}")
            return Rep(items=0, attempted=1, failed=1, problems=problems)
        problems += check(payload)
        return Rep(
            items=self.items(state["cfg"]), attempted=1, failed=int(bool(problems)), problems=problems,
            extra={"payload": payload},
        )

    def run_checks(self, state, rep: Rep) -> list:
        return []


class Certify(CliStudy):
    name = "certify-1m"
    n = 1_000_000
    cli_study = "certify"
    artifact = ("certificates.json", check_certificates)

    def prepare(self, seed: int, workdir: pathlib.Path):
        cfg_path = workdir / "certify.cfg"
        _write_config(
            cfg_path,
            {
                "run": {"study": "certify", "seed": seed, "out": workdir / "cold"},
                "params": {"v": 2.0, "c": 1.0},
                "sample": {
                    "n": self.n,
                    "strategy": "stratified_near_roots",
                    "gamma_floor": 1e-6,
                },
            },
        )
        return {"cfg": config.load_config(cfg_path, study="certify"), "cfg_path": cfg_path}

    def items(self, cfg) -> int:
        return cfg.sample["n"]

    def run_checks(self, state, rep: Rep) -> list:
        """Recompute the sandwich ratio on a prefix and compare with vsheet and the artifact."""
        cfg = state["cfg"]
        params, smp = cfg.params, cfg.sample
        strategy = hemisphere.SampleStrategy(smp["strategy"])
        sample = hemisphere.sample_hemisphere(smp["n"], strategy, smp["gamma_floor"], params, seed=cfg.seed)
        prefix = hemisphere.sample_hemisphere(
            min(PREFIX, len(sample)), strategy, smp["gamma_floor"], params, seed=cfg.seed
        )
        problems = []
        head = sample.freqs[: len(prefix)]
        if not all(np.array_equal(getattr(head, k), getattr(prefix.freqs, k)) for k in ("gamma", "delta", "eta")):
            problems.append("hemisphere sample prefixes are not nested")
        ratio = closed_form_ratio(
            np.asarray(prefix.freqs.gamma), np.asarray(prefix.freqs.delta),
            np.asarray(prefix.freqs.eta), params.v, params.c,
        )
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        cert = hemisphere.certify_sandwich(prefix, params, smp["explosion_threshold"], seed=cfg.seed)
        for label, got, want in (("min", cert.empirical_min, lo), ("max", cert.empirical_max, hi)):
            if not abs(got - want) <= PREFIX_RTOL * abs(want):
                problems.append(f"prefix sandwich {label} {got!r} != closed form {want!r}")
        full = [r for r in rep.extra["payload"] if r.get("ratio_name") == SANDWICH]
        if len(full) != 1:
            problems.append(f"certificates.json holds {len(full)} sandwich certificates")
        elif full[0]["empirical_min"] > lo * (1 + PREFIX_RTOL) or full[0]["empirical_max"] < hi * (1 - PREFIX_RTOL):
            problems.append("full-sample sandwich band does not contain the prefix band")
        return problems


# --------------------------------------------------------------------------
# sweep-256


class Sweep(CliStudy):
    name = "sweep-256"
    cli_study = "sweep"
    artifact = ("sweep.json", check_sweep)
    grid = GridSpec(nt=256, nx=256, ny=32, Lt=TWO_PI, Lx=TWO_PI, Ly=20.0, gamma=1.0)
    gammas = "1 2 4 8 16"

    def prepare(self, seed: int, workdir: pathlib.Path):
        sweep = {"sweep": {"gammas": self.gammas, "s": 0.0, "slack": 0.1}}
        return _prepare_sourced("sweep", self.grid, sweep, seed, workdir)

    def items(self, cfg) -> int:
        return cfg.grid.nt * cfg.grid.nx * len(cfg.sweep["gammas"])


# --------------------------------------------------------------------------
# closure-64


class Closure:
    name = "closure-64"
    grid = GridSpec(nt=64, nx=64, ny=96, Lt=TWO_PI, Lx=TWO_PI, Ly=30.0, gamma=1.0)

    def prepare(self, seed: int, workdir: pathlib.Path):
        return _load_sources(_prepare_sourced("solve", self.grid, {}, seed, workdir))

    def rep(self, state, outdir: pathlib.Path) -> Rep:
        """Solve, then reconstruct the pressures and check the residual on every mode.

        Each mode is timed; the per-mode latencies go into ``extra["mode_s"]``.
        """
        cfg = state["cfg"]
        grid, params = cfg.grid, cfg.params
        fp = front.transform_source(state["raw_plus"], front.Side.PLUS, grid)
        fm = front.transform_source(state["raw_minus"], front.Side.MINUS, grid)
        g_hat = front.build_g(fp, fm, params)
        sol = front.solve_front(g_hat, grid, params, s=cfg.solve["s"], sigma_floor=cfg.solve["sigma_floor"])
        mesh = grid.freq_mesh()
        residual = np.full((grid.nt, grid.nx), np.inf)
        mode_s = np.zeros(grid.nt * grid.nx)
        problems = []
        k = 0
        for it in range(grid.nt):
            for ix in range(grid.nx):
                freq = mesh[it, ix]
                fhat = complex(sol.f_hat[it, ix])
                t0 = time.perf_counter()
                try:
                    pp, pm = pressure.solve_half_space(fp, fm, freq, fhat, params)
                    residual[it, ix] = pressure.front_equation_residual(pp, pm, freq, fhat, params)
                except Exception as exc:  # every mode is attempted; a raise counts as a failure
                    if len(problems) < 5:
                        problems.append(f"mode ({it}, {ix}): {type(exc).__name__}: {exc}")
                mode_s[k] = time.perf_counter() - t0
                k += 1
        bad = ~(residual <= RESIDUAL_BOUND)
        worst = np.unravel_index(int(np.argmax(np.where(np.isfinite(residual), residual, -1.0))), residual.shape)
        finite = residual[np.isfinite(residual)]
        summary = {
            "modes": int(residual.size),
            "failed_modes": int(np.count_nonzero(bad)),
            "max_residual": float(finite.max()) if finite.size else None,
            "argmax_mode": [int(worst[0]), int(worst[1])],
            "bound": RESIDUAL_BOUND,
        }
        fileio.write_front_solution(outdir / "front", sol)
        fileio.write_json(outdir / "residuals.json", summary)
        if np.any(bad) and not problems:
            problems.append(f"{summary['failed_modes']} modes above residual bound {RESIDUAL_BOUND:g}")
        return Rep(
            items=int(residual.size), attempted=int(residual.size), failed=int(np.count_nonzero(bad)),
            problems=problems, extra={"mode_s": mode_s, "summary": summary},
        )

    def run_checks(self, state, rep: Rep) -> list:
        return []


WORKLOADS = {w.name: w for w in (Certify(), Sweep(), Closure())}
