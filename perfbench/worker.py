"""One fresh interpreter of the benchmark: set up a workload, then run it.

Run by ``run.py``, never by hand::

    python3 perfbench/worker.py MODE --workload NAME --seed N --workdir DIR --result FILE
        [--seconds S]

MODE is one of

- ``run``: set up, run the study once (the cold run: its time is counted
  from the spawn, and its peak RSS is read before anything else is loaded),
  then run repetitions back to back (a closed loop, one study at a time,
  already warm) for at least S seconds and one repetition.  For certify and
  sweep every repetition, the cold one too, is ``vsheet.cli.main``: what
  ``vfs`` runs.
- ``trace``: set up, then run repetitions with the shims of ``tracing.py``
  installed and report per-layer figures.  With S > 0, after one discarded
  warm-up repetition, untraced and traced repetitions are interleaved for S
  seconds, which gives the tracing overhead; with S = 0 one traced
  repetition runs.

Every mode starts with the set-up: generate the inputs and load the config.
Its time runs from the moment the parent spawned this process (the
``PERFBENCH_T0`` monotonic stamp) to the point where the first study call
starts.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import time

_SPAWN = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import vsheet.cli  # noqa: E402,F401  (the import a ``vfs`` run pays)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from common import digest, latency_block  # noqa: E402
import workloads  # noqa: E402
from vsheet import config, hemisphere, symbols  # noqa: E402


def _spawned_at() -> float:
    raw = os.environ.get("PERFBENCH_T0")
    return float(raw) if raw else _SPAWN


def _bytes_under(directory: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run_setup(workload, args, workdir):
    """Generate the inputs and load the config (closure also reads its sources back)."""
    state = workload.prepare(args.seed, workdir)
    return state, time.monotonic() - _spawned_at()


def input_digests(workdir: pathlib.Path) -> dict:
    """sha256 of every input file the set-up wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.glob("*")) if p.is_file()}


def _failure(exc: Exception) -> workloads.Rep:
    return workloads.Rep(items=0, attempted=1, failed=1, problems=[f"{type(exc).__name__}: {exc}"])


def mode_run(workload, args, workdir) -> dict:
    """Set up, run the study cold, then keep running it in a closed loop for S seconds."""
    state, setup_s = run_setup(workload, args, workdir)
    inputs = input_digests(workdir)
    colddir = workdir / "cold"
    colddir.mkdir(exist_ok=True)
    try:
        cold = workload.rep(state, colddir)
    except Exception as exc:  # a study that raises is a failed attempt
        cold = _failure(exc)
    cold_s = time.monotonic() - _spawned_at()
    cold_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outdir = workdir / "loop"
    outdir.mkdir(exist_ok=True)
    rep_s, items, mode_s = [], [], []
    attempted, failed, problems = cold.attempted, cold.failed, list(cold.problems)
    first_digest = last = None
    start = time.perf_counter()
    while not rep_s or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        try:
            rep = workload.rep(state, outdir)
        except Exception as exc:  # a study that raises is a failed attempt
            rep = _failure(exc)
        rep_s.append(time.perf_counter() - t0)
        items.append(rep.items)
        attempted += rep.attempted
        failed += rep.failed
        problems.extend(rep.problems)
        if not rep.items:
            continue
        mode_s.extend(rep.extra.get("mode_s", ()))
        d = digest(outdir)
        if first_digest is None:
            first_digest = d
        elif d != first_digest:
            failed += rep.attempted - rep.failed
            problems.append("artifacts differ from the first repetition")
        last = rep
    if last is not None:
        run_problems = workload.run_checks(state, last)
        attempted += 1
        failed += int(bool(run_problems))
        problems.extend(run_problems)
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "cold_rss_mb": cold_rss_mb,
        "inputs": inputs,
        "cold_digest": digest(colddir),
        "loop_digest": first_digest,
        "rep_s": rep_s,
        "items": items,
        "mode_s": [float(x) for x in mode_s],
        "closure": last.extra.get("summary") if last is not None else None,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }


def _median(values):
    return float(statistics.median(values)) if values else None


def _scalar_call_us(grid, params, blocks: int = 3, count: int = 1024) -> float:
    """Mean time of one scalar ``mu_pm`` and one scalar ``big_sigma`` call, median over blocks."""
    mesh = grid.freq_mesh()
    flat = [mesh[i % grid.nt, (7 * i) % grid.nx] for i in range(count)]
    per_call = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for freq in flat:
            symbols.mu_pm(freq, params)
            symbols.big_sigma(freq, params)
        per_call.append((time.perf_counter() - t0) / (2 * count))
    return _median(per_call) * 1e6


def _ns_per_point(fn, sample, params, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(sample.freqs, params)
        times.append(time.perf_counter() - t0)
    return _median(times) / len(sample) * 1e9


def _set_threads(value) -> None:
    if value is None:
        os.environ.pop("VFS_THREADS", None)
    else:
        os.environ["VFS_THREADS"] = value


def _sandwich_single_and_pinned(sample, cfg) -> tuple[float, float]:
    """Untraced ``certify_sandwich`` time at ``VFS_THREADS=1``, then at the pinned count, back to back."""
    pinned = os.environ.get("VFS_THREADS")
    times = []
    try:
        for threads in ("1", pinned):
            _set_threads(threads)
            t0 = time.perf_counter()
            hemisphere.certify_sandwich(sample, cfg.params, cfg.sample["explosion_threshold"], seed=cfg.seed)
            times.append(time.perf_counter() - t0)
    finally:
        _set_threads(pinned)
    return times[0], times[1]


def mode_trace(workload, args, workdir) -> dict:
    state, setup_s = run_setup(workload, args, workdir)
    load_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        config.load_config(state["cfg_path"])
        load_s.append(time.perf_counter() - t0)
    outdir = workdir / "trace"
    outdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    untraced_s, traced_s, snapshots = [], [], []
    attempted = failed = 0
    last = None

    def plain():
        t0 = time.perf_counter()
        rep = workload.rep(state, outdir)
        untraced_s.append(time.perf_counter() - t0)
        return rep

    def traced():
        tracer.reset()
        with tracing.shimmed(tracer):
            t0 = time.perf_counter()
            rep = workload.rep(state, outdir)
            traced_s.append(time.perf_counter() - t0)
        snapshots.append(
            {
                "counts": dict(tracer.counts),
                "spans": {name: tracer.durations(name) for name in {s[2] for s in tracer.spans}},
                "write_s": sum(tracer.top_level("fileio.")),
                "bytes_written": _bytes_under(outdir),
                "items": rep.items,
            }
        )
        return rep

    # With S > 0 a discarded untraced repetition warms the process up first,
    # so the first measured slot is not the coldest one.  Then untraced and
    # traced repetitions run in the order P T T P P T T P ... until there are
    # one untraced and two traced ones (the counts must repeat) and S seconds
    # have passed.  With S = 0 one traced repetition runs.
    interleave = args.seconds > 0
    pattern = (plain, traced, traced, plain) if interleave else (traced,)
    if interleave:
        rep = workload.rep(state, outdir)
        attempted += rep.attempted
        failed += rep.failed
    start = time.perf_counter()
    for i in itertools.count():
        step = pattern[i % len(pattern)]
        rep = step()
        attempted += rep.attempted
        failed += rep.failed
        if step is traced:
            last = rep
        if not interleave or (
            untraced_s and len(traced_s) >= 2 and time.perf_counter() - start >= args.seconds
        ):
            break
    spans = {}
    for snap in snapshots:
        for name, durations in snap["spans"].items():
            spans.setdefault(name, []).append(durations)
    result = {
        "setup_s": setup_s,
        "config_load_s": _median(load_s),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "counts": snapshots[-1]["counts"],
        "counts_repeat": all(s["counts"] == snapshots[0]["counts"] for s in snapshots),
        # per-call median within a repetition, then median over repetitions
        "span_median_s": {name: _median([_median(d) for d in reps]) for name, reps in spans.items()},
        # total per repetition, then median over repetitions
        "span_total_s": {name: _median([sum(d) for d in reps]) for name, reps in spans.items()},
        "write_s": _median([s["write_s"] for s in snapshots]),
        "bytes_written": snapshots[-1]["bytes_written"],
        "items": snapshots[-1]["items"],
        "attempted": attempted,
        "failed": failed,
        "spans_last_rep": [list(s) for s in tracer.spans[:20000]],
    }
    cfg = state["cfg"]
    if isinstance(workload, workloads.Certify):
        smp = cfg.sample
        sample = hemisphere.sample_hemisphere(
            smp["n"], hemisphere.SampleStrategy(smp["strategy"]), smp["gamma_floor"], cfg.params, seed=cfg.seed
        )
        result["big_sigma_ns_per_point"] = _ns_per_point(symbols.big_sigma, sample, cfg.params)
        result["weight_sigma_ns_per_point"] = _ns_per_point(symbols.weight_sigma, sample, cfg.params)
        result["sandwich_single_s"], result["sandwich_pinned_s"] = _sandwich_single_and_pinned(sample, cfg)
    if isinstance(workload, workloads.Closure):
        result["scalar_call_us"] = _scalar_call_us(cfg.grid, cfg.params)
        result["mode_latency"] = latency_block([float(x) for x in last.extra["mode_s"]])
    return result


MODES = {"run": mode_run, "trace": mode_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = MODES[args.mode](workloads.WORKLOADS[args.workload], args, workdir)
    result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
