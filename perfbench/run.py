"""vsheet benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify-1m --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed:

- three fresh interpreters each set up (generate the seeded inputs, load
  the config), run the study once cold and then keep running it in a closed
  loop, one study at a time, for a third of ``--seconds`` (at least one
  repetition).  For certify and sweep every repetition is
  ``vsheet.cli.main``, exactly what ``vfs`` runs;
- ``setup_s``: median time from spawn to the first study call;
- ``cold_s``: median time from spawn to the end of the cold study;
- ``peak_rss_mb``: median peak RSS at the end of the cold study;
- ``items_per_s``: median over the warm closed-loop repetitions.

``--trace 1`` runs every pipeline under the boundary shims of
``tracing.py`` and reports the per-layer metrics.  See ``NOTES.md``.

Every output is checked.  The human-readable lines come first; the last
line of standard output is the JSON result.  A full record (environment,
raw samples, problems) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

from common import latency_block

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("certify-1m", "sweep-256", "closure-64")
PROCESSES = 3  # each: set-up, one cold study, then a closed loop for its share of --seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a check that failed)."""


class Runner:
    """Spawns the fresh interpreters of one benchmark run, inside one deadline."""

    def __init__(self, workdir: pathlib.Path, nproc: int):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        path = [str(ROOT / "src"), str(BENCH)]
        if self.env.get("PYTHONPATH"):
            path.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        # unset, the pool would take min(32, cpu + 4) threads and measure the scheduler
        self.env["VFS_THREADS"] = str(nproc)
        self._seq = 0
        self.children: list = []  # (command label, wall seconds), for the record

    def spawn(self, cmd: list) -> dict:
        """Run ``cmd`` to completion inside the deadline; its exit code, wall time and output."""
        self._seq += 1
        out_path = self.workdir / f"child{self._seq}.out"
        err_path = self.workdir / f"child{self._seq}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(map(str, cmd[:4])))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            env = dict(self.env, PERFBENCH_T0=repr(t0))
            proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{cmd[1]} ran past the deadline") from None
            wall = time.monotonic() - t0
        self.children.append((" ".join(str(c) for c in cmd[1:4]), wall))
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def worker(self, mode: str, workload: str, seed: int, seconds: float = 0.0):
        result = self.workdir / f"{mode}{self._seq + 1}.json"
        cmd = [sys.executable, BENCH / "worker.py", mode, "--workload", workload, "--seed", seed,
               "--workdir", self.workdir / workload, "--result", result, "--seconds", seconds]
        child = self.spawn(cmd)
        if child["rc"] != 0 or not result.exists():
            raise BenchError(f"worker {mode} {workload} exited {child['rc']}: {child['stderr'][-2000:]}")
        return child, json.loads(result.read_text())


def _median(values):
    return float(statistics.median(values))


def environment(seed: int, nproc: int, env: dict, versions: dict) -> dict:
    """What the numbers depend on besides the code."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": nproc,
        "VFS_THREADS": env["VFS_THREADS"],
        "thread_pool_default": min(32, (os.cpu_count() or 1) + 4),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def run_end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    runs = [runner.worker("run", workload, seed, seconds=seconds / PROCESSES) for _ in range(PROCESSES)]
    res = [r for _, r in runs]
    attempted = sum(r["attempted"] for r in res)
    failed = sum(r["failed"] for r in res)
    problems = [p for r in res for p in r["problems"]]
    for key, what in (("inputs", "inputs"), ("cold_digest", "cold-run artifacts"), ("loop_digest", "loop artifacts")):
        if any(r[key] != res[0][key] for r in res):
            problems.append(f"processes with the same seed disagree on their {what}")
            failed += 1
    rates = [n / t for r in res for n, t in zip(r["items"], r["rep_s"]) if n]
    if not rates:
        raise BenchError("no repetition completed")
    metrics = {
        "setup_s": {"value": _median([r["setup_s"] for r in res]), "unit": "s"},
        "items_per_s": {"value": _median(rates), "unit": "1/s"},
        "cold_s": {"value": _median([r["cold_s"] for r in res]), "unit": "s"},
        "peak_rss_mb": {"value": _median([r["cold_rss_mb"] for r in res]), "unit": "MB"},
    }
    record = {
        "setup_samples_s": [r["setup_s"] for r in res],
        "cold_samples_s": [r["cold_s"] for r in res],
        "cold_rss_mb": [r["cold_rss_mb"] for r in res],
        "rep_s": [r["rep_s"] for r in res],
        "process_s": [child["wall_s"] for child, _ in runs],
        "error_rate": failed / attempted if attempted else 1.0,
    }
    mode_s = [x for r in res for x in r["mode_s"]]
    if mode_s:
        record["mode_latency"] = latency_block(mode_s)
        record["closure"] = [r["closure"] for r in res]
    return {"metrics": metrics, "record": record, "attempted": attempted, "failed": failed,
            "problems": problems, "versions": res[0]["versions"]}


IMPORT_PROBE = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"


def run_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    imports = {}
    for short, module in (("symbols", "vsheet.symbols"), ("hemisphere", "vsheet.hemisphere"), ("cli", "vsheet.cli")):
        child = runner.spawn([sys.executable, "-c", IMPORT_PROBE.format(module)])
        if child["rc"] != 0:
            raise BenchError(f"import of {module} failed: {child['stderr'][-500:]}")
        imports[short] = float(child["stdout"].split()[-1])
    res = {}
    # the selected workload interleaves untraced and traced repetitions; the others run one traced one
    for name in (workload,) + tuple(w for w in WORKLOADS if w != workload):
        res[name] = runner.worker("trace", name, seed, seconds=seconds if name == workload else 0.0)[1]
    own, cert, sweep, clos = res[workload], res["certify-1m"], res["sweep-256"], res["closure-64"]
    counts = own["counts"]
    total = cert["span_total_s"]
    per_call = sweep["span_median_s"]
    values = {
        "import.symbols_s": (imports["symbols"], "s"),
        "import.hemisphere_s": (imports["hemisphere"], "s"),
        "import.cli_s": (imports["cli"], "s"),
        "config.load_s": (own["config_load_s"], "s"),
        "hemisphere.sample_s": (total["hemisphere.sample"], "s"),
        "hemisphere.sandwich_s": (total["hemisphere.sandwich"], "s"),
        "hemisphere.weight_bounds_s": (total["hemisphere.weight_bounds"], "s"),
        "hemisphere.simple_root_s": (total["hemisphere.simple_root"], "s"),
        "hemisphere.thread_speedup": (cert["sandwich_single_s"] / cert["sandwich_pinned_s"], "x"),
        "symbols.big_sigma_points": (counts.get("symbols.big_sigma_points", 0), "count"),
        "symbols.weight_sigma_points": (counts.get("symbols.weight_sigma_points", 0), "count"),
        "symbols.mu_pm_points": (counts.get("symbols.mu_pm_points", 0), "count"),
        "symbols.evals_per_point": (counts.get("symbols.big_sigma_points", 0) / own["items"], "evals/item"),
        "symbols.big_sigma_ns_per_point": (cert["big_sigma_ns_per_point"], "ns"),
        "symbols.weight_sigma_ns_per_point": (cert["weight_sigma_ns_per_point"], "ns"),
        "symbols.scalar_call_us": (clos["scalar_call_us"], "us"),
        "grids.forward_transform_s": (per_call["grids.forward_transform"], "s"),
        "grids.inverse_transform_s": (per_call["grids.inverse_transform"], "s"),
        "grids.fft_bytes": (sweep["counts"]["grids.fft_bytes"], "bytes"),
        "front.transform_source_s": (per_call["front.transform_source"], "s"),
        "front.build_g_s": (per_call["front.build_g"], "s"),
        "front.solve_front_s": (per_call["front.solve_front"], "s"),
        "pressure.solve_half_space_us": (clos["span_median_s"]["pressure.solve_half_space"] * 1e6, "us"),
        "pressure.residual_us": (clos["span_median_s"]["pressure.residual"] * 1e6, "us"),
        "pressure.mode_latency_ms_p50": (clos["mode_latency"]["p50_ms"], "ms"),
        "pressure.mode_latency_ms_p99": (clos["mode_latency"]["p99_ms"], "ms"),
        "fileio.write_s": (own["write_s"], "s"),
        "fileio.bytes_written": (own["bytes_written"], "bytes"),
        "trace.overhead_pct": (
            100.0 * (_median(own["traced_s"]) / _median(own["untraced_s"]) - 1.0), "%"),
    }
    problems = [f"{name}: symbol counts differ between traced repetitions"
                for name, r in res.items() if not r["counts_repeat"]]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{workload}-s{seed}.json").write_text(
        json.dumps({name: r["spans_last_rep"] for name, r in res.items()}))
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "record": {"counts": {n: r["counts"] for n, r in res.items()},
                   "traced_s": own["traced_s"], "untraced_s": own["untraced_s"]},
        "attempted": sum(r["attempted"] for r in res.values()),
        "failed": sum(r["failed"] for r in res.values()) + len(problems),
        "problems": problems,
        "versions": own["versions"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vsheet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vsheet" / "__init__.py").is_file():
        print(f"perfbench: no vsheet sources under {ROOT / 'src'}; run from a vsheet checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, nproc)
        run = run_traced if args.trace else run_end_to_end
        out = run(runner, args.workload, args.seed, args.seconds)
        env = environment(args.seed, nproc, runner.env, out.pop("versions"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0 and not out["problems"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "mode_latency" in out["record"]:
        lat = out["record"]["mode_latency"]
        print(f"mode_latency_ms_p50 = {lat['p50_ms']:.6g} ms  ({lat['samples']} modes)")
        print(f"mode_latency_ms_p99 = {lat['p99_ms']:.6g} ms  ({lat['samples']} modes)")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g}  ({failed} of {attempted} failed)")
    for problem in out["problems"][:20]:
        print(f"problem: {problem}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "children_s": runner.children, **out}, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
