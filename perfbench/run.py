#!/usr/bin/env python3
"""Benchmark of the epe command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; epe is imported from ./src. The
load model is a closed loop with one client: one epe process at a time,
each waited for, with BLAS pinned to one thread.

--trace 0 times the workload end to end with tracing off. It launches
`epe --version` SETUP_LAUNCHES times for setup_s, then repeats passes of
the workload while another fits in S seconds (at least MIN_PASSES), and
reports the median pass.

Every timed process is followed by runs of a fixed reference kernel
(calibrate.py), and the times of each phase of the run (the set-up
launches, the passes) are scaled by how fast the host ran that kernel
during the phase: the shared host's speed swings by up to half between
runs, which medians inside a run cannot remove. Unscaled times are kept
in the run record. NOTES.md has the measurements behind this.

--trace 1 alternates an untraced pass with a traced one (traced_cli.py,
spans around epe's public functions) while another pair fits, both at
EPE_THREADS=1, and reports the per-layer medians of the traced passes and
the tracing overhead.

Every output file is checked (checks.py). The last line of standard
output is the JSON result; the line before it records the environment.
A detailed record, with every invocation's exit code and stderr tail, is
written under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from calibrate import KERNEL_REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# The `epe` console script, run from the checkout's sources.
EPE = ("-c", "import sys; from epe.cli import main; sys.exit(main())")
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 7
# Timed passes that run even when `seconds` is shorter; their median is reported.
MIN_PASSES = 3
IMPORT_PROBES = 3
# Kernel runs taken after every timed process; a phase of the run is scaled
# by the mean of the runs from just before it to its end.
KERNEL_RUNS = 3
# A run ends well inside the 180 s a caller allows it; a hung process is killed.
RUN_BUDGET_S = 165.0
STDERR_TAIL = 2000

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Printed by a child interpreter so the harness itself never imports numpy.
ENV_PROBE = """
import json, os, platform, sys
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = f"{blas.get('name')} {blas.get('version')}"
except (KeyError, TypeError) as exc:  # show_config differs across numpy versions
    openblas = f"unknown ({exc!r})"
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": openblas,
    "epe": __import__("epe").__file__,
}))
"""


class Budget:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class HostSpeed:
    """calibrate.py processes, idle between timed processes, and every kernel time they gave.

    `width` processes run the kernel at once, as many as the workload has
    workers, and each entry of `kernel_s` holds one round's times. A pool's
    wall time waits for its slowest worker and its CPU time adds up all of
    them, so wall times are scaled by the slowest kernel of each round and
    CPU times by their mean.
    """

    def __init__(self, env, cwd, width):
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py")], env=env, cwd=cwd,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
            )
            for _ in range(width)
        ]
        self.kernel_s = []
        try:
            self.measure()
        except BaseException:
            self.__exit__()
            raise

    def measure(self):
        for proc in self.procs:
            proc.stdin.write(f"{KERNEL_RUNS}\n")
            proc.stdin.flush()
        rounds = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibrate.py exited with code {proc.wait()}")
            rounds.append(json.loads(line))
        self.kernel_s += [list(times) for times in zip(*rounds)]

    def mark(self):
        """Start of a phase: the kernel runs taken just before it."""
        return len(self.kernel_s) - KERNEL_RUNS

    def scale(self, mark, slowest=False):
        """Reference-kernel time over the mean kernel time since `mark`.

        The mean over rounds, not the median: the host flips between a fast
        and a slow state within seconds, and a process's time adds up both,
        in the proportion the mean sees; a median jumps between the two.
        """
        pick = max if slowest else statistics.fmean
        return KERNEL_REFERENCE_S / statistics.fmean(pick(t) for t in self.kernel_s[mark:])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
            proc.stdout.close()


def launch(argv, env, cwd, budget, label, host):
    """Run one process to completion; its exit code, wall time and resource usage.

    CPU time and peak RSS come from wait4, which covers the process and the
    children it reaped, so pool workers are included. The times are
    unscaled; the host's speed is measured once the process has ended.
    """
    err_path = cwd / f"{label}.stderr"
    timeout = max(budget.left(), 1.0)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    host.measure()
    stderr = err_path.read_bytes().decode("utf-8", "replace")
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    return {
        "argv": [Path(a).name if a == sys.executable else a for a in argv],
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        "stderr_tail": stderr[-STDERR_TAIL:],
        "stderr_path": str(err_path),
        "problems": problems,
        "failed": bool(problems),
    }


def base_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("EPE_", "PYTHON"))}
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(workload, seed, env, workdir, budget, host, pass_id, traced):
    """One pass: each invocation of the workload in turn, then its output checks.

    Its wall and CPU times are sums over the invocations; `elapsed_s` is the
    time the pass took, host speed measurements included.
    """
    invocations = workload.invocations(seed)
    spans = [workdir / f"spans-{pass_id}-{k}.pkl" for k in range(len(invocations))]
    results = []
    start = time.perf_counter()
    for k, inv in enumerate(invocations):
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), "--pass-id", str(pass_id),
                    "--spans", str(spans[k]), "--", *inv.argv]
        else:
            argv = [sys.executable, *EPE, *inv.argv]
        results.append(launch(argv, env, workdir, budget, f"pass{pass_id}-{k}", host))
    elapsed = time.perf_counter() - start

    records = []
    for k, (inv, res) in enumerate(zip(invocations, results)):
        out = workdir / inv.out
        manifest = Path(f"{out}.manifest.json")
        problems = res["problems"]
        if not problems:
            try:
                problems = inv.check(str(out)) + checks.check_manifest(manifest, inv.argv)
                res["bytes_written"] = out.stat().st_size + manifest.stat().st_size
                if traced:
                    with open(spans[k], "rb") as fh:
                        records.append(pickle.load(fh))  # written by traced_cli.py in this run
            except OSError as exc:
                problems = [f"missing output: {exc}"]
        res["problems"] = problems
        res["failed"] = bool(problems)
    return {
        "pass": pass_id,
        "traced": traced,
        "elapsed_s": elapsed,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "bytes_written": sum(r.get("bytes_written", 0) for r in results),
        "invocations": results,
        "records": records,
    }


def import_times(env, workdir, budget, host):
    """Cumulative import times of epe.cli, epe.jc and numpy, median of IMPORT_PROBES runs.

    The times are scaled by the host's speed during the probes.
    """
    wanted = {"epe.cli": "setup.import_s.epe_cli", "epe.jc": "setup.import_s.epe_jc",
              "numpy": "setup.import_s.numpy"}
    samples = {metric: [] for metric in wanted.values()}
    runs = []
    mark = host.mark()
    for k in range(IMPORT_PROBES):
        res = launch([sys.executable, "-X", "importtime", "-c", "import epe.cli"], env, workdir,
                     budget, f"importtime{k}", host)
        runs.append(res)
        for line in Path(res["stderr_path"]).read_text().splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            name = parts[-1].strip()
            if len(parts) == 3 and name in wanted:
                samples[wanted[name]].append(int(parts[1]) / 1e6)
    scale = host.scale(mark)
    return {m: statistics.median(v) * scale if v else 0.0 for m, v in samples.items()}, runs


def environment(env, workdir, seed, workload):
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "blas_pins": BLAS_PINS,
        "epe_threads": {"timed": workload.threads, "traced": 1},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }
    try:
        probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=workdir,
                               capture_output=True, text=True, timeout=60, check=True)
        record.update(json.loads(probe.stdout))
    except (OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        record["probe_error"] = repr(exc)
    return record


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_digest():
    """Content hash of src/, which identifies the program where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _another_pass(passes, group, min_groups, start, seconds, budget):
    """Whether a further group of passes fits in `seconds`; `min_groups` always run."""
    if not passes:
        return True
    last = sum(p["elapsed_s"] for p in passes[-group:])
    if budget.left() < 1.5 * last:
        return False
    fits = time.perf_counter() - start + last <= seconds
    return fits or len(passes) < min_groups * group


def timed_run(workload, seed, seconds, workdir, budget, host):
    env = base_env()
    if workload.threads is not None:
        env["EPE_THREADS"] = str(workload.threads)
    mark = host.mark()
    setup = [launch([sys.executable, *EPE, "--version"], env, workdir, budget, f"version{k}", host)
             for k in range(SETUP_LAUNCHES)]
    setup_scale = host.scale(mark)
    mark = host.mark()
    passes = []
    start = time.perf_counter()
    while _another_pass(passes, 1, MIN_PASSES, start, seconds, budget):
        passes.append(run_pass(workload, seed, env, workdir, budget, host, len(passes),
                               traced=False))
    wall_scale, cpu_scale = host.scale(mark, slowest=True), host.scale(mark)
    unscaled = {
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
    }
    metrics = {
        "setup_s": unscaled["setup_s"] * setup_scale,
        "wall_s": unscaled["wall_s"] * wall_scale,
        "cpu_s": unscaled["cpu_s"] * cpu_scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    speed = {"scale": {"setup": setup_scale, "wall": wall_scale, "cpu": cpu_scale},
             "unscaled": unscaled}
    return metrics, END_TO_END, setup, passes, [], speed


def traced_run(workload, seed, seconds, workdir, budget, host):
    env = base_env()
    env["EPE_THREADS"] = "1"  # spans recorded in forked pool workers would be lost
    imports, import_runs = import_times(env, workdir, budget, host)
    mark = host.mark()
    passes = []
    start = time.perf_counter()
    while _another_pass(passes, 2, 1, start, seconds, budget):
        for traced in (False, True):
            passes.append(run_pass(workload, seed, env, workdir, budget, host, len(passes),
                                   traced))
    scale = host.scale(mark)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = [{**layers.layer_metrics(p["records"]), "cli.bytes_written": p["bytes_written"]}
                for p in traced]

    notes = [f"{name} not found; its stage reports 0 calls"
             for name in layers.missing_functions([r for p in traced for r in p["records"]])]
    metrics = dict(imports)
    for name, unit in layers.PER_LAYER.items():
        if name in metrics or name.startswith("trace."):
            continue
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values) * scale
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                notes.append(f"count {name} differs between traced passes: {values}")
    unscaled = {
        "trace.wall_s": statistics.median(p["wall_s"] for p in traced),
        "untraced_wall_s": statistics.median(p["wall_s"] for p in untraced),
    }
    metrics["trace.wall_s"] = unscaled["trace.wall_s"] * scale
    metrics["trace.overhead_s"] = (unscaled["trace.wall_s"] - unscaled["untraced_wall_s"]) * scale
    for p in traced:
        p.pop("records")
    speed = {"scale": {"passes": scale}, "unscaled": unscaled}
    return metrics, layers.PER_LAYER, import_runs, passes, notes, speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the epe command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epe" / "cli.py").is_file():
        print(f"error: no epe sources under {SRC}; run from the root of an epe checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    budget = Budget(RUN_BUDGET_S)
    workdir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env_record = environment(base_env(), workdir, args.seed, workload)
        run = traced_run if args.trace else timed_run
        # traced passes run one worker
        width = 1 if args.trace else workload.threads or 1
        with HostSpeed(base_env(), workdir, width) as host:
            metrics, units, setup, passes, notes, speed = run(
                workload, args.seed, args.seconds, workdir, budget, host
            )
        speed["kernel_s"] = host.kernel_s
    finally:
        detail = workdir.with_suffix(".json")
        shutil.rmtree(workdir, ignore_errors=True)

    invocations = setup + [r for p in passes for r in p["invocations"]]
    failed = sum(r["failed"] for r in invocations)
    for r in invocations:
        del r["stderr_path"]
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({"environment": env_record, "result": result,
                   "fail_ratio": failed / len(invocations), "notes": notes, "host_speed": speed,
                   "setup": setup, "passes": passes}, fh, indent=1)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for r in invocations:
        if r["failed"]:
            print(f"failed: {' '.join(r['argv'][-8:])}: {r['problems'][:3]}", file=sys.stderr)
    print(json.dumps({"environment": env_record, "fail_ratio": failed / len(invocations),
                      "scale": speed["scale"], "unscaled": speed["unscaled"],
                      "detail": str(detail.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
