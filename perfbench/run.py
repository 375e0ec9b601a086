"""Benchmark of the meantau command line on three workloads.

    python3 perfbench/run.py --workload {wealth-mc,synthesis,certify,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
One client runs the workload's CLI commands in a closed loop inside this
process (each command starts when the previous one ends): once untimed as
a warm-up, then again and again until S seconds have passed.  Every
command's outputs are checked; a command that exits nonzero or fails its
check counts in `failed`.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: the median over
passes of the workload's command time in units of the yardstick's probe
time (see `yardstick.py`), the median set-up time of several fresh
interpreters, and the process's peak resident memory.  With
`--trace 1` the passes alternate traced and untraced, starting traced,
with at least two traced passes, and the metrics are per layer; see
`tracing.py`.  `--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads, in this process and in the
# set-up interpreters it starts.
# With its default threads OpenBLAS keeps a helper spinning on the second
# vCPU after each call, which slowed the main thread by up to 1.8x, by an
# amount that changed from pass to pass.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

# tracing.py is imported where it is used, so that a set-up probe, which
# runs this file, imports little beyond the program.
from workloads import NAMES, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(wall_s="s", probe_ms="ms")  # printed, not gated
WORK = ROOT / "perfbench" / ".work"
SETUP_SAMPLES = 3
COMMANDS = ("portfolio", "bangbang", "simulate", "check-smp", "verify-variational")
PROBE_TIMEOUT_S = 60


# -- set-up ------------------------------------------------------------------------


def probe(name):
    """Fresh-interpreter set-up: import the CLI and parse the workload's configs."""
    import meantau.cli  # noqa: F401
    from meantau.config import load_config, parse_policy, parse_portfolio_params, parse_problem

    configs = workloads()[name].configs
    for path in configs:
        cfg = load_config(path)
        spec = parse_problem(cfg["problem"])
        for key in ("policy", "direction"):
            if key in cfg:
                parse_policy(cfg[key], path=key, horizon=spec.horizon)
    if not configs:
        parse_portfolio_params({})
    print("ready", flush=True)


def setup_seconds(name):
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--probe", name],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"set-up probe for {name} failed (exit {rc})")
    return elapsed


# -- passes ------------------------------------------------------------------------


def run_pass(name, workload, seed, tracer=None):
    """Run the workload's commands once; checks run after the timed part.

    An untraced pass interleaves the yardstick's probes with each command
    and takes their time out of the command's; a traced pass runs no
    probes, so that none lands inside a span."""
    import meantau.cli as cli
    from yardstick import PROBES, Yardstick

    commands = workload.build(seed, str(WORK))
    cmd_s = dict.fromkeys(COMMANDS, 0.0)
    stick = Yardstick(PROBES[name])
    ok = []
    if tracer is not None:
        tracer.install()
    try:
        for cmd in commands:
            probed = stick.seconds
            t0 = perf_counter()
            try:
                with stick if tracer is None else contextlib.nullcontext():
                    rc = cli.main(cmd.argv)
            except Exception:
                traceback.print_exc()
                rc = None
            elapsed = perf_counter() - t0 - (stick.seconds - probed)
            cmd_s[cmd.name] = cmd_s.get(cmd.name, 0.0) + elapsed
            ok.append(rc == 0)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = []
    for cmd, exited_zero in zip(commands, ok):
        if not exited_zero:
            bad = ["nonzero exit"]
        else:
            try:
                bad = cmd.check()
            except (OSError, KeyError, TypeError, ValueError) as exc:
                bad = [f"unreadable output ({exc!r})"]
        if bad:
            failures.append(f"{' '.join(cmd.argv)}: {'; '.join(bad)}")
    wall = sum(cmd_s.values())
    return {
        "wall_s": wall,
        "wall_probes": stick.units(wall) if tracer is None else None,
        "probe_ms": 1e3 * stick.seconds / stick.count if tracer is None else None,
        "cmd_s": cmd_s,
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
        "layers": tracer.metrics(wall) if tracer is not None else None,
    }


def run_workload(name, seed, seconds, trace):
    from tracing import Tracer

    workload = workloads()[name]
    setup = [setup_seconds(name) for _ in range(SETUP_SAMPLES)]
    import meantau.cli  # noqa: F401  (this process's own set-up, before any pass)
    from yardstick import warm_up

    warm_up()

    shutil.rmtree(WORK, ignore_errors=True)
    plain, traced = [], []
    try:
        # checked, but not timed: the first pass pays for lazy imports and
        # first calls
        warm = run_pass(name, workload, seed)
        start = perf_counter()
        for i in itertools.count():
            use_trace = trace and i % 2 == 0
            res = run_pass(name, workload, seed, Tracer() if use_trace else None)
            (traced if use_trace else plain).append(res)
            enough = not trace or (plain and len(traced) >= 2)
            if enough and perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return {
        "workload": workload,
        "setup": setup,
        "warm": warm,
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- metrics -----------------------------------------------------------------------


def command_metrics(run):
    plain = run["plain"]
    out = {f"cmd_s.{c}": statistics.median(p["cmd_s"][c] for p in plain) for c in COMMANDS}
    wall = statistics.median(p["wall_s"] for p in plain)
    out["path_steps_per_s"] = run["workload"].path_steps / wall
    out["wall_s"] = wall
    out["probe_ms"] = statistics.median(p["probe_ms"] for p in plain)
    return out


def end_to_end(run):
    return {
        "wall_probes": statistics.median(p["wall_probes"] for p in run["plain"]),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run, name):
    """Per-layer medians over the traced passes, plus the trace checks."""
    from tracing import EXACT

    layers = [p["layers"] for p in run["traced"]]
    out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    problems = []
    for k in EXACT:
        values = {d[k] for d in layers}
        if len(values) != 1:
            problems.append(f"{k} differs between traced passes: {sorted(values)}")
        out[k] = layers[0][k]
    for k in run["workload"].predicted_zero:
        if out[k] != 0:
            problems.append(f"{k} = {out[k]} on {name}, predicted 0")
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in run["traced"])
        - statistics.median(p["wall_s"] for p in run["plain"])
    )
    out.update(command_metrics(run))
    return out, problems


# -- reporting ---------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return {lvl: sizes.get(lvl, "unknown") for lvl in ("L2", "L3")}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            v: os.environ.get(v) for v in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def report(name, seed, seconds, trace):
    run = run_workload(name, seed, seconds, trace)
    passes = [run["warm"], *run["plain"], *run["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["failures"]:
            print(f"FAILED {msg}", file=sys.stderr)
    n_plain, n_traced = len(run["plain"]), len(run["traced"])
    print(f"workload {name}  seed {seed}  {n_plain} untraced / {n_traced} traced passes")
    correct = failed == 0
    if trace:
        values, problems = per_layer(run, name)
        for msg in problems:
            print(f"TRACE CHECK FAILED {msg}", file=sys.stderr)
        correct = correct and not problems
        listed = SPEC["per_layer"]
        notes = {k: f"median of {n_plain}" for k in command_metrics(run)}
    else:
        values = {**end_to_end(run), **command_metrics(run)}
        listed = SPEC["end_to_end"]
        notes = {"setup_s": f"median of {len(run['setup'])}", "peak_rss_mb": "process peak"}
    for k, v in values.items():
        note = notes.get(k, f"median of {n_traced if trace else n_plain}")
        print(f"  {k:44s} {v:16.6g} {UNITS[k]:6s} {note}")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in run["plain"]))
    print("  pass wall_probes: " + " ".join(f"{p['wall_probes']:.1f}" for p in run["plain"]))
    print(f"  {'ops_attempted':44s} {attempted:16d} count")
    print(f"  {'ops_failed':44s} {failed:16d} count")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None):
    os.chdir(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
