"""Pipeline benchmark: cold ``recallscan pipeline`` processes on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client starts one pipeline process, waits for it to exit and
checks its artifacts, then starts the next, until ``--seconds`` have passed
(at least one run). Inputs are generated from ``--seed`` into
``.perfbench_work/<workload>/`` at the repository root before timing starts.

``--trace 0`` reports the end-to-end metrics: medians over the runs of wall
time, CPU time and peak RSS per process, the set-up time and the share of
runs that passed every check. ``--trace 1`` alternates untraced runs with
traced ones (``probe.py``) and reports the per-layer metrics as medians over
the traced runs, plus the tracing overhead. The last line of standard output
is the result object; the line before it holds quartiles, sample counts and
the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import probe
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH_DIR / "expected_hashes.json"

DEFAULT_SEED = 0  # the seed whose artifact hashes are recorded
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 150
CLOSED_PROXY = "http://127.0.0.1:9"  # the discard port; nothing listens there
PREFLIGHT = "import recallscan.cli, sys; sys.stdout.write(recallscan.cli.__file__)"

# name -> (kind, generator); kind "fixture", "warm" (complete cache, read
# only) or "cold" (empty cache, pages served from memory).
WORKLOADS = {
    "fixture-table2": ("fixture", None),
    "cache-x10": ("warm", workloads.cache_x10),
    "cache-x10-cold": ("cold", workloads.cache_x10),
    "labels-wide": ("warm", workloads.labels_wide),
}
ZERO_COUNTERS = {
    "dropped_null_root_cause": 0,
    "dropped_duplicates": 0,
    "dropped_date_outliers": 0,
    "stripped_char_count": 0,
    "unmatched_product_codes": 0,
}


@dataclass
class Workload:
    """A generated workload directory and what its runs must produce."""

    name: str
    kind: str
    cwd: Path
    command: list[str]
    rows: int
    planted: dict
    hashes: dict | None
    cache_before: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OPENFDA_API_KEY", None)  # the key would change effective_config.json
    # Any HTTP request goes to a closed local port and fails at once, so a
    # run that reaches for the network fails instead of leaving the machine.
    for name in ("NO_PROXY", "no_proxy"):
        env.pop(name, None)
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "http_proxy", "https_proxy", "ALL_PROXY", "all_proxy"):
        env[name] = CLOSED_PROXY
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare(name: str, seed: int, target: Path, env: dict, expected: dict) -> Workload:
    """Generate inputs, expected values and cache hashes, and check the import.

    ``expected`` maps workload names to recorded artifact hashes; the fixture
    workload's apply on every seed, the others' on ``DEFAULT_SEED`` only.
    """
    kind, generate = WORKLOADS[name]
    target.mkdir(parents=True)
    cli = [sys.executable, "-m", "recallscan.cli", "pipeline"]
    recorded = expected.get(name)
    if kind == "fixture":
        work = Workload(
            name, kind, target, cli + ["--fixture", "table2", "--out", "out"],
            rows=workloads.REFERENCE_RECORDS, planted=dict(ZERO_COUNTERS), hashes=recorded,
        )
    else:
        inputs = generate(seed)
        pages = str(inputs.max_pages)
        if kind == "warm":
            workloads.write_cache(inputs, target / "cache")
            command = cli + ["--cache-dir", "cache", "--max-pages", pages, "--out", "out"]
            snapshot = checks.tree_hashes(target / "cache")
        else:
            workloads.write_cache(inputs, target / "origin")
            command = [sys.executable, str(BENCH_DIR / "cold.py"), "--origin", "origin",
                       "--cache-dir", "cache", "--out", "out", "--max-pages", pages]
            snapshot = checks.tree_hashes(target / "origin")
        work = Workload(
            name, kind, target, command, rows=inputs.rows, planted=inputs.planted,
            hashes=recorded if seed == DEFAULT_SEED else None,
            cache_before=snapshot, notes=inputs.notes,
        )
    found = subprocess.run(
        [sys.executable, "-c", PREFLIGHT], cwd=target, env=env,
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if found.returncode == 0 and not Path(found.stdout).resolve().is_relative_to(SRC):
        raise SystemExit(f"recallscan resolves to {found.stdout}, not to {SRC}")
    return work


def spawn(command: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, float, float, int]:
    """Run one process; wall time from spawn to exit, CPU and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_once(work: Workload, env: dict, command: list[str], tag: str) -> Sample:
    """One pipeline process on fresh output (and, for cold, an empty cache)."""
    shutil.rmtree(work.cwd / "out", ignore_errors=True)
    if work.kind == "cold":
        shutil.rmtree(work.cwd / "cache", ignore_errors=True)
    log = work.cwd / f"{tag}.log"
    wall, cpu, rss, code = spawn(command, work.cwd, env, log)
    problems = []
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
        problems.append(f"exit code {code}: {tail}")
    else:
        problems += checks.check_artifacts(work.cwd / "out", work.rows, work.planted, work.hashes)
        if work.kind == "warm":
            problems += checks.check_cache_unchanged(work.cwd / "cache", work.cache_before)
        elif work.kind == "cold":
            problems += checks.check_cache_written(work.cwd / "cache", work.cache_before)
    return Sample(wall, cpu, rss, [f"{tag}: {p}" for p in problems])


def probe_command(work: Workload, index: int) -> tuple[list[str], Path]:
    trace = work.cwd / f"trace-{index}.json"
    if work.kind == "cold":
        mode, argv = "cold", work.command[2:]
    else:
        mode, argv = "cli", work.command[3:]
    spec = {"workload": work.name, "mode": mode, "argv": argv, "trace": str(trace)}
    spec_path = work.cwd / f"probe-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return [sys.executable, str(BENCH_DIR / "probe.py"), str(spec_path)], trace


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    versions = {}
    for package in ("numpy", "numba", "click", "requests"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "packages": versions,
        "numba_present": versions["numba"] is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(work: Workload, env: dict, seconds: float, trace: bool):
    """Run until ``seconds`` have passed; with ``trace``, pair each run with a traced one."""
    runs: list[Sample] = []
    traced_runs: list[Sample] = []
    traces: list[tuple[float, dict]] = []  # (traced wall minus after-run timings, layers)
    absent: list[str] = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(run_once(work, env, work.command, f"run-{len(runs)}"))
        if not trace:
            continue
        command, trace_path = probe_command(work, len(traced_runs))
        sample = run_once(work, env, command, f"traced-{len(traced_runs)}")
        traced_runs.append(sample)
        if not trace_path.is_file():
            sample.problems.append(f"traced-{len(traced_runs) - 1}: no trace written")
            continue
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        absent = data["absent"]
        traces.append((sample.wall_s - data["analysis_s"], probe.layer_metrics(data)))
    return runs, traced_runs, traces, absent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recallscan" / "__init__.py").is_file():
        print(f"no recallscan sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = child_env()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    root = WORK / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        work = prepare(args.workload, args.seed, root, env, expected)
        setup_times.append(time.perf_counter() - start)

    runs, traced_runs, traces, absent = measure(work, env, args.seconds, bool(args.trace))
    samples = runs + traced_runs
    problems = [p for s in samples for p in s.problems]
    failed = sum(1 for s in samples if s.problems)
    stats = {
        "wall_s": summary([s.wall_s for s in runs]),
        "cpu_s": summary([s.cpu_s for s in runs]),
        "peak_rss_mb": summary([s.peak_rss_mb for s in runs]),
        "setup_s": summary(setup_times),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: 0.0 for name in units}
        if traces:
            walls = [wall for wall, _ in traces]
            stats["traced_wall_s"] = summary(walls)
            for name in traces[0][1]:
                metrics[name] = statistics.median(layers[name] for _, layers in traces)
            metrics["trace.overhead_s"] = statistics.median(walls) - stats["wall_s"]["median"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: stats[name]["median"] for name in stats}
        metrics["pass_rate"] = (len(samples) - failed) / len(samples)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "summaries": stats,
        "planted": work.planted,
        "dirt_without_counter": work.notes,
        "hash_check": work.hashes is not None,
        "absent": absent,
        "problems": problems[:10],
        "environment": environment(),
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
