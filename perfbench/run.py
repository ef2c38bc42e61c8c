"""spotdeck benchmark: one seeded workload per run, end-to-end or per-module metrics.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 20 --trace 0

The run imports spotdeck from this checkout's ``src/``, builds its inputs
from the seed (set-up), then runs the workload's fixed command list in passes
until another pass would overrun ``--seconds`` (at least one pass).  CLI
commands go through ``spotdeck.cli.main(argv)`` in this process with stdout
and stderr captured; every output is checked against an answer derived from
the construction, not from the code under test.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates whole untraced and traced passes and reports per-module
metrics from spans recorded around the calls into each module (see
``tracing.py``).  The last line of stdout is one JSON object; a fuller
record, spans included, goes to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up is repeated and its median reported, so that work moved there shows.
# Small set-ups repeat until they span a couple of seconds: the machine's
# speed drifts over about a second, more than a 50 ms set-up can average.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# a 90th percentile needs ten samples beyond it
P90_MIN_SAMPLES = 100


def import_spotdeck() -> dict:
    """Import spotdeck afresh from ``src/`` and return its modules by short name."""
    for name in [m for m in sys.modules if m == "spotdeck" or m.startswith("spotdeck.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("spotdeck")
    if Path(package.__file__).resolve().parent != (SRC / "spotdeck").resolve():
        raise ImportError(f"spotdeck was imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"spotdeck.{name}") for name in tracing.MODULES}
    modules["spotdeck"] = package
    return modules


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def setup(workload: str, seed: int, workdir: Path, traced: bool):
    """Import, build the inputs, write the deck files and derive the expected answers."""
    start = time.perf_counter()
    modules = import_spotdeck()
    tracer = tracing.Tracer(modules) if traced else None
    if tracer:
        tracer.install()
    try:
        prepared = workloads.WORKLOADS[workload](
            SimpleNamespace(**modules), random.Random(seed), workdir, ROOT
        )
    finally:
        if tracer:
            tracer.uninstall()
    return time.perf_counter() - start, prepared, tracer


def measure(commands, seconds: float, tracer=None, log=print) -> dict:
    """Run the command list in passes for ``seconds``; every output is checked.

    Without a tracer the last pass may stop part-way: a command starts only if
    its previous latency says it ends within ``seconds``, so that a workload
    whose pass takes half the run is still measured for the whole run.  With a
    tracer, whole untraced and traced passes alternate, at least one of each.
    Returns each command's untraced latencies, the wall time of each traced
    pass, and the attempted and failed commands of all passes.
    """
    latencies: list[list[float]] = [[] for _ in commands]
    traced_walls: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()

    def run_one(command) -> float:
        nonlocal attempted
        t0 = time.perf_counter()
        try:
            output = command.run()
        except Exception as exc:  # counted as a failed command, the run goes on
            latency = time.perf_counter() - t0
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - t0
            try:
                problem = command.verify(output)
            except Exception as exc:  # malformed output the oracle could not read
                problem = f"output check raised {type(exc).__name__}: {exc}"
        attempted += 1
        if problem is not None:
            failures.append(f"{command.label}: {problem}")
            if len(failures) <= 20:
                log(f"FAIL {command.label}: {problem}")
        return latency

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    if tracer is None:
        first = True
        while True:
            for index, command in enumerate(commands):
                if not first and latencies[index][-1] > left():
                    return _result(latencies, traced_walls, attempted, failures)
                latencies[index].append(run_one(command))
            first = False

    while True:
        pair_start = time.perf_counter()
        for index, command in enumerate(commands):
            latencies[index].append(run_one(command))
        pass_index = 2 * len(traced_walls) + 1
        tracer.install()
        try:
            wall = 0.0
            for index, command in enumerate(commands):
                tracer.command = f"{pass_index}:{index}"
                wall += run_one(command)
        finally:
            tracer.command = None
            tracer.uninstall()
        traced_walls.append(wall)
        if time.perf_counter() - pair_start > left():
            return _result(latencies, traced_walls, attempted, failures)


def _result(latencies, traced_walls, attempted, failures) -> dict:
    return {"latencies": latencies, "traced_walls": traced_walls, "attempted": attempted, "failures": failures}


def run_metadata(args) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def end_to_end(setup_times: list[float], result: dict) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, further figures printed and recorded)."""
    per_command = [statistics.median(one) for one in result["latencies"]]
    pooled = [t for one in result["latencies"] for t in one]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_command), "s"),
        "op_p50_ms": (1000 * statistics.median(per_command), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "fail_ratio": (len(result["failures"]) / result["attempted"], "1"),
        "commands": (len(pooled), "count"),
        "passes": (len(result["latencies"][0]), "count"),
        "setups": (len(setup_times), "count"),
    }
    if len(pooled) >= P90_MIN_SAMPLES:
        extra["op_p90_ms"] = (1000 * statistics.quantiles(pooled, n=10)[-1], "ms")
    return metrics, extra


def per_layer(tracer, result: dict) -> dict:
    metrics = tracing.layer_metrics(tracer.spans, len(result["traced_walls"]))
    untraced = sum(statistics.median(one) for one in result["latencies"])
    out = {name: (value, _layer_unit(name)) for name, value in metrics.items()}
    out["trace_overhead_s"] = (statistics.median(result["traced_walls"]) - untraced, "s")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_per_knode"):
        return "1/knode"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spotdeck" / "__init__.py").is_file():
        print(f"error: no spotdeck sources under {SRC}", file=sys.stderr)
        return 2

    meta = run_metadata(args)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} sha={meta['git_sha']} "
        f"dirty={meta['git_dirty']} python={meta['python']} nproc={meta['nproc']} "
        f"loadavg={meta['loadavg_at_start']}"
    )
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"decks-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times, digests = [], []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            seconds, prepared, tracer = setup(args.workload, args.seed, workdir, False)
            setup_times.append(seconds)
            digests.append(digest(prepared.texts))
            gc.collect()  # frees the previous import, which would otherwise raise peak_rss_mb
        if args.trace:
            # the traced set-up feeds the constructions metrics
            _, prepared, tracer = setup(args.workload, args.seed, workdir, True)
            digests.append(digest(prepared.texts))
        result = measure(prepared.commands, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    reproducible = len(set(digests)) == 1
    if not reproducible:
        print(f"FAIL set-up is not reproducible: digests {sorted(set(digests))}")
    print(
        f"inputs: {len(prepared.inputs)} decks, {len(prepared.commands)} commands per pass, "
        f"digest {digests[0][:16]}"
    )
    for record in prepared.inputs:
        print(f"  {record['name']}: c={record['c']} l={record['l']} card_pairs={record['card_pairs']}")

    if args.trace:
        shown = per_layer(tracer, result)
        reported = shown
    else:
        reported, extra = end_to_end(setup_times, result)
        shown = {**reported, **extra}
    for name, (value, unit) in shown.items():
        print(f"  {name:38} {value:.6g} {unit}")

    record = {
        "meta": meta,
        "inputs": prepared.inputs,
        "digest": digests[0],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
        "failures": failures,
        "reproducible": reproducible,
        "untraced_latencies": result["latencies"],
        "spans": tracer.spans if args.trace else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    summary = {
        "correct": reproducible and not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
