#!/usr/bin/env python3
"""Concilium end-to-end and per-layer benchmark.

Run from the root of a Concilium checkout:

    python3 perfbench/run.py --workload sim-default --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --all
    python3 perfbench/run.py --smoke

This script builds perfbench/bench.exe with dune, then runs one workload
iteration per process (so peak RSS and heap state never carry over). Each
run covers a fixed set of input seeds derived from --seed: sub-seed 0 is
--seed itself, so a sim-default run at --seed 7 reproduces
`concilium_sim.exe --seed 7` and is checked against that tool's summary.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate step-traced run; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Any failed output check
makes "correct" false and counts every operation as failed. A crash exits
nonzero and names the workload and seed to replay.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "bench.exe"
SIM_EXE = ROOT / "_build" / "default" / "bin" / "concilium_sim.exe"

# Nominal seconds of one untraced iteration on a 2-core host; see iterations().
NOMINAL_ITERATION_S = {"sim-default": 11.0, "diagnose-heavy": 2.5, "fig5-pooled": 6.0}
# concilium_sim's and experiments' default seeds.
DEFAULT_SEED = {"sim-default": 7, "diagnose-heavy": 7, "fig5-pooled": 1907}
# sim-default's iterations are long (about 11 s); three of them keep its
# run under a minute on a slow host while its medians still span three
# worlds.
MIN_ITERATIONS = 3
# Extra set-up-only processes, so setup_s is a median over several set-ups.
SETUP_ONLY_RUNS = 5
SUBPROCESS_TIMEOUT_S = 150

# The summary `concilium_sim.exe --seed 7` prints with its defaults.
SEED7_SUMMARY = """world: 7280 routers, 9627 links, 190 overlay nodes
routing-state validation: 427/6059 advertisements flagged (7.0%; density-test false positives in an honest world)

messages: 400 sent, 90 delivered, 310 dropped
diagnoses: 3 correct (node), 285 correct (network), 13 wrong, 9 undiagnosed
diagnosis accuracy: 95.7%
control-plane bandwidth: 390 B/s per node (probes + snapshot diffs + heavyweight bursts)
"""

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "minor_mwords": "Mwords",
    "peak_rss_mb": "MB",
    "diagnosis_accuracy": "ratio",
}

# Per-layer metrics and their units, by layer group. Setup layers are
# replayed on every workload; a workload that never enters a layer reports
# 0 for it (validation outside sim-default, the simulation layers in
# fig5-pooled, the pool outside it).
SETUP_LAYERS = {
    "topology.generate_s": "s",
    "crypto.pki_issue_s": "s",
    "overlay.pastry_build_s": "s",
    "topology.routes_s": "s",
    "topology.routes_calls": "count",
    "tomography.tree_build_s": "s",
    "core.world_build_s": "s",
}
SIM_LAYERS = {
    "core.validation_s": "s",
    "core.validations": "count",
    "core.validation_us_each": "us",
    "core.validation_flagged_ratio": "ratio",
    "core.validation_minor_mwords": "Mwords",
    "protocol.probe_round_s": "s",
    "protocol.probe_rounds": "count",
    "protocol.probe_round_us_each": "us",
    "protocol.probe_minor_mwords": "Mwords",
    "tomography.observations": "count",
    "protocol.judgment_s": "s",
    "protocol.judgments": "count",
    "protocol.judgment_ms_each": "ms",
    "protocol.judgment_minor_mwords": "Mwords",
    "protocol.judgment_growth": "ratio",
    "tomography.heavy_burst_self_s": "s",
    "tomography.minc_s": "s",
    "core.blame_s": "s",
    "core.stewardship_s": "s",
    "core.judgment_other_s": "s",
    "core.diagnosed_ratio": "ratio",
    "core.insufficient_ratio": "ratio",
    "protocol.forward_s": "s",
    "protocol.retransmit_ratio": "ratio",
    "netsim.engine_steps": "count",
    "netsim.engine_only_s": "s",
    "netsim.queue_depth_max": "count",
}
POOL_LAYERS = {
    "pool.busy_s": "s",
    "pool.idle_s": "s",
    "pool.steal_wait_s": "s",
    "pool.steals": "count",
    "pool.utilization": "ratio",
    "experiments.blame_world_create_s": "s",
    "experiments.blame_world_run_s": "s",
}
# Computed here from an untraced and a traced run of the same input.
PAIR_METRICS = {
    "netsim.wall_s_per_sim_hour": "s",
    "obs.trace_overhead_ratio": "ratio",
}
PER_LAYER = {**SETUP_LAYERS, **SIM_LAYERS, **POOL_LAYERS, **PAIR_METRICS}


class Crash(Exception):
    pass


def sub_seed(seed, i):
    """Input seed of a run's i-th iteration; the 0th is --seed itself."""
    return seed + 1_000_003 * i


def build(targets):
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        sys.exit(f"perfbench: {ROOT} is not a Concilium checkout (no dune-project or lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", str(ROOT), *targets],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"perfbench: dune build failed (exit {proc.returncode})")


def iterate(workload, seed, *flags):
    """One bench.exe process; returns its result record."""
    argv = [str(EXE), workload, str(seed), *flags]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Crash(f"timed out after {SUBPROCESS_TIMEOUT_S} s: {' '.join(argv[1:])}")
    if proc.returncode != 0:
        raise Crash(f"exit {proc.returncode}: {' '.join(argv[1:])}\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if "total_s" in record:
        print(f"perfbench: {' '.join(argv[1:])}: total {record['total_s']:.3f} s, "
              f"setup {record['setup_s']:.3f} s, run {record['run_s']:.3f} s, "
              f"{record['episodes']} episodes, "
              f"peak {record['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def check_records(records, problems):
    for r in records:
        for name in r["failed_checks"]:
            problems.append(f"seed {r['seed']}: {name}")


def check_repeats(pairs, problems):
    """Runs of the same input seed must produce the same digest."""
    for a, b in pairs:
        if a["digest"] != b["digest"]:
            problems.append(f"seed {a['seed']}: digest differs between repeated runs")


def check_reference(workload, records, problems):
    for r in records:
        if workload == "sim-default" and r["seed"] == "7" and r["summary"] != SEED7_SUMMARY:
            problems.append("seed 7: summary differs from concilium_sim --seed 7")


def iterations(workload, seconds, per_iteration=1):
    """How many iterations (or pairs) a run of --seconds makes: a function
    of the arguments alone, so a seed always yields the same inputs."""
    return max(1, round(seconds / (per_iteration * NOMINAL_ITERATION_S[workload])))


def end_to_end(workload, seed, seconds, tiny=()):
    n = max(MIN_ITERATIONS, iterations(workload, seconds))
    records = []
    for i in range(n):
        flags = ["--check-sequential"] if workload == "fig5-pooled" and i == 0 else []
        records.append(iterate(workload, sub_seed(seed, i), *flags, *tiny))
    setups = [r["setup_s"] for r in records]
    for i in range(SETUP_ONLY_RUNS):
        setups.append(iterate(workload, sub_seed(seed, i % n), "--setup-only", *tiny)["setup_s"])
    problems = []
    check_records(records, problems)
    check_reference(workload, records, problems)
    episodes = sum(r["episodes"] for r in records)
    metrics = {
        "total_s": median([r["total_s"] for r in records]),
        "setup_s": median(setups),
        # Work completed per wall second over the whole run: a ratio of sums
        # uses every iteration, where a median of three sim-default
        # iterations would rest on one.
        "episodes_per_s": episodes / sum(r["run_s"] for r in records),
        "minor_mwords": median([r["minor_mwords"] for r in records]),
        # The largest resident set any iteration process needed.
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "diagnosis_accuracy": sum(r["correct"] for r in records) / max(1, episodes),
    }
    return metrics, END_TO_END, records, problems


def per_layer(workload, seed, seconds, tiny=()):
    """Pairs of an untraced and a traced iteration on the same input seed:
    their digests must agree, and the traced one gives the layer numbers."""
    plain, traced = [], []
    for i in range(iterations(workload, seconds, per_iteration=2)):
        s = sub_seed(seed, i)
        flags = ["--check-sequential"] if workload == "fig5-pooled" and i == 0 else []
        plain.append(iterate(workload, s, *flags, *tiny))
        traced.append(iterate(workload, s, "--traced", *tiny))
    problems = []
    check_records(plain + traced, problems)
    check_repeats(zip(plain, traced), problems)
    check_reference(workload, plain, problems)
    expected = {**SETUP_LAYERS, **(POOL_LAYERS if workload == "fig5-pooled" else SIM_LAYERS)}
    for r in traced:
        missing = [k for k in expected if k not in r]
        if missing:
            problems.append(f"seed {r['seed']}: traced run lacks {', '.join(missing)}")
    metrics = {k: median([r.get(k, 0) for r in traced]) for k in PER_LAYER}
    metrics["obs.trace_overhead_ratio"] = median(
        [t["run_s"] / p["run_s"] for p, t in zip(plain, traced)])
    # Wall per simulated hour from the untraced runs, which tracing cannot inflate.
    metrics["netsim.wall_s_per_sim_hour"] = median(
        [p["run_s"] / p["sim_hours"] if p["sim_hours"] > 0 else 0 for p in plain])
    return metrics, PER_LAYER, plain + traced, problems


def result_line(metrics, units, records, problems):
    attempted = sum(r["operations"] for r in records)
    failed = attempted if problems else sum(r["failed_operations"] for r in records)
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def smoke():
    """Every workload at tiny size through every check, both modes, then the
    seed-7 reference against concilium_sim itself. Nonzero on any failure."""
    build(["./perfbench/bench.exe", "./bin/concilium_sim.exe"])
    problems = []
    for workload in NOMINAL_ITERATION_S:
        for mode in (end_to_end, per_layer):
            metrics, units, records, found = mode(workload, 3, 1, tiny=("--tiny",))
            problems.extend(f"{workload} {mode.__name__}: {p}" for p in found)
            json.loads(result_line(metrics, units, records, found))
        print(f"smoke: {workload}: checked", file=sys.stderr)
    reference = iterate("sim-default", 7)
    check_records([reference], problems)
    ours = reference["summary"]
    theirs = subprocess.run([str(SIM_EXE), "--seed", "7"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout
    if ours != SEED7_SUMMARY:
        problems.append("sim-default seed 7 summary differs from the recorded reference")
    if ours != theirs:
        problems.append("sim-default seed 7 summary differs from concilium_sim --seed 7")
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def run_all(seconds):
    """Every workload at its default seed, one line of end-to-end metrics
    each. Nonzero if any output check fails."""
    build(["./perfbench/bench.exe"])
    failed = False
    for workload, seed in DEFAULT_SEED.items():
        metrics, units, _, problems = end_to_end(workload, seed, seconds)
        for p in problems:
            print(f"perfbench: {workload}: check failed: {p}", file=sys.stderr)
        failed = failed or bool(problems)
        print(f"{workload} (seed {seed}): "
              + ", ".join(f"{k} {metrics[k]:.4g} {units[k]}" for k in units)
              + (" -- CHECKS FAILED" if problems else ""))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_ITERATION_S))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload at its default seed")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size through every check")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.all:
            return run_all(args.seconds)
        if args.workload is None:
            parser.error("--workload, --all or --smoke is required")
        seed = args.seed if args.seed is not None else DEFAULT_SEED[args.workload]
        build(["./perfbench/bench.exe"])
        started = time.monotonic()
        mode = per_layer if args.trace else end_to_end
        metrics, units, records, problems = mode(args.workload, seed, args.seconds)
    except Crash as crash:
        sys.stderr.write(f"perfbench: crashed: {crash}\n"
                         f"replay: {' '.join(['python3', 'perfbench/run.py', *sys.argv[1:]])}\n")
        return 1
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {seed}: {len(records)} iterations in "
          f"{time.monotonic() - started:.1f} s on {os.cpu_count()} CPUs", file=sys.stderr)
    print(result_line(metrics, units, records, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
