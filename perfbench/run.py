"""cubic27 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a cubic27 checkout; see perfbench/README.md for the
workloads and metrics.  Every execution starts a fresh interpreter
(``perfbench/child.py``), because ``weyl_group``, ``incidence_graph`` and
other results are cached for the life of a process and a second execution
in the same process would time a warm start no user sees.  The child sets
up the shared exact state, runs the job and returns its structured output,
which is checked here against ``perfbench/reference.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  A run
executes the workload's fixed list of program seeds in rounds, repeating
the same seeds until ``--seconds`` of job time have been measured, so that
a faster program repeats its work rather than doing different work.  Set-up
is repeated in extra interpreters until there are SETUP_SAMPLES samples.
All of them run on one CPU beside ``perfbench/speed.py``, which samples that
CPU's momentary speed; each time is scaled by the speed sampled while it
ran to the reference speed PIECE_REF_S.  Times are the median over the
seeds of each seed's median, and the unscaled times are in the details.

``--trace 1`` reports the per-layer metrics.  An untraced and a traced
child run side by side, so that both see the same contention and their
difference is the tracing overhead; then a second traced child runs alone
and gives the per-layer numbers.  Every integer counter of the two traced
runs must agree exactly, and every per-layer metric must have been recorded
unless its layer is idle on the workload, or the run is marked incorrect.

The last line of standard output is the result object; the line before it
holds the run's details (environment, seeds, samples, ops and the sha256
of each structured output).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5
SPEED = os.path.join(HERE, "speed.py")
# What speed.piece takes, in seconds, at the speed the reported times are
# scaled to (about its fastest on a 2-vCPU Xeon VM with Python 3.11).
PIECE_REF_S = 0.00023


def _cli(*args: str):
    return lambda seed: {"cli": ["--seed", str(seed), "--format", "structured", *args]}


# name -> (the job for one program seed, program seeds per --trace 0 run).
# How much work an execution does depends on its seed (how many loops run
# before the stall counter stops a monodromy run, how many samples
# find_other_s6 draws), so a run executes several seeds and reports medians.
# symmetric_fixed's 8 loops stay below the stall threshold of 10 accepted
# loops without growth, so every execution tracks exactly 8 loops and ends
# inconclusive (exit code 1).
WORKLOADS = {
    "exact": (_cli("verify-all", "--skip-monodromy"), 3),
    "symmetric_fixed": (_cli("monodromy", "--family", "symmetric", "--loops", "8"), 3),
    "symmetric": (_cli("monodromy", "--family", "symmetric", "--loops", "40"), 3),
    "full": (_cli("monodromy", "--family", "full", "--loops", "300"), 1),
}
# Execution j of a run uses program seed seed + j * SEED_STRIDE, so the first
# runs at the benchmark seed and runs with nearby seeds share no execution.
SEED_STRIDE = 100_003

# Per-layer metrics that read 0 when absent from a traced run: counters of
# events that need not happen, and the metrics of layers a workload does not
# use (by name prefix).  Any other per-layer metric missing from a traced run
# means a span was lost (renamed, made private or bypassed), and the run is
# marked incorrect.
_MONODROMY_IDLE = (
    "lines.graph_automorphisms.",
    "lattice.",
    "symverify.",
    "monodromy.find_other_s6.",
    "perm.centralizer.",
    "perm.normalizer.",
    "perm.is_subconjugate.",
)
IDLE = {
    "exact": (
        "htrack.",
        "monodromy.probe_discriminant.",
        "monodromy.compute_monodromy.",
        "monodromy.loops",
        "monodromy.s_per_accepted_loop",
    ),
    "symmetric_fixed": _MONODROMY_IDLE,
    "symmetric": _MONODROMY_IDLE,
    "full": _MONODROMY_IDLE,
}


class BenchmarkError(RuntimeError):
    pass


def _spawn(job: dict, trace: bool = False) -> subprocess.Popen:
    cmd = [sys.executable, CHILD, "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if trace:
        cmd.append("--trace")
    cmd.append(json.dumps(job))
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _collect(proc: subprocess.Popen) -> dict:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchmarkError(f"child exited with code {proc.returncode}")
    return json.loads(out)


def _run(job: dict, trace: bool = False) -> dict:
    return _collect(_spawn(job, trace))


def _run_pair(job: dict) -> tuple[dict, dict]:
    """An untraced and a traced child side by side."""
    plain, traced = _spawn(job), _spawn(job, trace=True)
    try:
        return _collect(plain), _collect(traced)
    finally:
        if traced.poll() is None:
            traced.kill()
            traced.wait()


# -- output checks ---------------------------------------------------------


def _check(workload: str, sample: dict, ref: dict) -> list[dict]:
    """One record per op: its name and whether it passed."""
    try:
        doc = json.loads(sample["output"])
    except json.JSONDecodeError:
        doc = {}
    # a fixed number of loops cannot stabilise, so that run must end inconclusive
    exit_ok = sample["exit_code"] == (1 if workload == "symmetric_fixed" else 0)
    if workload == "exact":
        claims = {c.get("id"): c.get("pass") is True for c in doc.get("claims", [])}
        return [
            {"op": claim_id, "pass": exit_ok and claims.get(claim_id, False)}
            for claim_id in ref["claim_ids"]
        ]
    loops = doc.get("loops", [])
    accepted = [r for r in loops if r.get("accepted")]
    elements = set(doc.get("group_elements", []))
    ok = (
        exit_ok
        and doc.get("invariant_violations") == 0
        and all(r.get("revalidated") for r in accepted)
    )
    if workload == "symmetric_fixed":
        # a fixed number of loops proves no lower bound, so the group found
        # must lie inside the Klein 4-group rather than equal it
        ok = (
            ok
            and doc.get("conclusive") is False
            and len(loops) == 8
            and bool(accepted)
            and elements <= set(ref["klein4_elements"])
        )
    elif workload == "symmetric":
        ok = ok and doc.get("conclusive") is True and elements == set(ref["klein4_elements"])
    else:
        ok = ok and doc.get("conclusive") is True and doc.get("group", {}).get("order") == ref["weyl_order"]
    return [{"op": f"{workload}-monodromy", "pass": ok}]


# -- modes -------------------------------------------------------------------


def _measure(workload: str, seed: int, seconds: float) -> tuple[list[list[dict]], list[dict]]:
    """Rounds over the workload's fixed seeds until ``seconds`` of job time
    are measured, then set-up-only children until there are SETUP_SAMPLES
    set-ups in all.  Returns the rounds and every child's output."""
    job, executions = WORKLOADS[workload]
    seeds = [seed + j * SEED_STRIDE for j in range(executions)]
    rounds: list[list[dict]] = []
    while not rounds or sum(r["wall_s"] for rnd in rounds for r in rnd) < seconds:
        rounds.append([{"seed": s, **_run(job(s))} for s in seeds])
    children = [r for rnd in rounds for r in rnd]
    while len(children) < SETUP_SAMPLES:
        children.append(_run({}))
    return rounds, children


def _to_reference(samples: list, span: list[float]) -> float:
    """The factor that scales a time measured within ``span`` to the
    reference speed: the mean speed sampled in it (pieces per second, taken
    at even intervals, so their mean is the time average) times PIECE_REF_S."""
    speeds = [1 / seconds for at, seconds in samples if span[0] <= at <= span[1]]
    if not speeds:
        raise BenchmarkError("no speed samples within a measured span")
    return PIECE_REF_S * statistics.fmean(speeds)


def _seed_median(rounds: list[list[dict]], key: str) -> float:
    """Median over the seeds of each seed's median over the rounds."""
    return statistics.median(statistics.median(rnd[j][key] for rnd in rounds) for j in range(len(rounds[0])))


def _per_layer(workload: str, wanted: list[dict], values: dict) -> tuple[dict, list[str]]:
    """The per-layer values, with 0 for optional counters and idle layers,
    and the names of metrics that should have been recorded but were not."""
    out, missing = {}, []
    for m in wanted:
        name = m["name"]
        if name in values:
            out[name] = values[name]
        elif ".failed" in name or name.endswith(".capped") or name.startswith(IDLE[workload]):
            out[name] = 0
        else:
            missing.append(name)
    return out, missing


def _counter_mismatches(first: dict, second: dict) -> dict[str, list]:
    """Integer counters of two traced runs that differ."""
    names = {k for m in (first, second) for k, v in m.items() if isinstance(v, int)}
    return {k: [first.get(k), second.get(k)] for k in sorted(names) if first.get(k) != second.get(k)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cubic27", "cli.py")):
        print("no cubic27 sources under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)

    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
        },
    }
    if args.trace == 0:
        # the children and the speed sampler share one CPU, so that the
        # sampler sees the speed the children run at
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = subprocess.Popen([sys.executable, SPEED], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            rounds, children = _measure(args.workload, args.seed, args.seconds)
            samples = json.loads(speed.communicate(timeout=CHILD_TIMEOUT_S)[0])
        finally:
            if speed.poll() is None:
                speed.kill()
                speed.communicate()
        for r in children:
            r["setup_ref_s"] = r["setup_s"] * _to_reference(samples, r["setup_at"])
            if "job_at" in r:
                r["wall_ref_s"] = r["wall_s"] * _to_reference(samples, r["job_at"])
        checked = [r for rnd in rounds for r in rnd]
        ops = [op for r in checked for op in _check(args.workload, r, ref)]
        # ops counts the first round only, so that it does not grow with speed
        first_ops = [op for r in rounds[0] for op in _check(args.workload, r, ref)]
        values = {
            "wall_s": _seed_median(rounds, "wall_ref_s"),
            "setup_s": statistics.median(r["setup_ref_s"] for r in children),
            "peak_rss_mb": _seed_median(rounds, "peak_rss_mb"),
            "ops": sum(op["pass"] for op in first_ops),
        }
        details.update(
            seeds=[r["seed"] for r in rounds[0]],
            rounds=len(rounds),
            setup_s=[r["setup_s"] for r in children],
            setup_ref_s=[r["setup_ref_s"] for r in children],
            wall_ref_s=[r["wall_ref_s"] for r in checked],
            speed_samples=len(samples),
        )
        correct = True
    else:
        job = WORKLOADS[args.workload][0](args.seed)
        plain, traced_pair = _run_pair(job)
        traced = _run(job, trace=True)
        checked = [plain, traced_pair, traced]
        ops = [op for r in checked for op in _check(args.workload, r, ref)]
        measured = dict(traced["trace"])
        measured["trace.overhead_s"] = traced_pair["wall_s"] - plain["wall_s"]
        values, missing = _per_layer(args.workload, spec["per_layer"], measured)
        mismatches = _counter_mismatches(traced_pair["trace"], traced["trace"])
        details.update(counter_mismatches=mismatches, missing_metrics=missing)
        if values.get("trace.coverage", 0) < 0.9:
            print(f"warning: named spans cover {values.get('trace.coverage', 0):.1%} of the run", file=sys.stderr)
        correct = not mismatches and not missing

    failed = sum(not op["pass"] for op in ops)
    correct = correct and failed == 0
    details.update(
        ops=ops,
        wall_s=[r["wall_s"] for r in checked],
        outputs_sha256=[hashlib.sha256(r["output"].encode()).hexdigest() for r in checked],
    )
    print(json.dumps(details, sort_keys=True))
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    # turn SIGTERM into an exception so that every child is killed on the way out
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
