"""Benchmark of corrbinom, run from the root of a source checkout.

    python3 bench/run.py --workload study|bigdata|oracle|all --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

One process, one caller, no extra threads.  With ``--trace 0`` the chosen
workload runs rounds of operations for at least ``--seconds`` seconds of
timed calls and reports the end-to-end metrics.  With ``--trace 1`` it
runs one fixed round untraced and then the same round traced, and reports
the per-layer metrics (see tracing.py).  Output checks run outside the
timed calls.  The last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; a full run record goes to
``bench/out/``.  The exit status is 1 when an output check failed and 2
when corrbinom cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import corrbinom  # noqa: E402
except ImportError as exc:
    print(f"bench: cannot import corrbinom from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(corrbinom.__file__).resolve().parent != SRC / "corrbinom":
    print(f"bench: corrbinom was imported from {corrbinom.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# End-to-end metrics as (name, unit, better); BENCHMARK.json lists the same.
# ops_per_s is reps_per_s (study), obs_per_s (bigdata) or checks_per_s
# (oracle); ok_share is 1 - failed_share.  The median call time is printed
# and recorded under its per-workload name but not listed: over ten seeds
# its spread reached 0.17-0.24 of its median on a shared host, too close to
# the largest bound a listed metric may have.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
    ("ops_per_s", "1/s", "higher"),
]

# setup_s is the median of SETUP_LAUNCHES launches, made SETUP_BATCH at a
# time before the first round and after each round (the rest at the end),
# so that they sample the machine's speed across the whole run.
SETUP_LAUNCHES = 21
SETUP_BATCH = 3
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import corrbinom, corrbinom.cli"


@dataclass
class Outcome:
    op: Op
    seconds: float
    gauge: float | None
    payload: object = None
    error: Exception | None = None
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_round(ops: list[Op], kernel: str | None = None) -> list[Outcome]:
    """Call every operation once, timing each call and nothing else.

    With a reference ``kernel``, gauge the host's speed just before each call.
    """
    outcomes = []
    for op in ops:
        gauge = reference.gauge(kernel) if kernel else None
        start = time.perf_counter()
        try:
            payload = op.run()
        except Exception as exc:  # a raising operation is a failed one
            outcomes.append(Outcome(op, time.perf_counter() - start, gauge, error=exc))
        else:
            outcomes.append(Outcome(op, time.perf_counter() - start, gauge, payload))
    return outcomes


def settle(load, outcomes: list[Outcome]) -> None:
    """Check each outcome's output and count its failed operations."""
    for outcome in outcomes:
        if outcome.error is not None:
            outcome.failed = outcome.op.attempted
            if not isinstance(outcome.error, load.expected_errors):
                outcome.problems.append(f"{outcome.op.label}: raised {outcome.error!r}")
        else:
            outcome.problems = load.check(outcome.op, outcome.payload)
            outcome.failed = min(outcome.op.attempted,
                                 load.failed(outcome.payload) + len(outcome.problems))
        outcome.payload = None


def launch_setup() -> tuple[float, float]:
    """Wall time of one fresh interpreter importing corrbinom and its CLI,
    with the python kernel's time just before it.

    No timeout is passed: with one, subprocess polls for the exit in sleeps
    of up to 50 ms, and the times come out in 50 ms steps.
    """
    gauge = reference.gauge("python")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_SNIPPET, str(SRC)], cwd=ROOT, check=True)
    return time.perf_counter() - start, gauge


def timed(load, seconds: float) -> tuple[dict, list[Outcome], dict]:
    """Repeat the workload's round until the timed calls add up to ``seconds``.

    Every round makes the same calls on the same inputs, so each call's
    time is taken as its best over the rounds, and the reference kernel's
    time as its best over the run; times are then scaled by the kernel's
    nominal over its best time (see reference.py).  The set-up launches are
    scaled by the python kernel's median nominal over median measured time.
    """
    setup = [launch_setup() for _ in range(SETUP_BATCH)]
    outcomes: list[Outcome] = []
    best: list[float] = []
    measured = 0.0
    rounds = 0
    while rounds == 0 or measured < seconds:
        results = run_round(load.round_ops(), load.reference)
        measured += sum(o.seconds for o in results)
        raw = [o.seconds for o in results]
        best = raw if not best else list(map(min, best, raw))
        settle(load, results)
        outcomes += results
        rounds += 1
        setup += [launch_setup() for _ in range(min(SETUP_BATCH, SETUP_LAUNCHES - len(setup)))]
    setup += [launch_setup() for _ in range(SETUP_LAUNCHES - len(setup))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(o.op.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    round_units = sum(o.op.units for o in outcomes[:len(best)])
    kernel_s = min(o.gauge for o in outcomes)
    scale = reference.NOMINAL_S[load.reference] / kernel_s
    setup_s = statistics.median(t for t, _ in setup)
    setup_kernel_s = statistics.median(g for _, g in setup)
    values = {
        "setup_s": setup_s * reference.NOMINAL_S["python"] / setup_kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - failed / attempted,
        "ops_per_s": round_units / (sum(best) * scale),
        "op_s_p50": statistics.median(best) * scale,
    }
    samples = {
        "setup_launches": len(setup), "rounds": rounds,
        "calls_per_round": len(best), "timed_s": measured,
        "reference_kernel": load.reference, "kernel_best_s": kernel_s,
        "setup_kernel_median_s": setup_kernel_s,
        "best_call_s": {o.op.label: b for o, b in zip(outcomes, best)},
        "unscaled": {"setup_s": setup_s, "ops_per_s": round_units / sum(best),
                     "op_s_p50": statistics.median(best)},
    }
    return values, outcomes, samples


def traced(load) -> tuple[dict, list[Outcome], dict]:
    start = time.perf_counter()
    baseline = run_round(load.round_ops())
    untraced_wall = time.perf_counter() - start
    settle(load, baseline)
    tracer = tracing.Tracer()
    ops = load.round_ops()
    with tracer.installed(), tracer.span(tracing.ROOT):
        outcomes = run_round(ops)
    settle(load, outcomes)
    values = tracing.per_layer(tracer, untraced_wall)
    samples = {"spans": len(tracer.spans), "run_id": tracer.run_id,
               "untraced_wall_s": untraced_wall,
               "untraced_problems": [p for o in baseline for p in o.problems]}
    return values, outcomes, samples


def run_record(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": _git_sha(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": inputs.sizes()[args.workload],
    }


def _git_sha() -> str | None:
    """HEAD of the checkout's git directory, if it has one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        load = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, outcomes, samples = traced(load)
            specs = tracing.PER_LAYER
        else:
            values, outcomes, samples = timed(load, args.seconds)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for o in outcomes for p in o.problems] + samples.pop("untraced_problems", [])
    attempted = sum(o.op.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}

    record = run_record(args)
    record.update(samples=samples, attempted=attempted, failed=failed,
                  failed_share=failed / attempted, problems=problems, metrics=metrics)
    if not args.trace:
        record["named_metrics"] = {
            load.rate_name: values["ops_per_s"], load.latency_name: values["op_s_p50"],
            "failed_share": failed / attempted, "setup_s": values["setup_s"],
            "peak_rss_mb": values["peak_rss_mb"]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if not args.trace:
        print(f"{args.workload}  {load.rate_name:<40} {values['ops_per_s']:.6g} 1/s")
        print(f"{args.workload}  {load.latency_name:<40} {values['op_s_p50']:.6g} s "
              f"(median of {samples['calls_per_round']} calls' best of {samples['rounds']} rounds)")
        print(f"{args.workload}  {'failed_share':<40} {failed}/{attempted} {load.base}")
    for name, entry in metrics.items():
        print(f"{args.workload}  {name:<40} {entry['value']:.6g} {entry['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        status = max(status, child.returncode)
    return status


def selfcheck() -> int:
    """Check the generator, the metric names and the repeatable counts."""
    problems = []
    for seed in (7, 8):
        a, b = _inputs(seed), _inputs(seed)
        if not _same(a, b):
            problems.append(f"inputs differ between two draws with seed {seed}")
    if _same(_inputs(7), _inputs(8)):
        problems.append("seeds 7 and 8 give the same inputs")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, specs in (("end_to_end", END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if listed != list(specs):
            problems.append(f"BENCHMARK.json {key} does not match the code")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the code")

    repeated = ("em.iterations", "gridsearch.cells", "model.log_likelihood.obs")
    for name in WORKLOADS:
        plain = _child(name, trace=0)
        if set(plain["metrics"]) != {m for m, _, _ in END_TO_END} or not plain["correct"]:
            problems.append(f"{name}: untraced run lacks a metric or failed a check")
        first, second = _child(name, trace=1), _child(name, trace=1)
        if set(first["metrics"]) != {m for m, _, _ in tracing.PER_LAYER}:
            problems.append(f"{name}: traced run lacks a per-layer metric")
        for count in repeated:
            if first["metrics"][count]["value"] != second["metrics"][count]["value"]:
                problems.append(f"{name}: {count} differs between two runs with one seed")
        own = sum(e["value"] for m, e in first["metrics"].items() if m.endswith(".self_s"))
        wall = first["metrics"]["trace.wall_s"]["value"]
        if abs(own - wall) > 1e-6 * wall:
            problems.append(f"{name}: self times sum to {own} s, traced wall time is {wall} s")
    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _inputs(seed: int) -> list:
    return ([inputs.study_master_seed(seed)]
            + [c for _, c in inputs.bigdata_fit_inputs(seed)]
            + inputs.bigdata_sample_seeds(seed)
            + [c for _, _, c in inputs.oracle_corpus(seed)])


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _child(workload: str, trace: int) -> dict:
    child = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace)],
                           cwd=ROOT, capture_output=True, text=True, timeout=300)
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the generator, metric names and repeatable counts")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
