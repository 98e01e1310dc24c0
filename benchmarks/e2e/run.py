"""End-to-end benchmark of the pulse-test campaigns.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--scale full|smoke]
    python3 benchmarks/e2e/run.py --record-reference

Each workload runs in its own fresh interpreter (``workloads.py``) with
single-threaded BLAS and a scratch directory under ``.bench_e2e/tmp/``
that is deleted afterwards.  The command prints every metric with its
unit, checks the campaign outputs (against ``reference.json`` for the
default seed), writes one result file under ``.bench_e2e/results/``
and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 0 only
when every output check passed.
"""

import argparse
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
STATE = os.path.join(ROOT, ".bench_e2e")
REFERENCE = os.path.join(HERE, "reference.json")

#: one workload's child must finish within this (the whole command has
#: 180 s for a single workload)
CHILD_TIMEOUT_S = 170


def _spec():
    """``BENCHMARK.json``: run length and the declared metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _child_env(scratch):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # set iteration order is part of the ATPG search order; pin it so
    # outputs repeat across processes
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    for var in list(env):
        if var.startswith("REPRO_"):
            del env[var]
    return env


def run_workload(name, seed, seconds, trace, scale, reference, stamp):
    """Run one workload in a child process; returns its result dict, or
    None when the child failed or timed out."""
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=name + "-",
                               dir=os.path.join(STATE, "tmp"))
    out = os.path.join(scratch, "result.json")
    trace_out = os.path.join(STATE, "traces", "{}-{}-seed{}.jsonl".format(
        stamp, name, seed))
    if trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--scratch", scratch, "--out", out,
           "--trace-out", trace_out]
    if reference:
        cmd += ["--reference", reference]
    try:
        child = subprocess.Popen(cmd, env=_child_env(scratch), cwd=ROOT,
                                 start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the session holds the pool workers too
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            print("{}: timed out after {} s".format(name, CHILD_TIMEOUT_S),
                  file=sys.stderr)
            return None
        if code != 0 or not os.path.exists(out):
            print("{}: workload process exited with {}".format(name, code),
                  file=sys.stderr)
            return None
        with open(out) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def print_result(result, units):
    print("== {} {}".format(result["workload"], json.dumps(
        result["params"], sort_keys=True)))
    details = result["details"]
    measured = details.get("measured", {})
    for name, unit in units:
        line = "  {:36s} {:>16.6g} {}".format(name, result["metrics"][name],
                                              unit)
        if name in measured:
            line += "  (measured {:.6g} {})".format(measured[name], unit)
        print(line)
    if "self_time_shares" in details:
        print("  self-time shares of {:.2f} s traced wall "
              "(gap {:.2%}):".format(details["traced_wall_s"],
                                     details["self_time_gap"]))
        shares = sorted(details["self_time_shares"].items(),
                        key=lambda item: -item[1])
        for name, share in shares:
            print("    {:34s} {:7.2%}".format(name, share))
        print("  task durations: n = {}".format(details["task_durations_n"]))
    for error in result["errors"]:
        print("  CHECK FAILED: " + error)
    print("  correct: {}  attempted: {}  failed: {}".format(
        result["correct"], result["attempted"], result["failed"]))


def record_reference(results):
    reference = {r["workload"]: {"params": r["params"],
                                 "outputs": r["outputs"]}
                 for r in results}
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote " + os.path.relpath(REFERENCE))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the pulse-test campaigns.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's default seeds")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: tiny sizes, no reference check")
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference.json (default seed, full "
                        "scale, untraced)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro under {}; run it from a checkout of "
              "the repository".format(ROOT), file=sys.stderr)
        return 2
    if args.record_reference:
        args.seed, args.trace, args.scale = 0, 0, "full"
    spec = _spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = [(metric["name"], metric["unit"])
             for metric in spec["per_layer" if args.trace else "end_to_end"]]
    declared = {name for name, _ in units}
    reference = None if args.record_reference else REFERENCE
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace,
                              args.scale, reference, stamp)
        if result is None:
            return 1
        if set(result["metrics"]) != declared:
            print("{}: computed metrics differ from BENCHMARK.json: {}"
                  .format(name, sorted(declared ^ set(result["metrics"]))),
                  file=sys.stderr)
            return 1
        print_result(result, units)
        results.append(result)

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    result_path = os.path.join(STATE, "results", "{}-seed{}-trace{}.json"
                               .format(stamp, args.seed, args.trace))
    with open(result_path, "w") as handle:
        json.dump({"seed": args.seed, "seconds": seconds,
                   "scale": args.scale, "results": results}, handle,
                  indent=1)
    print("result file: " + os.path.relpath(result_path, ROOT))
    if args.record_reference:
        record_reference(results)

    def metric(result, name, unit):
        return {"value": result["metrics"][name], "unit": unit}

    if len(results) == 1:
        metrics = {name: metric(results[0], name, unit)
                   for name, unit in units}
    else:
        metrics = {"{}.{}".format(r["workload"], name):
                   metric(r, name, unit) for r in results
                   for name, unit in units}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
