"""vpequil benchmark: one workload, timed passes in fresh interpreters.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lowered-sweep --seed 1 --seconds 35 --trace 0

Each pass runs ``worker.py`` in a new interpreter, so process-lifetime
caches (``compactsys._TABLE_CACHE``, the quadrature rule cache) start cold
as in every CLI run.  Passes run one at a time; another starts only while
the run is predicted to finish within ``--seconds``, and at least one runs.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``setup_s`` (at least five set-ups, topped up with set-up-only passes),
``wall_s`` and ``peak_rss_mb``.  The two times are given in seconds at a
reference machine speed: they are scaled by ``REF_NOMINAL_S`` over the
mean time of the reference kernel that the passes ran after set-up and,
on a timer, during the tasks, so that the shared machine speeding up or
slowing down during a run largely cancels out.  The raw medians are printed and recorded too.
``--trace 1`` alternates untraced and traced passes (at least one and two)
and reports the per-layer metrics of the traced passes, whose counts must
repeat exactly, and the tracing overhead.  Every metric is printed as ``name value unit``; the last stdout
line is the JSON result, and the exit code is 1 when any check failed.
The full record (machine, inputs, per-pass figures) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_SETUPS = 5
# time of one worker.reference_unit at the reference speed; on the shared
# 2-core x86-64 box (Python 3.11, numpy 2.4) it took 6-12 ms, mean 10.4 ms
REF_NOMINAL_S = 0.008
PASS_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0    # no pass starts after this; a run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(workload, seed, trace, setup_only=False, spans_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    # serial traffic: one process, one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pass exceeded {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"pass exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("pass printed no result")
    report = json.loads(lines[-1])
    report["trace"] = trace
    report["elapsed_s"] = time.perf_counter() - start
    return report


def run_passes(args, pattern, minimum):
    """Run passes traced or not as ``pattern`` says (cycled) until each kind
    has reached ``minimum`` and the next pass would end after ``args.seconds``."""
    start = time.perf_counter()
    passes = []
    spans_out = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    while True:
        trace = pattern[len(passes) % len(pattern)]
        passes.append(run_worker(args.workload, args.seed, trace,
                                 spans_out=spans_out if trace else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        enough = all(sum(p["trace"] == k for p in passes) >= n for k, n in minimum.items())
        if enough and (elapsed + typical > args.seconds or elapsed > RUN_LIMIT_S):
            return passes


def score(passes):
    """(attempted, failed, notes): every task of every pass, plus output
    hashes that must agree across the passes of one seed."""
    attempted = failed = 0
    notes, first_hash = [], {}
    for p in passes:
        for t in p["tasks"]:
            attempted += 1
            ok = t["ok"]
            if "sha256" in t:
                ref = first_hash.setdefault(t["id"], t["sha256"])
                if t["sha256"] != ref:
                    ok = False
                    notes.append(f"{t['id']}: output hash differs between passes")
            if not ok:
                failed += 1
                notes.append(f"{t['id']}: {t['detail']}")
    return attempted, failed, notes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def ref_mean(passes):
    """Mean time of the reference kernel over the passes: the mean, not the
    median, because the machine switches between a fast and a slow state
    and the mean weighs them as the tasks experienced them."""
    return statistics.mean(u for p in passes for u in p["ref_unit_s"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "vpequil", "__init__.py")):
        fail(f"no vpequil sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        passes = run_passes(args, pattern=(0, 1, 1), minimum={0: 1, 1: 2})
        plain = [p for p in passes if not p["trace"]]
        traced = [p for p in passes if p["trace"]]
        attempted, failed, notes = score(passes)
        specs = bench["per_layer"]
        metrics = {}
        for spec in specs:
            name = spec["name"]
            if name == "trace.overhead_frac":
                value = (median_of(traced, "wall_s") / ref_mean(traced)
                         / (median_of(plain, "wall_s") / ref_mean(plain)) - 1.0)
            else:
                values = [p["layers"][name] for p in traced]
                value = statistics.median(values)
                if spec["unit"] == "count":
                    attempted += 1
                    if len(set(values)) != 1:
                        failed += 1
                        notes.append(f"{name}: traced counts differ: {values}")
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        passes = run_passes(args, pattern=(0,), minimum={0: 1})
        setups = list(passes)
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(args.workload, args.seed, 0, setup_only=True))
        attempted, failed, notes = score(passes)
        raw = {"setup_s": median_of(setups, "setup_s"), "wall_s": median_of(passes, "wall_s"),
               "ref_unit_mean_s": ref_mean(setups)}
        scale = REF_NOMINAL_S / raw["ref_unit_mean_s"]
        measured = {"setup_s": scale * raw["setup_s"], "wall_s": scale * raw["wall_s"],
                    "peak_rss_mb": median_of(passes, "peak_rss_mb")}
        metrics = {spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]}
                   for spec in bench["end_to_end"]}

    machine = {"nproc": os.cpu_count(), "platform": platform.platform(),
               **passes[0]["versions"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "inputs": passes[0]["inputs"],
              "tasks_per_pass": [t["id"] for t in passes[0]["tasks"]],
              "passes": [{k: v for k, v in p.items() if k != "inputs"} for p in passes],
              "attempted": attempted, "failed": failed, "notes": notes,
              "ref_nominal_s": REF_NOMINAL_S, "metrics": metrics}
    if not args.trace:
        record["raw_medians"] = raw
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(passes[0]['tasks'])} tasks per pass, machine {json.dumps(machine)}")
    print(f"# inputs and per-pass figures: {os.path.relpath(record_path, ROOT)}")
    if not args.trace:
        print(f"# raw medians: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s; "
              f"reference kernel mean {raw['ref_unit_mean_s']:.6g} s "
              f"(nominal {REF_NOMINAL_S:g} s)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
