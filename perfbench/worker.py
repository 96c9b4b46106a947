"""One benchmark pass in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

``setup_s`` runs from before ``import vpequil.cli`` until the workload's
models and inputs exist; ``wall_s`` is the summed time of the tasks.  Checks,
hashing and span output happen afterwards and are not timed.

The pass also times a fixed reference kernel, ``reference_unit``: three
times right after set-up, once at the end, and, in untraced passes, every
``REF_PERIOD_S`` of wall time while the tasks run (on SIGALRM; task times
leave its time out).  ``run.py`` scales the pass's times by these samples
to a reference machine speed.  Traced passes run no timer, so no span
covers the kernel.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import traceback
from time import perf_counter

REF_SETUP_UNITS = 3
REF_PERIOD_S = 0.1


def reference_unit(np):
    """A fixed piece of work shaped like vpequil's hot paths: many Python
    calls into numpy on 48-element arrays (the size of a Gauss-Jacobi rule).
    Returns its duration, about 8 ms."""
    start = perf_counter()
    a = np.linspace(0.1, 1.0, 48)
    s = 0.0
    for i in range(1500):
        s += float(np.sum(np.exp(a * (i % 5)) * a))
    return perf_counter() - start


class ReferenceTimer:
    """Runs ``reference_unit`` every REF_PERIOD_S of wall time, so that the
    machine's speed is sampled during long tasks too.  ``spent`` is the
    time it took, which the task times leave out."""

    def __init__(self, np, units):
        self.np = np
        self.units = units
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = reference_unit(self.np)
        self.units.append(t)
        self.spent += t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _hash_dir(path):
    digest = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_root = os.path.join(root, "perfbench", "out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_root)
    try:
        t0 = perf_counter()
        import vpequil.cli  # noqa: F401  (timed: the import is most of set-up)
        import workloads
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_s = perf_counter() - t0

        import numpy
        import scipy
        import vpequil
        src = os.path.join(root, "src")
        if os.path.commonpath([os.path.abspath(vpequil.__file__), src]) != src:
            raise SystemExit(f"vpequil imported from {vpequil.__file__}, not {src}")
        report = {"setup_s": setup_s,
                  "versions": {"python": sys.version.split()[0],
                               "numpy": numpy.__version__, "scipy": scipy.__version__,
                               "vpequil": vpequil.__version__}}
        ref_units = [reference_unit(numpy) for _ in range(REF_SETUP_UNITS)]
        report["ref_unit_s"] = ref_units
        if args.setup_only:
            print(json.dumps(report))
            return

        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        results, errors, times = {}, {}, {}
        timer = ReferenceTimer(numpy, ref_units)
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(timer)
            else:
                stack.callback(tracer.uninstall)
            for task in wl.tasks:
                if tracer is not None:
                    tracer.task = task.id
                spent = timer.spent
                start = perf_counter()
                try:
                    results[task.id] = task.run(results)
                except Exception:  # a failed task is counted, the pass goes on
                    errors[task.id] = traceback.format_exc(limit=3)
                times[task.id] = perf_counter() - start - (timer.spent - spent)
        ref_units.append(reference_unit(numpy))
        wall_s = sum(times.values())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tasks, bytes_written = [], 0
        for task in wl.tasks:
            entry = {"id": task.id, "seconds": times[task.id]}
            if task.id in errors:
                entry.update(ok=False, detail=errors[task.id])
            else:
                try:
                    ok, detail = task.check(results[task.id])
                except Exception:
                    ok, detail = False, traceback.format_exc(limit=3)
                entry.update(ok=bool(ok), detail=detail)
            if task.out_dir is not None and os.path.isdir(task.out_dir):
                entry["sha256"], size = _hash_dir(task.out_dir)
                bytes_written += size
            tasks.append(entry)

        report.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, tasks=tasks,
                      inputs=wl.inputs, bytes_written=bytes_written)
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans, wall_s)
            layers["cli.bytes_written"] = bytes_written
            report["layers"] = layers
            if args.spans_out:
                tracer.write(args.spans_out)
        print(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
