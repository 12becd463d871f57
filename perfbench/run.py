"""Run one bondkit benchmark workload and print its result.

    python3 perfbench/run.py --workload t3_desk --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``t3_desk``,
``curves`` and ``cli_mix``.  A run sets the workload up in this process, then
runs operations in a closed loop with one client for ``--seconds`` seconds,
checking every output.  Set-up is also timed in fresh processes, three before
the loop and three after it.  ``--trace 1`` instead alternates untraced and
traced blocks of the loop, with span recorders around bondkit's entry points,
and reports per-layer figures plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the machine and environment (``env``), the workload's figures under
the names of ``perfbench/BASELINE.md`` (``report``) and failures by layer and
exception type (``failure``).  The exit code is 1 when any output failed its
check, 2 when the source tree is missing.  Records and spans are written
under ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("t3_desk", "curves", "cli_mix")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh-process set-ups per run, half before the loop and half after it;
#: set-up time is their median.
SETUP_PROBES = 6
#: ``python -X importtime`` runs per traced run; import times are medians.
IMPORT_PROBES = 3
#: Seconds between moves of the timed work to another CPU.
MOVE_S = 0.25
#: Untraced/traced block pairs per traced run.
TRACE_BLOCKS = 5
LAYERS = ("cli", "analysis", "pde", "approximation", "closed_form", "model", "check")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer figures from a traced loop")
    ap.add_argument("--smoke", action="store_true",
                    help="small grids and streams, one set-up probe (for the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args, tmp):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, tmp, ROOT)


def setup_seconds(args, n):
    """Times from starting ``n`` fresh processes, one after the other, to
    ready-to-time: import, input generation and one untimed warm-up operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def measure(wl, seconds, min_ops=1):
    """Closed loop: run ops until ``seconds`` have passed and ``min_ops`` ops
    have run, always in whole rounds."""
    t_end = time.perf_counter() + seconds
    start = i = wl.attempted
    with CpuRotation(wl):
        while True:
            wl.run_op(i)
            i += 1
            if i % wl.round_len == 0 and i - start >= min_ops and time.perf_counter() >= t_end:
                return


class CpuRotation:
    """Moves the timed work to the next allowed CPU every ``MOVE_S`` seconds.

    On a shared host each CPU turns about 1.5x slower for seconds at a time as
    other tenants load it, mostly not all CPUs at once.  Rotating makes the
    repeats of an operation see every CPU, so its fastest repeat is an
    undisturbed one, and makes a long operation average over the CPUs rather
    than take the state of one."""

    def __init__(self, wl):
        self.wl = wl
        self.cpus = sorted(os.sched_getaffinity(0))
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self):
        moves = 0
        while not self.stop.wait(MOVE_S):
            moves += 1
            self.wl.move_to({self.cpus[moves % len(self.cpus)]})

    def __enter__(self):
        if len(self.cpus) > 1:
            self.thread.start()
        return self

    def __exit__(self, *exc):
        if self.thread.is_alive():
            self.stop.set()
            self.thread.join()
        self.wl.move_to(set(self.cpus))


def import_seconds(env):
    """Cumulative import times of numpy, scipy.linalg and bondkit, from
    ``python -X importtime``."""
    names = {"numpy": "import.numpy_s", "scipy.linalg": "import.scipy_linalg_s",
             "bondkit": "import.bondkit_s"}
    runs = {key: [] for key in names.values()}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bondkit"],
                              capture_output=True, text=True, env=env, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names:
                runs[names[parts[2].strip()]].append(int(parts[1]) * 1e-6)
    return {key: statistics.median(v) if v else 0.0 for key, v in runs.items()}


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside a git tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown", None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT), GIT_OPTIONAL_LOCKS="0")
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, env=env, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None
    return sha, bool(status.strip())


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": sha, "git_dirty": dirty,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "BONDKIT_THREADS": os.environ.get("BONDKIT_THREADS", "unset"),
    }


def traced_figures(wl, args):
    """Per-layer figures from a traced loop.  Untraced and traced blocks
    alternate, so that drift over the run does not show as tracing overhead;
    each side runs for about ``--seconds`` in total, and at least one op."""
    import spans
    import workloads

    tracer = spans.Tracer()
    t_end = time.perf_counter() + 2 * args.seconds
    while True:
        measure(wl, args.seconds / TRACE_BLOCKS)
        wl.trace_on(tracer)
        try:
            measure(wl, args.seconds / TRACE_BLOCKS)
        finally:
            wl.trace_off(tracer)
        if time.perf_counter() >= t_end:
            break
    untraced = wl.metrics(traced=False)
    traced = wl.metrics(traced=True)
    spans.write_spans(tracer.spans,
                      os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    out = spans.layer_metrics(tracer.spans)
    for layer in LAYERS:
        out[f"{layer}.failed"] = sum(n for (lay, _), n in wl.failures.items() if lay == layer)
    out["cli.process_overhead_s"] = statistics.median(wl.overheads) if wl.overheads else 0.0
    out.update(import_seconds(workloads.cli_env(ROOT)))
    out["trace.overhead_op_p50_ms"] = traced["op_p50_ms"] - untraced["op_p50_ms"]
    out["trace.overhead_ratio"] = traced["op_p50_ms"] / untraced["op_p50_ms"] - 1.0
    for name in untraced:
        wl.report[f"untraced.{name}"] = (untraced[name], "")
        wl.report[f"traced.{name}"] = (traced[name], "")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bondkit", "__init__.py")):
        print(f"perfbench: no bondkit source tree under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.environ.pop("BONDKIT_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)

    if args.setup_probe:
        wl = make_workload(args, tmp)
        try:
            wl.warm_up()
        finally:
            wl.close()
        print("ready", flush=True)
        return 0

    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES // 2
    setup = setup_seconds(args, probes)
    wl = make_workload(args, tmp)
    try:
        wl.warm_up()
        if args.trace:
            values = traced_figures(wl, args)
            wanted = spec["per_layer"]
        else:
            measure(wl, args.seconds, 1 if args.smoke else wl.min_repeats * wl.distinct())
            values = wl.metrics() if wl.n_ok else {}
            values.update(peak_rss_mb=wl.peak_rss_mb())
            wanted = spec["end_to_end"]
    finally:
        wl.close()
    if not args.trace:
        setup += setup_seconds(args, probes)
        values["setup_s"] = statistics.median(setup)

    metrics, finite = {}, True
    for m in wanted:
        value = values.get(m["name"])
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        finite = finite and ok
        metrics[m["name"]] = {"value": value if ok else 0.0, "unit": m["unit"]}
    correct = wl.failed == 0 and finite
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics}

    env = environment()
    report = dict(wl.report)
    report.update(ops_failed_ratio=(wl.failed / wl.attempted, "ratio"), ops=(wl.n_ok, "count"))
    if not args.trace:
        report.update(setup_s=(values["setup_s"], "s"), peak_rss_mb=(values["peak_rss_mb"], "MB"))
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "env": env, "report": report,
                   "failures": {f"{lay}.{typ}": n for (lay, typ), n in wl.failures.items()},
                   "first_failure": wl.first_failure, "result": result},
                  fh, indent=1, default=str)

    print("env " + json.dumps(env))
    for name, (value, unit) in report.items():
        print(f"report {name} {value} {unit}".rstrip())
    for (layer, kind), n in sorted(wl.failures.items()):
        print(f"failure {layer}.{kind} {n}")
    if wl.first_failure:
        print(wl.first_failure, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
