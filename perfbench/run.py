#!/usr/bin/env python3
"""Benchmark for polyasum: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-fk --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: verify-fk, simulate-cli, mixture-estimate (see README.md in
this directory).  The load is a closed loop in one process: a pass runs
the workload's operations one after another, and passes repeat until
``--seconds`` have elapsed (at least three).  Every operation's output
is checked after it returns; every pass must repeat the first pass's
output digests and exact counters, since the seed is the same.

``--trace 0`` reports the end-to-end metrics: norm_cpu_s (process CPU
time of one pass, mean over passes, in seconds of a host where the
reference work takes REFERENCE_S), norm_replicas_per_s, setup_s (CPU
time of a fresh interpreter's set-up, normalised the same way, median of
several) and peak_rss_mb; the raw mean pass CPU time (cpu_s) with its
replicas_per_s, the median pass wall time (wall_s) and the mean
reference time are printed but not bounded. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Run
records and spans go to .bench_out/ under the checkout.
"""

import os

# single-threaded numerics: cap BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("verify-fk", "simulate-cli", "mixture-estimate")
SETUP_PROBES = 9
# Normalised times are seconds on a host where reference_work() takes
# this long, a round number near its CPU time on a 2-vCPU Intel Xeon
# virtual machine.
REFERENCE_S = 0.08
REFERENCE_EVERY_S = 0.2
PROBE_REFERENCE_RUNS = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def load_workloads():
    """Import the library from this checkout's src/ and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "polyasum", "__init__.py")):
        raise SystemExit(f"error: no polyasum sources under {SRC}")
    sys.path.insert(0, SRC)
    import polyasum
    if not os.path.abspath(polyasum.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: polyasum imported from {polyasum.__file__}"
                         f", not from {SRC}")
    import workloads
    return workloads


def setup(name, seed, workdir):
    """Import, configs, parameters and a first call of every operation
    at a tiny size.  Returns (workload, CPU seconds)."""
    t0 = process_time()
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name](seed, workdir)
    for op in wl.warm_ops():
        op.run()
    return wl, process_time() - t0


def probe_setup(name, seed):
    """Set-up time of a fresh interpreter, measured inside it:
    (CPU seconds, normalised seconds)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["norm_setup_s"]


def host_cpu_ticks():
    """(steal, total) jiffies of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg_1m": os.getloadavg()[0], "seed": seed,
            "threads_cap": os.environ["OMP_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    op_seconds: list = field(default_factory=list)  # CPU time
    op_wall: list = field(default_factory=list)
    results: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    tracer: object = None


def run_pass(ops, traced, after_op):
    """Run every operation once; wrappers (if traced) are installed only
    while an operation runs, and its output is judged right after.
    ``after_op(cpu_seconds)`` is called after each operation."""
    from spans import Tracer
    from workloads import Result
    p = Pass(traced, tracer=Tracer() if traced else None)
    for op in ops:
        if traced:
            p.tracer.install()
        w0, t0 = perf_counter(), process_time()
        try:
            raw = op.run()
        except Exception as exc:  # an operation that raises is a failure
            traceback.print_exc(file=sys.stderr)
            raw = exc
        finally:
            p.op_seconds.append(process_time() - t0)
            p.op_wall.append(perf_counter() - w0)
            if traced:
                p.tracer.uninstall()
        if isinstance(raw, Exception):
            result = Result(errors=[f"raised {raw!r}"])
        else:
            try:
                result = op.judge(raw)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                result = Result(errors=[f"gate raised {exc!r}"])
        del raw
        p.results.append(result)
        p.counts.update(result.counts)
        after_op(p.op_seconds[-1])
    if traced:
        p.tracer.seal()
        p.counts.update(p.tracer.counts)
    return p


def measure(wl, name, seed, seconds, trace):
    """Run passes for ``seconds`` of measuring time.  The reference work
    runs between operations, once per REFERENCE_EVERY_S of operation CPU
    time, so that its samples follow the host through the run; its time
    is kept apart.  The set-up probes run between passes, spread over
    the run; their time is not counted."""
    from workloads import reference_work
    ops = wl.ops()
    passes, setup_samples, reference = [], [], []
    since_reference = REFERENCE_EVERY_S

    def after_op(cpu_seconds):
        nonlocal since_reference
        since_reference += cpu_seconds
        if since_reference >= REFERENCE_EVERY_S:
            since_reference = 0.0
            t0 = process_time()
            reference_work()
            reference.append(process_time() - t0)

    start = perf_counter()
    probe_s = 0.0
    while True:
        passes.append(run_pass(ops, trace and len(passes) % 2 == 1,
                               after_op))
        measured = perf_counter() - start - probe_s
        while (len(setup_samples) < SETUP_PROBES and measured
               >= len(setup_samples) * seconds / SETUP_PROBES):
            t0 = perf_counter()
            setup_samples.append(probe_setup(name, seed))
            probe_s += perf_counter() - t0
        n_traced = sum(p.traced for p in passes)
        if (measured >= seconds
                and len(setup_samples) == SETUP_PROBES
                and len(passes) - n_traced >= MIN_PASSES
                and (not trace or n_traced >= MIN_PASSES)):
            return ops, passes, setup_samples, reference


def tally(ops, passes, stored):
    """Attempted and failed operations, with a message per failure.

    An operation fails if it raised or failed its gate, or if its output
    digest differs from the first pass's.  A pass whose exact counters
    differ from the first pass of its kind (or from ``stored``, an
    earlier run of the same code and seed) counts one more failure.
    """
    attempted = failed = 0
    errors = []
    first = passes[0]
    first_traced = next((p.counts for p in passes if p.traced), None)
    for i, p in enumerate(passes):
        for op, res, ref in zip(ops, p.results, first.results):
            attempted += 1
            problems = list(res.errors)
            if res.digest != ref.digest:
                problems.append(f"output digest {res.digest[:12]} differs "
                                f"from the first pass ({ref.digest[:12]})")
            if problems:
                failed += 1
                errors.append(f"pass {i} {op.name}: {'; '.join(problems)}")
        # traced passes must repeat the untraced output counters too
        shared = {k: p.counts[k] for k in first.counts}
        kind = "traced" if p.traced else "untraced"
        for label, ref, got in (
                ("first pass", dict(first.counts), shared),
                ("first traced pass", first_traced if p.traced else None,
                 p.counts),
                ("earlier run", stored.get(kind), p.counts)):
            if ref is not None and dict(got) != dict(ref):
                failed = min(failed + 1, attempted)
                errors.append(f"pass {i}: exact counters differ from the "
                              f"{label}: {dict(got)} != {dict(ref)}")
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(p):
    """Per-layer metrics of one traced pass: (name -> (value, unit))."""
    busy, self_s, calls = p.tracer.layer_times()
    c = p.counts
    e1 = busy["expint.e1_inverse"]
    to_conf = busy["samplers.to_configurations"]
    to_meas = busy["samplers.to_measures"]
    return {
        "expint.e1_inverse.busy_s": (e1, "s"),
        "expint.e1_inverse.calls": (calls["expint.e1_inverse"], "count"),
        "expint.e1_inverse.args": (c["e1_inverse.args"], "count"),
        "expint.e1_inverse.ns_per_arg": (
            _ratio(e1, c["e1_inverse.args"], 1e9), "ns"),
        "samplers.gamma_batch.self_s": (self_s["samplers.gamma_batch"], "s"),
        "samplers.gamma_batch.atoms": (c["gamma_batch.atoms"], "count"),
        "samplers.gamma_batch.atoms_per_replica": (
            _ratio(c["gamma_batch.atoms"], c["gamma_batch.replicas"]),
            "count"),
        "samplers.posterior.self_s": (self_s["samplers.posterior"], "s"),
        "samplers.poisson_from_atomic.busy_s": (
            busy["samplers.poisson_from_atomic"], "s"),
        "samplers.direct_batch.busy_s": (busy["samplers.direct_batch"], "s"),
        "samplers.direct_batch.records": (
            c["direct_batch.records"], "count"),
        "samplers.mixed_batch.self_s": (self_s["samplers.mixed_batch"], "s"),
        "samplers.reduce.busy_s": (busy["samplers.reduce"], "s"),
        "samplers.to_configurations.busy_s": (to_conf, "s"),
        "samplers.to_configurations.us_per_replica": (
            _ratio(to_conf, c["to_configurations.replicas"], 1e6), "us"),
        "samplers.to_measures.busy_s": (to_meas, "s"),
        "samplers.to_measures.us_per_replica": (
            _ratio(to_meas, c["to_measures.replicas"], 1e6), "us"),
        "state_space.to_dict.busy_s": (busy["state_space.to_dict"], "s"),
        "cli.run_simulate.self_s": (self_s["cli.run_simulate"], "s"),
        "cli.records_emitted": (c["cli.records_emitted"], "count"),
        "cli.bytes_written": (c["cli.bytes_written"], "count"),
        "estimators.solve_zw_batch.busy_s": (
            busy["estimators.solve_zw_batch"], "s"),
        "estimators.infeasible_frac": (
            _ratio(c["solve_zw.infeasible"], c["solve_zw.attempted"]),
            "ratio"),
        "verify.self_s": (self_s["verify"], "s"),
        "verify.checks_run": (c["verify.checks_run"], "count"),
        "verify.checks_failed": (c["verify.checks_failed"], "count"),
        "transforms.busy_s": (busy["transforms"], "s"),
    }


def pass_time(per_pass):
    """Mean CPU time of a pass; ``per_pass`` holds one list of operation
    times per pass."""
    return statistics.mean(sum(times) for times in per_pass)


def host_scale(reference):
    """Factor that turns CPU seconds of this run into seconds on a host
    where the reference work takes REFERENCE_S.

    The host is shared.  Wall time also counts the time other guests
    hold the CPU (steal); CPU time does not, but a busy sibling
    hyperthread or a shared cache slows the CPU seconds themselves, by
    up to half, and how often it does so changes over minutes.  The
    reference work runs between operations and sees the same host, so
    the ratio of the two means keeps the program's cost and drops most
    of the host's.  Means, not medians: the times take a fast and a
    slow level, and a median jumps between the two where a mean follows
    the share of each.
    """
    return REFERENCE_S / statistics.mean(reference)


def median_metrics(per_pass):
    """Median over passes; exact counts are equal in every pass."""
    out = {}
    for key, (first, unit) in per_pass[0].items():
        values = [m[key][0] for m in per_pass]
        out[key] = (first if isinstance(first, int)
                    else statistics.median(values), unit)
    return out


def source_digest():
    """Hash of the library and benchmark sources, to key stored counters."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "polyasum"), BENCH_DIR):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def counters_by_kind(passes):
    out = {}
    for p in passes:
        out.setdefault("traced" if p.traced else "untraced", dict(p.counts))
    return out


def write_spans(path, passes):
    with open(path, "w") as fh:
        for i, p in enumerate(passes):
            if not p.traced:
                continue
            for j, (name, start, end, parent) in enumerate(p.tracer.spans):
                fh.write(json.dumps({"pass": i, "id": j, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def run_workload(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            _, seconds = setup(args.workload, args.seed, workdir)
            from workloads import reference_work
            reference = []
            for _ in range(PROBE_REFERENCE_RUNS + 1):  # the first warms up
                t0 = process_time()
                reference_work()
                reference.append(process_time() - t0)
            print(json.dumps({"setup_s": seconds, "norm_setup_s": seconds
                              * host_scale(reference[1:])}))
            return 0
        env = environment(args.seed)
        wl, _ = setup(args.workload, args.seed, workdir)
        wl.prepare()
        steal0, total0 = host_cpu_ticks()
        ops, passes, setup_samples, reference = measure(
            wl, args.workload, args.seed, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        steal1, total1 = host_cpu_ticks()
        env["host_steal_frac"] = round(
            (steal1 - steal0) / max(total1 - total0, 1), 4)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}"
    stored_path = os.path.join(OUT_DIR,
                               f"counters-{tag}-{source_digest()}.json")
    stored = {}
    if os.path.exists(stored_path):
        with open(stored_path) as fh:
            stored = json.load(fh)
    attempted, failed, errors = tally(ops, passes, stored)
    stored.update(counters_by_kind(passes))
    with open(stored_path, "w") as fh:
        json.dump(stored, fh, sort_keys=True)

    plain = [p for p in passes if not p.traced]
    cpu = pass_time(p.op_seconds for p in plain)
    scale = host_scale(reference)
    end_to_end = {
        "norm_cpu_s": (cpu * scale, "s"),
        "norm_replicas_per_s": (
            sum(op.replicas for op in ops) / (cpu * scale), "1/s"),
        "setup_s": (statistics.median(n for _, n in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"cpu_s": (cpu, "s"),
           "replicas_per_s": (sum(op.replicas for op in ops) / cpu, "1/s"),
           "wall_s": (statistics.median(sum(p.op_wall) for p in plain),
                      "s"),
           "reference_s": (statistics.mean(reference), "s")}
    layers = {}
    if args.trace:
        traced = [p for p in passes if p.traced]
        layers = median_metrics([layer_metrics(p) for p in traced])
        traced_cpu = pass_time(p.op_seconds for p in traced)
        layers["trace.cpu_s"] = (traced_cpu, "s")
        layers["trace.overhead_s"] = (traced_cpu - cpu, "s")
        write_spans(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), passes)

    record = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "setup_samples_s": setup_samples, "reference_s": reference,
        "passes": [{"traced": p.traced, "op_cpu_s": p.op_seconds,
                    "op_wall_s": p.op_wall,
                    "spans": len(p.tracer.spans) if p.traced else 0,
                    "digests": [r.digest for r in p.results]}
                   for p in passes],
        "ops": [op.name for op in ops], "counters": counters_by_kind(passes),
        "errors": errors, "end_to_end": {**end_to_end, **raw},
        "per_layer": layers,
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    cpus = [sum(p.op_seconds) for p in plain]
    q = statistics.quantiles(cpus, n=4) if len(cpus) > 1 else cpus * 3
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced;"
          f" pass CPU q1 {q[0]:.4f} median {q[1]:.4f} q3 {q[2]:.4f} s")
    for message in errors:
        print(f"FAILED {message}")
    for key, (value, unit) in {**end_to_end, **raw, **layers}.items():
        print(f"{key} {value if isinstance(value, int) else f'{value:.6g}'}"
              f" {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    metrics = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Run each workload in its own interpreter and print a summary."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
