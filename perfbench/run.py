"""Run one benchmark workload against the in-process Manu cluster.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` runs every round and reports the end-to-end metrics, with
no probes installed.  ``--trace 1`` runs round 0 three times on fresh
clusters (untraced, with a span around every wrapped layer entry point,
untraced again) and reports the per-layer metrics plus the tracing
overhead; the spans are written to
``.perfbench_out/<workload>-spans.npz`` under the checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check failed.
"""

import os
import sys

# BLAS and OpenMP run on one thread: a 2-thread OpenBLAS pool stalls after
# idle periods and made index builds in the preload swing several-fold
# between otherwise identical runs.  The hash seed is fixed so set and
# dict orders, and with them the virtual schedule, repeat across
# processes.  Both must hold before the interpreter and numpy start, so
# the process re-executes itself once when they are not already set.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Measure the checkout's own code, never an installed copy.
    sys.exit(f"perfbench: no program sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from layers import PER_LAYER, ROOT as ROOT_SPAN, SELF_METRIC, \
    LayerProbes, wall_percentiles  # noqa: E402
from measure import percentile  # noqa: E402
from workloads import ROW_BYTES, WORKLOADS, Verbs  # noqa: E402

#: End-to-end metric -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_vms": "vms",
    "latency_p99_vms": "vms",
    "capacity_vqps": "1/vs",
    "recall_at_10": "ratio",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    """Host facts that explain noise after the fact."""
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            blas_threads = getter()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def reset_peak_rss() -> bool:
    """Restart the kernel's RSS high-water mark at the current RSS, so the
    peak that follows leaves out the benchmark's own data generation.
    Freed heap goes back to the OS first (glibc ``malloc_trim``): what
    earlier rounds left in the allocator moved the search peak by 6%
    between seeds.  Linux only; returns False where the mark cannot be
    reset."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """RSS high-water mark (``VmHWM``) since the last reset, in MB."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, verbs):
    """Every round: a timed set-up, then the timed phase and its checks.
    The peak RSS covers set-up, phase and the checks that use the cluster,
    not data generation or ground truth."""
    setup_s, phase_s, peaks, outcomes = [], [], [], []
    for rnd in range(workload.rounds):
        gc.collect()
        if not reset_peak_rss():
            print("# peak RSS: high-water mark not resettable, "
                  "reporting the process peak")
        start = perf_counter()
        cluster, physical = workload.setup()
        setup_s.append(perf_counter() - start)
        start, cpu = perf_counter(), process_time()
        outcome = workload.phase(cluster, physical, verbs, rnd)
        phase_s.append(perf_counter() - start)
        outcome.cpu_s = process_time() - cpu
        workload.finish(cluster, physical, verbs, rnd, outcome)
        peaks.append(peak_rss_mb())
        cluster = None
        workload.grade(rnd, outcome)
        outcomes.append(outcome)
    return setup_s, phase_s, peaks, outcomes


def end_to_end(setup_s, phase_s, peaks, outcomes):
    """name -> (value, samples) pooled over the rounds."""
    latency = [v for out in outcomes for v in out.latency_vms]
    p50, _ = percentile(latency, 50)
    p99, beyond = percentile(latency, 99)
    work = sum(out.work for out in outcomes)
    burst = sum(out.burst for out in outcomes)
    queries = sum(out.recall_queries for out in outcomes)
    return {
        "setup_s": (float(np.median(setup_s)), f"{len(setup_s)} set-ups"),
        "throughput_per_s": (work / sum(phase_s), f"{work} ops"),
        "latency_p50_vms": (p50, f"{len(latency)} calls"),
        "latency_p99_vms": (p99, f"{len(latency)} calls, {beyond} beyond"),
        "capacity_vqps": (burst / sum(out.burst / out.capacity_vqps
                                      for out in outcomes),
                          f"{burst} burst searches"),
        "recall_at_10": (sum(out.recall * out.recall_queries
                             for out in outcomes) / queries,
                         f"{queries} queries"),
        "space_amp": (float(np.median([out.space_amp for out in outcomes])),
                      f"{len(outcomes)} rounds"),
        "peak_rss_mb": (max(peaks), f"{len(peaks)} rounds"),
    }


def per_layer(metrics, outcome, untraced_wall, search_wall_ms):
    """name -> (value, samples) for one traced round."""
    p50, p99 = wall_percentiles(search_wall_ms)
    metrics["proxy.search.wall_p50_ms"] = p50
    metrics["proxy.search.wall_p99_ms"] = p99
    metrics["proxy.consistency_wait_p99_vms"] = \
        percentile(outcome.wait_vms, 99)[0] if outcome.wait_vms else 0.0
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced_wall \
        - 1.0
    return {name: (metrics[name], "") for name in PER_LAYER}


def span_tree_failures(recorder) -> list[str]:
    """The spans must form one tree under the root, each name mapped to a
    self-time metric.  Then the self times, ``event_loop.self_s`` (the
    root's own) included, add up to the traced wall by construction."""
    failures = []
    unknown = set(recorder.names) - set(SELF_METRIC)
    if unknown:
        failures.append(f"spans without a self-time metric: "
                        f"{sorted(unknown)}")
    spans = recorder.arrays()
    roots = np.flatnonzero(spans["parent"] < 0)
    if roots.tolist() != [0] or recorder.names[spans["name_id"][0]] \
            != ROOT_SPAN:
        failures.append(f"{len(roots)} spans outside the {ROOT_SPAN!r} "
                        f"root")
    if np.isnan(spans["end"]).any():
        failures.append("spans left open")
    return failures


def untraced_round(workload, verbs):
    """Round 0 on a fresh cluster without probes: the phase's wall time,
    the wall times of its search calls, and failed checks."""
    gc.collect()
    cluster, physical = workload.setup()
    calls = len(verbs.wall_ms["search"])
    start = perf_counter()
    outcome = workload.phase(cluster, physical, verbs, 0)
    wall = perf_counter() - start
    search_ms = verbs.wall_ms["search"][calls:]
    workload.finish(cluster, physical, verbs, 0, outcome)
    cluster = None
    workload.grade(0, outcome)
    return wall, search_ms, outcome.failures


def traced_round(workload, verbs, name):
    """Round 0 with every probe installed, between two untraced runs of
    the same round; their mean wall is the base of the tracing overhead.
    Per-call wall latencies come from the untraced runs."""
    first_wall, search_ms, failures = untraced_round(workload, verbs)
    gc.collect()
    cluster, physical = workload.setup()
    probes = LayerProbes()
    probes.note_start(cluster)
    probes.install()
    try:
        root = probes.recorder.open(probes.recorder.name_index(ROOT_SPAN))
        try:
            outcome = workload.phase(cluster, physical, verbs, 0)
        finally:
            probes.recorder.close(root)
    finally:
        probes.uninstall()
    workload.finish(cluster, physical, verbs, 0, outcome)
    layer_metrics = probes.metrics(
        cluster, outcome.rows_written * ROW_BYTES, workload.tenant)
    cluster = None
    workload.grade(0, outcome)
    failures += outcome.failures
    second_wall, more_ms, more_failures = untraced_round(workload, verbs)
    failures += more_failures
    metrics = per_layer(layer_metrics, outcome,
                        (first_wall + second_wall) / 2.0,
                        search_ms + more_ms)
    failures += span_tree_failures(probes.recorder)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, f"{name}-spans.npz"),
             **probes.recorder.arrays())
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment()))
    verbs = Verbs()
    if not args.trace:
        setup_s, phase_s, peaks, outcomes = run_rounds(workload, verbs)
        failures = [f for out in outcomes for f in out.failures]
        metrics = end_to_end(setup_s, phase_s, peaks, outcomes)
        print("# rounds setup_s " + " ".join(f"{v:.3f}" for v in setup_s)
              + " | phase_s " + " ".join(f"{v:.3f}" for v in phase_s)
              + " | phase_cpu_s " + " ".join(f"{o.cpu_s:.3f}"
                                             for o in outcomes)
              + " | work " + " ".join(str(o.work) for o in outcomes)
              + " | capacity " + " ".join(f"{o.capacity_vqps:.1f}"
                                          for o in outcomes)
              + " | peak_rss_mb " + " ".join(f"{p:.1f}" for p in peaks))
        units = END_TO_END
    else:
        metrics, failures = traced_round(workload, verbs, args.workload)
        units = PER_LAYER

    print(f"{'metric':40s} {'value':>16s}  {'unit':8s} samples")
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"{name:40s} {value:16.6f}  {unit:8s} {samples}")
    attempted = sum(verbs.attempted.values())
    failed = sum(verbs.failed.values())
    print(f"# verbs attempted {dict(verbs.attempted)} "
          f"failed {dict(verbs.failed)} errors {dict(verbs.errors)} "
          f"error_rate {failed / max(1, attempted):.6f}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
