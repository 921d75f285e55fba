"""One workload process: set up, warm up, then run timed (``--mode run``) or
traced (``--mode trace``) rounds, or none (``--mode setup``: set-up only).

Started by ``run.py`` with single-threaded BLAS in its environment. The rhokit
under test is the ``src/`` next to this directory. Prints one JSON object on
stdout, including the monotonic time at which set-up ended.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import spans
import stats
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
SPAWN_SAMPLES = 5

# Public functions wrapped in the traced run, with the counter each feeds.
TARGETS = {
    "linalg.eig_hermitian": None,
    "linalg.complete_orthonormal": None,
    "linalg.schmidt_decompose": None,
    "linalg.partial_trace_m": None,
    "linalg.tensor_ket": None,
    "ensembles.validate_ensemble": None,
    "ensembles.ensemble_to_density": None,
    "ensembles.densities_match": None,
    "purification.check_umap": None,
    "purification.lemma_unitary": None,
    "purification.purify": None,
    "purification.match_purification": None,
    "purification.ensemble_from_basis": None,
    "purification.umap_between": None,
    "purification.apply_unitary_umap": None,
    "purification.ensemble_containing": None,
    "steering.measure_ancilla": lambda t, a, k, r: t.count(
        "steering.measure_ancilla.bytes_computed", 16 * (a[0].dim_s * a[0].dim_m) ** 2),
    "steering.sample_outcomes": lambda t, a, k, r: t.count(
        "steering.sample_outcomes.draws", int(a[1] if len(a) > 1 else k["shots"])),
    "steering.steer": None,
    "documents.dump_document": lambda t, a, k, r: t.count("documents.bytes_out", len(r.encode())),
    "documents.load_document": lambda t, a, k, r: t.count("documents.bytes_in", len(a[0].encode())),
    "cli.main": None,
}
for _name in ("ket", "matrix", "ensemble", "joint", "basis", "umap", "report", "ancilla_basis"):
    TARGETS[f"documents.{_name}_document"] = None
for _name in ("ket", "matrix", "ensemble", "joint", "basis", "umap", "report"):
    TARGETS[f"documents.to_{_name}"] = None
LAYERS = ("linalg", "ensembles", "purification", "steering", "documents", "cli")


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def timed_round(wl, i, workloads):
    ops = wl.ops(i)
    gc.collect()
    t0 = time.perf_counter()
    outs = workloads.run_ops(ops)
    return ops, outs, (time.perf_counter() - t0) * 1e3


def judge_round(workloads, ops, outs):
    tally = workloads.Tally()
    for op, out in zip(ops, outs):
        tally.add(op, out)
    return tally


def run(wl, workloads, seconds, reference) -> dict:
    """A fixed number of timed rounds, with the reference kernel before the
    first and after each.

    The count is about ``seconds`` of rounds (``Workload.round_count``);
    ``run.py`` stops a process that runs far longer. A library workload runs
    enough rounds that the pooled rounds of ``stats.PROCESSES`` processes
    meet the p90 tail rule; a CLI round costs seconds, so there that rule is
    out of reach.
    """
    min_rounds = 1 if wl.processes else -(-stats.min_samples(0.9) // stats.PROCESSES)
    planned = wl.round_count(seconds, min_rounds)
    total = workloads.Tally()
    rounds_ms, reference_ms = [], [reference.ms(0.0)]
    for i in range(planned):
        ops, outs, ms = timed_round(wl, i, workloads)
        rounds_ms.append(ms)
        reference_ms.append(reference.ms(ms))
        total.merge(judge_round(workloads, ops, outs))
        wl.clean()
    return {"rounds_ms": rounds_ms, "reference_ms": reference_ms, "tally": vars(total)}


def spawn_ms(argv) -> float:
    samples = []
    for _ in range(SPAWN_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, timeout=60)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def traced(wl, workloads, seconds, spans_path) -> dict:
    """Alternate untraced and traced rounds; return per-layer metrics.

    Every cycle of traced rounds must repeat the same exact counts; the first
    and second half of the run are two traced runs of one seed.
    """
    metrics = {"cli.spawn_ms": 0.0, "cli.import_ms": 0.0}
    if wl.processes:
        spawn = spawn_ms(["-c", "pass"])
        metrics["cli.spawn_ms"] = spawn
        metrics["cli.import_ms"] = spawn_ms(["-c", "import rhokit.cli"]) - spawn
    tracer = spans.Tracer()
    replaced = spans.instrument(tracer, TARGETS)
    total = workloads.Tally()
    plain_ms, traced_ms, tallies = [], [], {}
    planned = wl.round_count(seconds / 2, 2 * wl.cycle)  # two rounds per step
    for i in range(planned):
        ops, outs, ms = timed_round(wl, i, workloads)
        plain_ms.append(ms)
        total.merge(judge_round(workloads, ops, outs))
        wl.clean()
        spans.apply(replaced)
        ops = wl.ops(i)
        gc.collect()
        tracer.begin_round(i)
        t0 = time.perf_counter()
        outs = workloads.run_ops(ops)
        traced_ms.append((time.perf_counter() - t0) * 1e3)
        tracer.end_round()
        spans.restore(replaced)
        tallies[i] = judge_round(workloads, ops, outs)
        total.merge(tallies[i])
        wl.clean()
    tracer.write(spans_path)

    self_ms = spans.self_ms(tracer.spans)
    calls = spans.call_counts(tracer.spans)
    exact = {}
    for r in range(planned):
        row = dict(tracer.counts[r])
        row.update({f"{name}.calls": n for name, n in calls[r].items()})
        row.update(tallies[r].counts())
        exact[r] = row
    cycles = [_sum_rows(exact[c * wl.cycle + k] for k in range(wl.cycle)) for c in range(planned // wl.cycle)]
    for c, row in enumerate(cycles):
        if row != cycles[0]:
            diff = sorted(k for k in set(row) | set(cycles[0]) if row.get(k) != cycles[0].get(k))
            raise SystemExit(f"perfbench: exact counts differ between traced cycles 0 and {c}: {diff}")
    per_round = {k: v // wl.cycle if v % wl.cycle == 0 else v / wl.cycle for k, v in cycles[0].items()}

    def med(fn) -> float:
        return statistics.median(fn(self_ms[r]) for r in range(planned))

    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = med(lambda s: sum(v for k, v in s.items() if k.startswith(layer + ".")))
    for name in TARGETS:
        metrics[f"{name}.self_ms"] = med(lambda s: s.get(name, 0.0))
        metrics[f"{name}.calls"] = per_round.get(f"{name}.calls", 0)
    metrics["documents.dump.self_ms"] = med(lambda s: sum(v for k, v in s.items() if k.startswith("documents.") and k.endswith("_document") and k != "documents.load_document"))
    metrics["documents.load.self_ms"] = med(lambda s: sum(v for k, v in s.items() if k == "documents.load_document" or k.startswith("documents.to_")))
    for key in ("steering.measure_ancilla.bytes_computed", "steering.sample_outcomes.draws",
                "documents.bytes_out", "documents.bytes_in", "purification.check_umap.dirty",
                "errors.typed", "errors.untyped", "cli.bad_exit"):
        metrics[key] = per_round.get(key, 0)
    plain_p50 = stats.median(plain_ms)
    traced_p50 = stats.median(traced_ms)
    metrics["trace.round_ms"] = traced_p50
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    metrics["trace.attributed_pct"] = med(lambda s: 100.0 * (1.0 - s["round"] / sum(s.values())))
    return {"metrics": metrics, "rounds": planned, "tally": vars(total)}


def _sum_rows(rows) -> dict:
    out: dict = {}
    for row in rows:
        for k, v in row.items():
            out[k] = out.get(k, 0) + v
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    args = parser.parse_args(argv)

    import rhokit

    source = ROOT / "src" / "rhokit"
    if Path(rhokit.__file__).resolve().parent != source:
        raise SystemExit(f"perfbench: rhokit imported from {rhokit.__file__}, not {source}")
    if args.mode == "trace":
        import rhokit.cli  # noqa: F401  (so its names can be wrapped)
        import rhokit.documents  # noqa: F401
    import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    launcher = workloads.Launcher()
    try:
        runner = workloads.run_in_process if args.mode == "trace" else launcher.run
        wl = workloads.build(args.workload, args.seed, workdir, runner)
        # Made before the warm-up round, so its buffers are resident at every peak.
        reference = None if args.mode == "trace" else Reference(wl.reference)
        workloads.run_ops(wl.ops(0))  # warm-up round, untimed and unjudged
        wl.clean()
        setup_end = time.monotonic()
        if args.mode == "trace":
            spans_path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            result = traced(wl, workloads, args.seconds, spans_path)
        elif args.mode == "setup":
            result = {}
        else:
            result = run(wl, workloads, args.seconds, reference)
            result["reference_nominal_ms"] = reference.nominal_ms
            own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - reference.resident_mb
            result["peak_rss_mb"] = launcher.close() if wl.processes else own_mb
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_end=setup_end, cycle=wl.cycle, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
