"""Benchmark entry point for rhokit: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Runs from any directory; the rhokit under test is the ``src/`` next to this
directory. This process and every workload process, CLI children included,
get single-threaded BLAS and OpenMP. With ``--trace 0`` the run prints each
end-to-end metric of BENCHMARK.json; with ``--trace 1`` a separate traced run
prints each per-layer metric. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per end-to-end run: the timed processes' and set-up-only ones
SETUP_ALLOWANCE_S = 60  # beyond the longest the workload processes may run
START = time.monotonic()
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def start_worker(args, mode: str, seconds: float) -> tuple[dict, float]:
    """Run one workload process; return its result and its start time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = START + stats.MAX_SECONDS_FACTOR * args.seconds + SETUP_ALLOWANCE_S
    started = time.monotonic()
    # A process group of its own, so that on timeout its CLI children die with it.
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {mode} worker for {args.workload} ran past {deadline - START:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: {mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(out.splitlines()[-1]), started


def end_to_end(args, workloads) -> tuple[dict, dict]:
    """stats.PROCESSES workload processes in turn, each for its share of the
    run, then set-up-only processes up to SETUPS set-ups.

    Round times and set-up times are both reported at the reference kernel's
    nominal speed: each round against the mean of the kernel runs right
    before and right after it; set-up, too short to be paired with its own
    kernel runs without their noise dominating, against the median of all
    kernel runs of the run.
    """
    wall, rounds, wall_setups, peaks, references = [], [], [], [], []
    tally = workloads.Tally()
    for k in range(SETUPS):
        mode = "run" if k < stats.PROCESSES else "setup"
        res, started = start_worker(args, mode, args.seconds / stats.PROCESSES)
        wall_setups.append(res["setup_end"] - started)
        if mode == "setup":
            continue
        nominal, ref = res["reference_nominal_ms"], res["reference_ms"]
        wall += res["rounds_ms"]
        rounds += [w * nominal / ((a + b) / 2) for w, a, b in zip(res["rounds_ms"], ref, ref[1:])]
        references += ref
        peaks.append(res["peak_rss_mb"])
        tally.merge(workloads.Tally(**res["tally"]))
    setups = [s * nominal / stats.median(references) for s in wall_setups]
    metrics = {
        "throughput_ops_s": tally.attempted / (sum(rounds) / 1e3),
        "round_p50_ms": stats.median(rounds),
        "round_p90_ms": stats.percentile(rounds, 0.9),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": max(peaks),
        "setup_s": stats.median(setups),
    }
    res["tally"] = tally
    res["notes"] = [
        f"rounds={len(rounds)} processes={stats.PROCESSES} setups={SETUPS} cycle={res['cycle']} "
        f"p90_rounds_beyond={stats.samples_beyond(len(rounds), 0.9)} "
        f"p90_rule_met={stats.tail_rule_met(len(rounds), 0.9)} "
        f"setups_s={[round(s, 4) for s in setups]}",
        f"wall_round_p50_ms={stats.median(wall):.4f} "
        f"wall_round_p90_ms={stats.percentile(wall, 0.9):.4f} "
        f"wall_throughput_ops_s={tally.attempted / (sum(wall) / 1e3):.4f} "
        f"wall_setup_s={stats.median(wall_setups):.4f} "
        f"reference_p50_ms={stats.median(references):.4f}",
    ]
    return metrics, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if not (SRC / "rhokit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rhokit source under {SRC}")
    # Byte-compile first, as an installed package would be; set-up then
    # measures import, not compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    # Set before numpy loads here, and inherited by every process started.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads  # imports the rhokit under test, known now to be there

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        res, _ = start_worker(args, "trace", args.seconds)
        metrics = res["metrics"]
        res["tally"] = workloads.Tally(**res["tally"])
        res["notes"] = [f"traced rounds={res['rounds']} cycle={res['cycle']}"]
    else:
        metrics, res = end_to_end(args, workloads)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics missing from the run: {missing}")

    tally = res["tally"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    for line in res["notes"]:
        print(f"# {line}")
    print(f"# attempted={tally.attempted} failed={tally.failed} unexpected={tally.unexpected}")
    for cls, n in sorted(tally.failures.items()):
        print(f"# failed {cls}: {n}  ({tally.reasons[cls]})")
    for m in wanted:
        print(f"{args.workload}/{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    if args.trace:
        extra = sorted(set(metrics) - {m["name"] for m in wanted})
        for name in extra:
            print(f"# {args.workload}/{name} {metrics[name]:.6g}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
