"""Interleaved in-process A/B of one workload round: a parent tree against this one.

    git archive <rev> src | tar -x -C DIR
    python3 tools/ab_interleaved.py --parent DIR --workload construct --seed 201 --pairs 400

Loads two copies of rhokit in one process, the parent's from ``DIR/src`` and
this tree's from the ``src/`` next to this directory, and gives each its own
module built from this tree's ``perfbench/workloads.py`` (read only; nothing
under ``perfbench/`` or ``DIR`` is changed, and no bytecode is written). Each
side builds the workload's first round from the same seed, then both run a
few untimed warm-up rounds. Each of the ``--pairs`` pairs times one round per
side, after ``gc.collect()``, and alternates which side runs first. BLAS and
OpenMP run single-threaded.

Prints one JSON line: each side's median round time, the parent's
interquartile range, the ratio of the medians (change over parent), the
share of pairs the change won, each side's failed operations in its first
warm-up round, and ``changed_outputs``. Timing both sides in one process
removes the spread between worker processes that ``perfbench/run.py``
carries; it is not the benchmark's metric and changes none.

``changed_outputs`` lists, in round order, the case classes (an operation
name's part before ``/``: ``purify``, ``steer``, ...) whose outputs in that
first round, errors included, differ bit for bit between the two sides.
``[]`` means the change computes the same numbers; ``--pairs 2`` checks just
that.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("construct", "steer_sweep")
WARMUP_ROUNDS = 3


def load_side(name: str, src: Path):
    """This tree's ``perfbench/workloads.py`` as module ``name``, importing
    the rhokit under ``src``.

    The rhokit modules are taken out of ``sys.modules`` again afterwards, so
    the next side imports its own copy; each module keeps the references it
    bound at import time.
    """
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        for key in [k for k in sys.modules if k == "rhokit" or k.startswith("rhokit.")]:
            del sys.modules[key]
    if Path(module.rhokit.__file__).parent != src / "rhokit":
        raise SystemExit(f"{name}: imported rhokit from {module.rhokit.__file__}")
    return module


def feed(h, value) -> None:
    """Add a canonical byte encoding of ``value`` to the hash ``h``.

    Raises TypeError for a value it has no encoding for, so no part of an
    output is silently left out.
    """
    import numpy as np

    if value is None or isinstance(value, (bool, int, float, complex, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, BaseException):
        h.update(f"raised {type(value).__name__}:{value};".encode())
    elif isinstance(value, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(value)
        h.update(f"array {arr.dtype.str} {arr.shape};".encode())
        h.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__} {len(value)};".encode())
        for item in value:
            feed(h, item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(f"{type(value).__name__};".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"no digest encoding for {type(value).__name__}")


def digests(ops, outs) -> dict[str, str]:
    """Case class -> hex SHA-256 over its outputs, in first-seen order."""
    hashes: dict[str, object] = {}
    for op, out in zip(ops, outs):
        h = hashes.setdefault(op.cls.split("/")[0], hashlib.sha256())
        h.update(f"{op.cls};".encode())
        feed(h, out)
    return {cls: h.hexdigest() for cls, h in hashes.items()}


def timed_round(workloads, ops) -> float:
    gc.collect()
    t0 = time.perf_counter()
    workloads.run_ops(ops)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="holds the parent's src/")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    os.environ.update(THREAD_ENV)  # read when numpy first loads, below
    sys.dont_write_bytecode = True  # leave perfbench/ and both src/ trees as they are
    sides = {
        "parent": load_side("workloads_parent", args.parent.resolve() / "src"),
        "change": load_side("workloads_change", ROOT / "src"),
    }
    # Neither workload writes files, so the work directory is never used.
    rounds = {k: wl.build(args.workload, args.seed, ROOT).ops(0) for k, wl in sides.items()}
    failed, digested = {}, {}
    for side, wl in sides.items():
        outs = wl.run_ops(rounds[side])
        failed[side] = sum(wl.judge(op, out) is not None for op, out in zip(rounds[side], outs))
        digested[side] = digests(rounds[side], outs)
        for _ in range(WARMUP_ROUNDS - 1):
            wl.run_ops(rounds[side])

    times = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(timed_round(sides[side], rounds[side]))

    median = {side: statistics.median(t) for side, t in times.items()}
    q1, _, q3 = statistics.quantiles(times["parent"], n=4)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "parent_median_ms": round(median["parent"], 4),
                "change_median_ms": round(median["change"], 4),
                "parent_iqr_ms": round(q3 - q1, 4),
                "ratio": round(median["change"] / median["parent"], 4),
                "change_faster_share": round(wins / args.pairs, 4),
                "failed": failed,
                "changed_outputs": [
                    cls for cls, h in digested["change"].items() if digested["parent"][cls] != h
                ],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
