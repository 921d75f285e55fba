"""Interleaved A/B of one workload round: a parent tree against this one.

    git archive <rev> src | tar -x -C DIR
    python3 tools/ab_interleaved.py --parent DIR --workload construct --seed 201 --pairs 400

Loads two copies of rhokit in one process, the parent's from ``DIR/src`` and
this tree's from the ``src/`` next to this directory, and gives each its own
module built from this tree's ``perfbench/workloads.py`` (read only; nothing
under ``perfbench/``, ``DIR`` or ``src/`` is changed, and no bytecode is
written there). Each side builds the workload from the same seed in its own
temporary work directory, then runs untimed warm-up rounds: three, or one for
``cli_pipeline``. Pair ``i`` times round ``i`` of the workload's cycle once
per side and alternates which side runs first. Before every timed round, of
either side, runs perfbench's reference kernel for the workload untimed
(``Reference(wl.reference).ms``, from ``perfbench/reference.py``, read only),
as ``perfbench/worker.py`` does between its rounds, then ``gc.collect()``: the
kernel rewrites a buffer far larger than the caches, so each round starts as
cold as the benchmark's do. BLAS and OpenMP run single-threaded.

``construct`` and ``steer_sweep`` call each side's library in this process.
``cli_pipeline`` starts each command as ``python -m rhokit.cli`` with the
side's ``src/`` first on ``PYTHONPATH``, so its rounds include interpreter
start, import and exit, which ``perfbench``'s traced run (the CLI in process)
cannot see. Those processes keep their bytecode in the side's work
directory, so both sides start from a cold cache and warm it alike.

Prints one JSON line: each side's median round time, the parent's
interquartile range, the ratio of the medians (change over parent), the
share of pairs the change won, each side's failed operations in its first
warm-up round, ``changed_outputs`` and ``largest_change``. Timing both sides
in one process removes the spread between worker processes that
``perfbench/run.py`` carries; it is not the benchmark's metric and changes none.

``changed_outputs`` lists, in round order, the case classes (an operation
name's part before ``/``: ``purify``, ``steer``, ``cli``, ...) whose outputs
in any round run, errors included, differ bit for bit between the two sides.
``files`` stands for the files a round writes (``cli_pipeline``: the
documents its commands write). ``[]`` means the change computes the same
numbers; ``--pairs 2`` checks just that. A ``cli_pipeline`` cycle is five
rounds, one per error case, so ``--pairs 5`` covers all of them.
``largest_change`` maps each changed class to the largest entrywise
``|change - parent|`` over its outputs' arrays and numbers in the first
warm-up round; it is ``null`` for ``cli`` and ``files`` and wherever the two
outputs differ in type, shape or text.
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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("construct", "steer_sweep", "cli_pipeline")
WARMUP_ROUNDS = 3  # one for a workload of CLI processes


def load_reference():
    """``perfbench/reference.py``'s ``Reference`` class, loaded from its file."""
    path = ROOT / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Reference


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


def largest_change(parent, change) -> float | None:
    """Largest entrywise ``|change - parent|`` over the arrays and numbers of
    two outputs; None where their types, shapes or other values differ. Types
    are compared by name, since each side has its own copy of rhokit's classes."""
    import numpy as np

    if type(parent).__qualname__ != type(change).__qualname__:
        return None
    if isinstance(parent, (np.ndarray, np.generic, int, float, complex)):
        parent, change = np.asarray(parent), np.asarray(change)
        if parent.shape != change.shape or parent.dtype != change.dtype:
            return None
        if parent.dtype.kind not in "iufc":  # bools
            return 0.0 if np.array_equal(parent, change) else None
        return float(np.abs(change - parent).max(initial=0.0))
    if isinstance(parent, (tuple, list)) and len(parent) == len(change):
        pairs = zip(parent, change)
    elif dataclasses.is_dataclass(parent):
        names = [f.name for f in dataclasses.fields(parent)]
        pairs = [(getattr(parent, name), getattr(change, name)) for name in names]
    else:  # text, None, a raised error, lists of two lengths
        return 0.0 if repr(parent) == repr(change) else None
    changes = [largest_change(p, c) for p, c in pairs]
    return None if None in changes else max(changes, default=0.0)


def cli_runner(workloads, src: Path, workdir: Path):
    """``runner(argv)`` for ``workloads.build``: one CLI command as a process
    of the rhokit under ``src``."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the cache above is outside every tree

    def run(argv):
        done = subprocess.run(
            [sys.executable, "-m", "rhokit.cli", *argv], capture_output=True, text=True,
            env=env, timeout=workloads.CLI_TIMEOUT_S, check=False,
        )
        return workloads.CliResult(done.returncode, done.stdout, done.stderr)

    return run


def digest_round(hashes: dict, wl, ops, outs) -> None:
    """Add a round's outputs, then the files it wrote, to ``hashes``: case
    class -> SHA-256, in first-seen order."""
    for op, out in zip(ops, outs):
        h = hashes.setdefault(op.cls.split("/")[0], hashlib.sha256())
        h.update(f"{op.cls};".encode())
        feed(h, out)
    for path in wl.outputs:
        h = hashes.setdefault("files", hashlib.sha256())
        data = path.read_bytes() if path.exists() else None
        h.update(f"{path.name} {None if data is None else len(data)};".encode())
        h.update(data or b"")


def run_round(workloads, wl, i: int, hashes: dict) -> tuple[float, list]:
    """Round ``i``: its time in ms and its outputs, which go into ``hashes``
    after the timer stops. The caller judges them, then calls ``wl.clean()``."""
    ops = wl.ops(i)
    gc.collect()
    t0 = time.perf_counter()
    outs = workloads.run_ops(ops)
    ms = (time.perf_counter() - t0) * 1e3
    digest_round(hashes, wl, ops, outs)
    return ms, outs


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
    srcs = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    sides = {side: load_side(f"workloads_{side}", src) for side, src in srcs.items()}
    hashes = {side: {} for side in sides}
    times = {side: [] for side in sides}
    failed, first = {}, {}
    with tempfile.TemporaryDirectory(prefix="ab_interleaved-") as tmp:
        built = {}
        for side, workloads in sides.items():
            workdir = Path(tmp) / side
            workdir.mkdir()
            runner = cli_runner(workloads, srcs[side], workdir)
            built[side] = workloads.build(args.workload, args.seed, workdir, runner)
        for side, workloads in sides.items():
            wl = built[side]
            _, outs = run_round(workloads, wl, 0, hashes[side])
            first[side] = outs
            failed[side] = sum(workloads.judge(op, out) is not None for op, out in zip(wl.ops(0), outs))
            wl.clean()
            for _ in range(0 if wl.processes else WARMUP_ROUNDS - 1):
                run_round(workloads, wl, 0, hashes[side])

        reference = load_reference()(built["change"].reference)  # the workload's own kernel
        ms = 0.0
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                reference.ms(ms)  # untimed, as after the round that ran last
                ms, _ = run_round(sides[side], built[side], i, hashes[side])
                built[side].clean()
                times[side].append(ms)

    changed = [
        cls for cls, h in hashes["change"].items() if hashes["parent"][cls].digest() != h.digest()
    ]
    classes = [op.cls.split("/")[0] for op in built["change"].ops(0)]

    def outputs(side, cls):
        return [out for c, out in zip(classes, first[side]) if c == cls]

    largest = {  # a CLI process's outputs are text
        cls: None if built["change"].processes
        else largest_change(outputs("parent", cls), outputs("change", cls))
        for cls in changed
    }
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
                "changed_outputs": changed,
                "largest_change": largest,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
