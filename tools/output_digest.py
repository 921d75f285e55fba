"""SHA-256 digests of one benchmark round's outputs, one per case class.

    python3 tools/output_digest.py --workload construct --seed 201

Builds the named workload from ``perfbench/workloads.py`` (read only; nothing
under ``perfbench/`` is changed), runs its first round once against the
``src/`` next to this directory, and prints one line ``<class> <sha256>`` per
case class in round order. A case class is the part of an operation's name
before ``/`` (``purify``, ``ensemble_containing``, ...). Every output feeds
its class's digest, errors included (type and message), in the round's
order. BLAS and OpenMP run single-threaded, so two trees that compute the
same numbers print the same lines; compare the lines of two checkouts to see
which constructions changed their outputs bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("construct", "steer_sweep")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)  # read when numpy first loads, below
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    # Neither workload writes files, so the work directory is never used.
    wl = workloads.build(args.workload, args.seed, ROOT)
    ops = wl.ops(0)
    for cls, digest in digests(ops, workloads.run_ops(ops)).items():
        print(cls, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
