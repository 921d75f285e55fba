"""The three workloads: inputs made from the seed, the calls of one round, and
the checks on every output.

A round is the workload's whole fixed case list, so every round does the same
work. Outputs are judged after the round's timer stops. The checks use
independent numpy oracles, except where the spec names the library's own
checker (``validate_ensemble``, ``check_umap``).
"""

from __future__ import annotations

import functools
import io
import json
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import rhokit
from rhokit import documents
from rhokit.errors import RhokitError

TOL = 1e-10  # the library's default tolerance: exact identities
MAP_TOL = 1e-8  # residual of maps and reconstructions (acceptance criterion 4)
RANK_TOL = 1e-10
DIRTY = "check_umap"  # reason prefix of an output that fails check_umap
CLI_TIMEOUT_S = 60
SKEW_LEVELS = (1e-5, 1e-7, 1e-9)
ERROR_CASES = ("malformed", "wrong_kind", "out_of_support", "dirty_verify", "steer_shots0")

# Failures already reproduced on the unchanged tree (see README.md). They are
# counted in ok_ratio and `failed`; only a failure outside them makes a run
# incorrect.
KNOWN_DEFECTS = (
    "umap_between/skew1e-07",
    "umap_between/skew1e-09",
    "match_purification/skew1e-07",
    "match_purification/skew1e-09",
    "ensemble_from_basis/fortran",
    "cli/error/steer_shots0",
)


@dataclass
class Op:
    """One operation of a round: a library call or one CLI command."""

    cls: str
    call: object
    check: object
    expect_error: bool = False

    def known_defect(self) -> bool:
        return self.cls.split("@")[0] in KNOWN_DEFECTS


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Outcome counts of the judged operations."""

    attempted: int = 0
    failed: int = 0
    typed: int = 0
    untyped: int = 0
    bad_exit: int = 0
    dirty: int = 0
    unexpected: int = 0
    failures: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)

    def add(self, op: Op, out) -> None:
        self.attempted += 1
        kind = error_kind(out)
        if kind == "typed":
            self.typed += 1
        elif kind == "untyped":
            self.untyped += 1
        if isinstance(out, CliResult) and out.code not in (0, 2, 3, 4):
            self.bad_exit += 1
        reason = judge(op, out)
        if reason is None:
            return
        self.failed += 1
        self.dirty += reason.startswith(DIRTY)
        self.unexpected += not op.known_defect()
        self.failures[op.cls] = self.failures.get(op.cls, 0) + 1
        self.reasons.setdefault(op.cls, " ".join(reason.split())[:300])

    def merge(self, other: Tally) -> Tally:
        """Add ``other``'s counts into this tally; the first reason per class stays."""
        for f in fields(self):
            if isinstance(getattr(self, f.name), int):
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for cls, n in other.failures.items():
            self.failures[cls] = self.failures.get(cls, 0) + n
        for cls, reason in other.reasons.items():
            self.reasons.setdefault(cls, reason)
        return self

    def counts(self) -> dict:
        return {
            "purification.check_umap.dirty": self.dirty,
            "errors.typed": self.typed,
            "errors.untyped": self.untyped,
            "cli.bad_exit": self.bad_exit,
        }


def error_kind(out) -> str | None:
    if isinstance(out, RhokitError) or (isinstance(out, CliResult) and out.code in (2, 3, 4)):
        return "typed"
    if isinstance(out, Exception) or (isinstance(out, CliResult) and out.code != 0):
        return "untyped"
    return None


def judge(op: Op, out) -> str | None:
    """None when the output passed its check, else the reason it failed."""
    if isinstance(out, Exception) and not op.expect_error:
        return f"raised {type(out).__name__}: {out}"
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output must count, not crash the run
        return f"check raised {type(exc).__name__}: {exc}"


def run_ops(ops) -> list:
    outs = []
    for op in ops:
        try:
            outs.append(op.call())
        except Exception as exc:  # judged after the timer, like any output
            outs.append(exc)
    return outs


@dataclass
class Workload:
    name: str
    rounds: list  # round i runs rounds[i % len(rounds)]
    round_s: float  # about one round's wall time, its kernel runs included; sets the round count
    processes: bool = False  # operations are CLI processes
    outputs: list = field(default_factory=list)  # files a round writes
    reference: str = "compute"  # kernel that rounds are timed against

    def clean(self) -> None:
        """Remove a round's output files, so no check can read a stale one."""
        for path in self.outputs:
            path.unlink(missing_ok=True)

    @property
    def cycle(self) -> int:
        return len(self.rounds)

    def round_count(self, seconds: float, minimum: int) -> int:
        """Whole cycles of rounds, about ``seconds`` of them at ``round_s``
        and at least ``minimum``. It depends on the arguments alone, never on
        measured time, so a seed's counts repeat exactly from run to run."""
        n = max(minimum, round(seconds / self.round_s))
        return -(-n // self.cycle) * self.cycle

    def ops(self, i: int) -> list:
        return self.rounds[i % self.cycle]


def build(name: str, seed: int, workdir: Path, runner=None) -> Workload:
    """The named workload; ``runner(argv)`` runs one CLI command."""
    rng = np.random.default_rng(seed)
    if name == "construct":
        return Workload(name, [construct_ops(rng)], 0.3)
    if name == "steer_sweep":
        return Workload(name, [steer_ops(rng, seed)], 0.16, reference="memory")
    if name == "cli_pipeline":
        rounds, outputs = cli_rounds(rng, seed, workdir, runner)
        # In-process (the traced run) a round skips eight interpreter starts.
        round_s = 0.5 if runner is run_in_process else 2.3
        return Workload(name, rounds, round_s, processes=True, outputs=outputs)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# inputs and oracles (numpy only)


def lib(name: str, *args):
    """Call a public rhokit function, looked up at call time."""
    return getattr(rhokit, name)(*args)


def rand_kets(rng, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1)[:, None]


def rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return np.ascontiguousarray(q * (np.diag(r) / np.abs(np.diag(r)))[None, :])


def rand_weights(rng, n: int) -> np.ndarray:
    w = rng.random(n) + 0.1
    return w / w.sum()


def skewed_weights(d: int, smallest: float) -> np.ndarray:
    """Geometric spectrum whose smallest weight is exactly ``smallest``."""
    w = np.geomspace(1.0, smallest, d)
    w[:-1] *= (1.0 - smallest) / w[:-1].sum()
    return w


def density(kets, weights) -> np.ndarray:
    return kets.T @ (weights[:, None] * np.conj(kets))


def joint_matrix(kets, weights, dim_m: int, rotation=None) -> np.ndarray:
    """(dim_s, dim_m) coefficients of sum_j sqrt(w_j) phi_j (x) (V e_j)."""
    a = np.zeros((kets.shape[1], dim_m), dtype=complex)
    a[:, : kets.shape[0]] = (np.sqrt(weights)[:, None] * kets).T
    return a if rotation is None else a @ rotation.T


def joint_state(a) -> rhokit.JointState:
    return rhokit.JointState(dim_s=a.shape[0], dim_m=a.shape[1], vec=a.reshape(-1))


def condition(a, basis):
    """Oracle for ensemble_from_basis: (kets, weights) of the members."""
    cond = a @ np.conj(basis).T
    w = np.sum(np.abs(cond) ** 2, axis=0)
    keep = w > RANK_TOL
    return np.ascontiguousarray((cond[:, keep] / np.sqrt(w[keep])).T), w[keep]


def rank_deficient_joint(rng, d: int, rank: int) -> np.ndarray:
    left = rand_unitary(rng, d)[:, :rank]
    right = rand_unitary(rng, d)[:, :rank]
    c = rand_weights(rng, rank)
    return (left * np.sqrt(c)) @ right.T


def reconstruct(kets, weights, partners) -> np.ndarray:
    return (np.sqrt(weights)[:, None] * kets).T @ partners


def deviation(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def over(label: str, value: float, tol: float) -> str | None:
    return f"{label} {value:.3e} > {tol:.0e}" if not value <= tol else None


def first_failure(*reasons) -> str | None:
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# checks of library outputs


def check_ensemble(ens, rho) -> str | None:
    report = rhokit.validate_ensemble(ens)
    if report:
        return "validate_ensemble: " + report[0]
    return over("density deviation", deviation(density(ens.kets, ens.weights), rho), TOL)


def check_purify(kets, weights, out) -> str | None:
    joint, ancilla = out
    a = joint.vec.reshape(joint.dim_s, joint.dim_m)
    return first_failure(
        over("reconstruction", deviation(a, reconstruct(kets, weights, ancilla.kets)), TOL),
        over("reduced state", deviation(a @ np.conj(a).T, density(kets, weights)), TOL),
    )


def check_conditioned(a, out) -> str | None:
    return check_ensemble(out[0], a @ np.conj(a).T)


def check_map(u, from_kets, from_w, to_kets, to_w) -> str | None:
    report = rhokit.check_umap(u)
    if report:
        return f"{DIRTY}: {report[0]}"
    lhs = u.coeffs @ (np.sqrt(from_w)[:, None] * from_kets)
    rhs = np.zeros_like(lhs)
    rhs[: to_kets.shape[0]] = np.sqrt(to_w)[:, None] * to_kets
    return over("mapping residual", deviation(lhs, rhs), MAP_TOL)


def check_umap_between(from_e, to_e, u) -> str | None:
    return check_map(u, from_e.kets, from_e.weights, to_e.kets, to_e.weights)


def check_apply(a, basis, out) -> str | None:
    to_e, u = out
    from_kets, from_w = condition(a, basis)
    return first_failure(
        check_ensemble(to_e, a @ np.conj(a).T),
        check_map(u, from_kets, from_w, to_e.kets, to_e.weights),
    )


def check_contains(a, target, forced_weight, out) -> str | None:
    ens, _ = out
    return first_failure(
        check_ensemble(ens, a @ np.conj(a).T),
        over("first element vs target", deviation(ens.kets[0], target), MAP_TOL),
        over("forced weight error", abs(ens.weights[0] / forced_weight - 1.0), MAP_TOL),
    )


def check_match(a, kets, weights, ancilla) -> str | None:
    return over("reconstruction", deviation(a, reconstruct(kets, weights, ancilla.kets)), MAP_TOL)


def check_typed(out) -> str | None:
    return None if isinstance(out, RhokitError) else "expected a typed RhokitError"


def check_steer(a, shots: int, members: int, report) -> str | None:
    if sum(report.counts) != shots or len(report.counts) != members:
        return f"counts {len(report.counts)} outcomes summing to {sum(report.counts)}"
    return over("post_density deviation", deviation(report.post_density, a @ np.conj(a).T), TOL)


def check_measure(a, out) -> str | None:
    mixture, post = out
    ds, dm = a.shape
    traced = np.einsum("ikjk->ij", post.reshape(ds, dm, ds, dm))
    return first_failure(
        over("outcome weight sum", abs(sum(w for w, _, _ in mixture) - 1.0), TOL * dm),
        over("partial trace deviation", deviation(traced, a @ np.conj(a).T), TOL),
    )


def forced_weight(rho, target) -> float:
    """Weight with which any decomposition of rho can contain ``target``."""
    inverse = np.linalg.pinv(rho, rcond=1e-10, hermitian=True)
    return 1.0 / float(np.real(np.conj(target) @ inverse @ target))


# ---------------------------------------------------------------------------
# construct


CONSTRUCT_ORDERS = {4: (2, 4, 8), 16: (8, 16, 32), 48: (48,), 96: (48,)}
RANK_DEFICIENT_DIMS = (4, 16)


def construct_ops(rng) -> list:
    P = functools.partial
    ops = []
    for d, orders in CONSTRUCT_ORDERS.items():
        for n in orders:
            tag = f"order{n}@{d}"
            kets, w = rand_kets(rng, n, d), rand_weights(rng, n)
            e = rhokit.RhoEnsemble(kets=kets, weights=w)
            a = joint_matrix(kets, w, n, rand_unitary(rng, n))
            joint = joint_state(a)
            basis, unitary = rand_unitary(rng, n), rand_unitary(rng, n)
            to_kets, to_w = condition(a, basis)
            to_e = rhokit.RhoEnsemble(kets=to_kets, weights=to_w)
            target = kets.T @ rand_kets(rng, 1, n)[0]
            target /= np.linalg.norm(target)
            fw = forced_weight(density(kets, w), target)
            ops += [
                Op(f"purify/{tag}", P(lib, "purify", e, n), P(check_purify, kets, w)),
                Op(f"ensemble_from_basis/{tag}", P(lib, "ensemble_from_basis", joint, basis), P(check_conditioned, a)),
                Op(f"umap_between/{tag}", P(lib, "umap_between", e, to_e), P(check_umap_between, e, to_e)),
                Op(f"apply_unitary_umap/{tag}", P(lib, "apply_unitary_umap", joint, basis, unitary), P(check_apply, a, basis)),
                Op(f"ensemble_containing/{tag}", P(lib, "ensemble_containing", joint, target), P(check_contains, a, target, fw)),
                Op(f"match_purification/{tag}", P(lib, "match_purification", e, joint), P(check_match, a, kets, w)),
            ]
    for d in (4, 16):
        for smallest in SKEW_LEVELS:
            tag = f"skew{smallest:.0e}@{d}"
            kets, w = rand_unitary(rng, d), skewed_weights(d, smallest)
            e = rhokit.RhoEnsemble(kets=kets, weights=w)
            a = joint_matrix(kets, w, d, rand_unitary(rng, d))
            to_kets, to_w = condition(a, rand_unitary(rng, d))
            to_e = rhokit.RhoEnsemble(kets=to_kets, weights=to_w)
            ops += [
                Op(f"umap_between/{tag}", P(lib, "umap_between", e, to_e), P(check_umap_between, e, to_e)),
                Op(f"match_purification/{tag}", P(lib, "match_purification", e, joint_state(a)), P(check_match, a, kets, w)),
            ]
    for d in RANK_DEFICIENT_DIMS:
        tag = f"rankdef@{d}"
        a = rank_deficient_joint(rng, d, max(2, d // 4))
        joint = joint_state(a)
        rho = a @ np.conj(a).T
        kets, w = condition(a, rand_unitary(rng, d))
        e = rhokit.RhoEnsemble(kets=kets, weights=w)
        target = rho @ rand_kets(rng, 1, d)[0]
        target /= np.linalg.norm(target)
        ops += [
            Op(f"ensemble_from_basis/{tag}", P(lib, "ensemble_from_basis", joint, rand_unitary(rng, d)), P(check_conditioned, a)),
            Op(f"ensemble_containing/{tag}", P(lib, "ensemble_containing", joint, target), P(check_contains, a, target, forced_weight(rho, target))),
            Op(f"match_purification/{tag}", P(lib, "match_purification", e, joint), P(check_match, a, kets, w)),
        ]
        if d == 16:
            outside = np.ascontiguousarray(np.linalg.svd(a)[0][:, -1])
            ops.append(
                Op(f"ensemble_containing/out_of_support@{d}", P(lib, "ensemble_containing", joint, outside), check_typed, expect_error=True)
            )
    kets, w = rand_kets(rng, 8, 4), rand_weights(rng, 8)
    ops.append(
        Op("purify/order_exceeds@4", P(lib, "purify", rhokit.RhoEnsemble(kets=kets, weights=w), 4), check_typed, expect_error=True)
    )
    kets, w = rand_kets(rng, 4, 4), rand_weights(rng, 4)
    a = joint_matrix(kets, w, 4, rand_unitary(rng, 4))
    fortran = np.asfortranarray(rand_unitary(rng, 4))
    ops.append(Op("ensemble_from_basis/fortran@4", P(lib, "ensemble_from_basis", joint_state(a), fortran), P(check_conditioned, a)))
    return ops


# ---------------------------------------------------------------------------
# steer_sweep


def steer_ops(rng, seed: int) -> list:
    P = functools.partial
    ops = []
    cases = [("n8", rand_kets(rng, 1, 64)[0].reshape(8, 8), 10**4),
             ("n16", rand_kets(rng, 1, 256)[0].reshape(16, 16), 10**4),
             ("rankdef24", rank_deficient_joint(rng, 24, 12), 10**4),
             ("shots1e6@4", rand_kets(rng, 1, 16)[0].reshape(4, 4), 10**6)]
    for k, (tag, a, shots) in enumerate(cases):
        basis = rand_unitary(rng, a.shape[1])
        members = condition(a, basis)[1].size
        ops.append(Op(f"steer/{tag}", P(lib, "steer", joint_state(a), basis, shots, seed + k), P(check_steer, a, shots, members)))
    a = rand_kets(rng, 1, 256)[0].reshape(16, 16)
    ops.append(Op("measure_ancilla/n16", P(lib, "measure_ancilla", joint_state(a), rand_unitary(rng, 16)), P(check_measure, a)))
    return ops


# ---------------------------------------------------------------------------
# cli_pipeline


class Launcher:
    """Runs CLI commands as processes started by ``launcher.py``.

    Started on first use. A process started from this one would report this
    one's RSS as its own peak (see ``launcher.py``).
    """

    def __init__(self):
        self.proc = None

    def run(self, argv) -> CliResult:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("launcher.py")), str(CLI_TIMEOUT_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "rhokit.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        return CliResult(*json.loads(self.proc.stdout.readline()))

    def close(self) -> float | None:
        """Stop the launcher; the largest peak RSS of its CLI processes in MB."""
        if self.proc is None:
            return None
        out, _ = self.proc.communicate(timeout=CLI_TIMEOUT_S)
        self.proc = None
        return int(out.splitlines()[-1]) / 1024.0


def run_in_process(argv) -> CliResult:
    """``rhokit.cli.main`` in this process; an escaping exception reads as exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rhokit.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the process would print this traceback and exit 1
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def payload(path: Path, kind: str) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("kind") != kind:
        raise ValueError(f"{path.name} is a {doc.get('kind')!r} document, expected {kind!r}")
    return doc["payload"]


def cvec(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_ensemble(path: Path) -> rhokit.RhoEnsemble:
    p = payload(path, "ensemble")
    return rhokit.RhoEnsemble(
        kets=cvec([el["ket"] for el in p["elements"]]),
        weights=np.array([el["weight"] for el in p["elements"]]),
    )


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def exited(code: int, res: CliResult) -> str | None:
    return None if res.code == code else f"exit {res.code}, expected {code}: {last_line(res.stderr)}"


def cli_purify_check(joint_path, anc_path, kets, w, res) -> str | None:
    p, b = payload(joint_path, "joint"), payload(anc_path, "basis")
    a = cvec(p["vec"]).reshape(p["dim_s"], p["dim_m"])
    return exited(0, res) or check_purify(kets, w, (joint_state(a), rhokit.Ancilla(p["dim_m"], cvec(b["kets"]))))


def cli_ensemble_check(ens_path, rho, res) -> str | None:
    return exited(0, res) or check_ensemble(read_ensemble(ens_path), rho)


def cli_verify_check(res) -> str | None:
    return exited(0, res) or (None if json.loads(res.stdout)["clean"] else "verify report is not clean")


def cli_steer_check(report_path, rho, shots, res) -> str | None:
    if exited(0, res):
        return exited(0, res)
    p = payload(report_path, "report")
    m = p["post_density"]
    post = cvec(m["entries"]).reshape(m["rows"], m["cols"])
    if sum(p["counts"]) != shots:
        return f"counts sum to {sum(p['counts'])}, expected {shots}"
    return over("post_density deviation", deviation(post, rho), TOL)


def cli_error_check(codes, res) -> str | None:
    """Documented failure: an exit code in ``codes`` and one JSON line on stderr."""
    if res.code not in codes:
        return f"exit {res.code}, expected one of {codes}: {last_line(res.stderr)}"
    lines = res.stderr.splitlines()
    if len(lines) != 1 or "error" not in json.loads(lines[0]):
        return "stderr is not one JSON error line"
    return None


def cli_dirty_verify_check(res) -> str | None:
    return exited(3, res) or (None if json.loads(res.stdout)["clean"] is False else "verify passed a dirty ensemble")


def cli_rounds(rng, seed: int, workdir: Path, runner) -> list:
    """Five rounds, one per error case, and the files they write.

    Legs A and B are the same in each round.
    """
    P = functools.partial
    f = {name: str(workdir / name) for name in (
        "ens4", "ens96", "rho96", "bad", "joint4r", "ket_out", "dirty4", "joint4in", "basis4",
        "a_joint", "a_anc", "a_der", "a_rep", "b_joint", "b_anc", "b_der", "err_out")}

    def write(name, doc):
        Path(f[name]).write_text(documents.dump_document(doc), encoding="utf-8")

    kets4, w4 = rand_kets(rng, 4, 4), rand_weights(rng, 4)
    kets96, w96 = rand_kets(rng, 96, 96), rand_weights(rng, 96)
    rho4, rho96 = density(kets4, w4), density(kets96, w96)
    write("ens4", documents.ensemble_document(rhokit.RhoEnsemble(kets4, w4)))
    write("ens96", documents.ensemble_document(rhokit.RhoEnsemble(kets96, w96)))
    write("rho96", documents.matrix_document(rho96))
    Path(f["bad"]).write_text('{"kind": "ensemble", "version": 1, "payload": ', encoding="utf-8")
    a4r = rank_deficient_joint(rng, 4, 2)
    write("joint4r", documents.joint_document(joint_state(a4r)))
    write("ket_out", documents.ket_document(np.ascontiguousarray(np.linalg.svd(a4r)[0][:, -1])))
    write("dirty4", documents.ensemble_document(rhokit.RhoEnsemble(kets4, 0.9 * w4)))
    write("joint4in", documents.joint_document(joint_state(joint_matrix(kets4, w4, 4, rand_unitary(rng, 4)))))
    write("basis4", documents.basis_document(rand_unitary(rng, 4)))

    def cmd(cls, argv, check):
        return Op(f"cli/{cls}", P(runner, argv), check)

    shots = 10**4
    leg_a = [
        cmd("purify@4", ["purify", f["ens4"], "--dim-m", "4", "--out", f["a_joint"], "--ancilla-out", f["a_anc"]],
            P(cli_purify_check, Path(f["a_joint"]), Path(f["a_anc"]), kets4, w4)),
        cmd("ensemble-from-basis@4", ["ensemble-from-basis", f["a_joint"], f["a_anc"], "--out", f["a_der"]],
            P(cli_ensemble_check, Path(f["a_der"]), rho4)),
        cmd("verify@4", ["verify", "--ensemble", f["a_der"]], cli_verify_check),
        cmd("steer@4", ["steer", f["a_joint"], f["a_anc"], "--shots", str(shots), "--seed", str(seed), "--out", f["a_rep"]],
            P(cli_steer_check, Path(f["a_rep"]), rho4, shots)),
    ]
    leg_b = [
        cmd("purify@96", ["purify", f["ens96"], "--dim-m", "96", "--out", f["b_joint"], "--ancilla-out", f["b_anc"]],
            P(cli_purify_check, Path(f["b_joint"]), Path(f["b_anc"]), kets96, w96)),
        cmd("ensemble-from-basis@96", ["ensemble-from-basis", f["b_joint"], f["b_anc"], "--out", f["b_der"]],
            P(cli_ensemble_check, Path(f["b_der"]), rho96)),
        cmd("verify@96", ["verify", "--ensemble", f["b_der"], "--rho", f["rho96"]], cli_verify_check),
    ]
    documented = P(cli_error_check, (2, 3, 4))
    errors = {
        "malformed": (["verify", "--ensemble", f["bad"]], P(cli_error_check, (2,))),
        "wrong_kind": (["ensemble-from-basis", f["ens4"], f["basis4"]], P(cli_error_check, (2,))),
        "out_of_support": (["contains", f["joint4r"], f["ket_out"], "--out", f["err_out"]], P(cli_error_check, (3,))),
        "dirty_verify": (["verify", "--ensemble", f["dirty4"]], cli_dirty_verify_check),
        "steer_shots0": (["steer", f["joint4in"], f["basis4"], "--shots", "0", "--out", f["err_out"]], documented),
    }
    rounds = [leg_a + leg_b + [cmd(f"error/{name}", *errors[name])] for name in ERROR_CASES]
    outputs = [Path(f[name]) for name in ("a_joint", "a_anc", "a_der", "a_rep", "b_joint", "b_anc", "b_der", "err_out")]
    return rounds, outputs
