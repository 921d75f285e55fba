"""Command-line contract: pipelines, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rhokit import (
    JointState,
    ResourceExhausted,
    RhoEnsemble,
    documents as docs,
    ensemble_to_density,
    purification,
    purify,
)
from rhokit.cli import build_parser, main
from helpers import (
    SAME_DENSITY_CASES,
    bell_joint,
    computational,
    draw_same_density,
    forged_isometry,
    minus_ket,
    plus_ket,
    random_ensemble,
    random_unitary,
    same_density_pair,
    squeezed_ensemble,
    weighted_projector_sum,
)


def write(path, doc):
    path.write_text(docs.dump_document(doc))
    return str(path)


def equal_mixture_doc():
    return docs.ensemble_document(
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
    )


def plus_minus_mixture_doc():
    return docs.ensemble_document(
        RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    )


def plus_minus_basis_doc():
    return docs.basis_document(np.stack([plus_ket(), minus_ket()]))


def test_purify_writes_bell_like_joint(tmp_path):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    out = tmp_path / "joint.json"
    anc = tmp_path / "anc.json"
    rc = main(
        ["purify", ens, "--dim-m", "2", "--out", str(out), "--ancilla-out", str(anc)]
    )
    assert rc == 0
    joint = docs.to_joint(docs.load_document(out.read_text()))
    np.testing.assert_allclose(joint.vec, bell_joint().vec, atol=1e-12)
    ancilla = docs.to_basis(docs.load_document(anc.read_text()))
    np.testing.assert_allclose(ancilla, np.eye(2), atol=1e-12)


def test_purify_rejects_small_ancilla_with_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(40)
    ens = write(tmp_path / "e.json", docs.ensemble_document(random_ensemble(rng, 2, 3)))
    rc = main(["purify", ens, "--dim-m", "2", "--out", str(tmp_path / "j.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "OrderExceedsAncillaDim"


def test_full_pipeline_purify_from_basis_verify(tmp_path):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    joint = tmp_path / "joint.json"
    anc = tmp_path / "anc.json"
    assert (
        main(
            [
                "purify",
                ens,
                "--dim-m",
                "2",
                "--out",
                str(joint),
                "--ancilla-out",
                str(anc),
            ]
        )
        == 0
    )
    derived = tmp_path / "derived.json"
    assert (
        main(["ensemble-from-basis", str(joint), str(anc), "--out", str(derived)]) == 0
    )
    assert main(["verify", "--ensemble", str(derived)]) == 0


def test_pipeline_that_cuts_weight_below_rank_tol_stays_clean(tmp_path, capsys):
    # Three weights of 9e-11 purify into conditional weights below rank_tol,
    # which ensemble-from-basis drops; the members are returned over their
    # total, so the conditioned ensemble verifies, purifies and steers.
    weights = [0.6, 0.4 - 2.7e-10, 9e-11, 9e-11, 9e-11]
    e = RhoEnsemble(kets=np.eye(5, dtype=complex), weights=weights)
    ens = write(tmp_path / "e.json", docs.ensemble_document(e))
    joint, anc = str(tmp_path / "j.json"), str(tmp_path / "anc.json")
    derived, report = str(tmp_path / "derived.json"), tmp_path / "r.json"
    for argv in (
        ["purify", ens, "--dim-m", "5", "--out", joint, "--ancilla-out", anc],
        ["ensemble-from-basis", joint, anc, "--out", derived],
        ["verify", "--ensemble", derived],
        ["purify", derived, "--dim-m", "5", "--out", str(tmp_path / "j2.json")],
        ["steer", joint, anc, "--out", str(report)],
    ):
        assert main(argv) == 0, (argv, capsys.readouterr())
    assert docs.to_ensemble(docs.load_document(Path(derived).read_text())).order == 2
    expected = docs.to_report(docs.load_document(report.read_text())).expected_weights
    assert abs(expected.sum() - 1.0) <= 5 * np.finfo(float).eps


def test_verify_umap_output_is_clean(tmp_path):
    first = write(tmp_path / "a.json", equal_mixture_doc())
    pm = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    second = write(tmp_path / "b.json", docs.ensemble_document(pm))
    umap = tmp_path / "u.json"
    assert main(["umap", first, second, "--out", str(umap)]) == 0
    assert main(["verify", "--umap", str(umap)]) == 0


def test_verify_ensemble_against_density(tmp_path):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    rho = write(tmp_path / "rho.json", docs.matrix_document(np.eye(2) / 2))
    assert main(["verify", "--ensemble", ens, "--rho", rho]) == 0
    wrong = write(tmp_path / "wrong.json", docs.matrix_document(np.diag([0.9, 0.1])))
    assert main(["verify", "--ensemble", ens, "--rho", wrong]) == 3


@pytest.mark.parametrize("case", range(SAME_DENSITY_CASES))
def test_verify_holds_an_admitted_ensemble_to_its_own_density(tmp_path, capsys, case):
    # The density over the trace, as ensemble_to_density builds it: a weight
    # sum admitted off 1 by up to tol * order is no miss.
    for name, e in zip("ab", same_density_pair(*draw_same_density(case))):
        ens = write(tmp_path / f"{name}.json", docs.ensemble_document(e))
        density = docs.matrix_document(ensemble_to_density(e).matrix)
        rho = write(tmp_path / f"{name}_rho.json", density)
        assert main(["verify", "--ensemble", ens, "--rho", rho]) == 0
        assert json.loads(capsys.readouterr().out) == {"clean": True, "violations": []}


def test_verify_reports_kets_that_are_all_zero_against_a_density(tmp_path, capsys):
    # Such kets have no unit-trace state, so they miss every density.
    zero = RhoEnsemble(kets=np.zeros((2, 2)), weights=[0.5, 0.5])
    ens = write(tmp_path / "e.json", docs.ensemble_document(zero))
    rho = write(tmp_path / "rho.json", docs.matrix_document(np.eye(2) / 2))
    assert main(["verify", "--ensemble", ens, "--rho", rho]) == 3
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "element 0 has norm 0.0, expected 1",
        "element 1 has norm 0.0, expected 1",
        "ensemble misses the given density matrix by inf",
    ]


def pairs(m):
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_payload(m):
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": pairs(m)}


def umap_payload(generator, basis, cols):
    """A umap payload written by hand, as umap_document writes none that UMap refuses."""
    return {"cols": cols, "generator": matrix_payload(generator), "basis": basis}


@pytest.mark.parametrize(
    "generator, basis, cols, tol, malformed",
    [
        (np.eye(3, 2), np.eye(3), 2, "1e-10", None),
        (np.eye(2, 3), np.eye(2), 3, "10", None),
        (np.eye(2), np.eye(1, 2), 2, "1e-10", "umap.basis: expected 2 kets"),
        (np.eye(2), np.eye(2, 3), 2, "1e-10", "umap.basis[0]: expected 2 entries"),
    ],
    ids=["generator_size", "more_columns_than_rows", "one_basis_ket", "wide_basis_kets"],
)
def test_verify_umap_of_mismatched_shapes_reports_and_exits_3(
    tmp_path, generator, basis, cols, tol, malformed
):
    # A generator that is not square is well encoded, and UMap refuses it:
    # verify reports it and exits 3. The basis is read at the generator's
    # declared rows, so a basis of another shape is malformed encoding: one
    # DocumentError line, exit 2, as for every other declared size.
    payload = umap_payload(generator, pairs(basis), cols)
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "umap", "version": 1, "payload": payload}))
    result = run_cli("verify", "--umap", str(path), "--tol", tol)
    if malformed:
        assert result.returncode == 2
        assert result.stdout == ""
        assert single_json_error(result.stderr) == {"error": "DocumentError", "message": malformed}
        return
    assert result.returncode == 3
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["clean"] is False and len(report["violations"]) == 1


def test_verify_umap_of_coefficients_alone_exits_2(tmp_path):
    # An isometry with no ancilla unitary behind it, in the coefficient-only
    # form documents once allowed, is no map: the document is malformed.
    isometry = forged_isometry()
    payload = {"rows": 3, "cols": 2, "coeffs": matrix_payload(isometry)}
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "umap", "version": 1, "payload": payload}))
    result = run_cli("verify", "--umap", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert single_json_error(result.stderr) == {
        "error": "DocumentError",
        "message": "umap.generator: expected a matrix object",
    }


def test_verify_umap_of_an_isometry_padded_to_a_generator_exits_3(tmp_path):
    # Its coefficients are the isometry's orthonormal columns, but the zero
    # column leaves the generator short of unitary.
    generator = np.zeros((3, 3), dtype=complex)
    generator[:, :2] = forged_isometry()
    payload = umap_payload(generator, pairs(np.eye(3)), 2)
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "umap", "version": 1, "payload": payload}))
    result = run_cli("verify", "--umap", str(path))
    assert result.returncode == 3
    assert result.stderr == ""
    assert json.loads(result.stdout) == {
        "clean": False,
        "violations": ["generator deviates from unitarity by 1.000e+00"],
    }


def test_verify_umap_of_a_ragged_basis_exits_2(tmp_path):
    payload = umap_payload(np.eye(2), [pairs(np.eye(2)[0]), pairs(np.eye(3)[0])], 2)
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "umap", "version": 1, "payload": payload}))
    result = run_cli("verify", "--umap", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert single_json_error(result.stderr) == {
        "error": "DocumentError",
        "message": "umap.basis[1]: expected 2 entries",
    }


@pytest.mark.parametrize(
    "command",
    [["verify", "--ensemble", "{e}"], ["purify", "{e}", "--dim-m", "2"], ["umap", "{e}", "{e}"]],
)
def test_an_ensemble_of_no_elements_is_refused_by_its_constructor(tmp_path, capsys, command):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(
        {"kind": "ensemble", "version": 1, "payload": {"dim": 2, "elements": []}}
    ))
    assert main([arg.format(e=path) for arg in command]) == 3
    captured = capsys.readouterr()
    message = "ensemble must contain at least one element"
    if command[0] == "verify":
        assert captured.err == ""
        assert json.loads(captured.out) == {"clean": False, "violations": [message]}
    else:
        assert captured.out == ""
        assert single_json_error(captured.err) == {"error": "InvalidEnsemble", "message": message}


def test_verify_dirty_ensemble_reports_and_exits_3(tmp_path, capsys):
    bad = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.6, 0.6])
    ens = write(tmp_path / "bad.json", docs.ensemble_document(bad))
    rc = main(["verify", "--ensemble", ens])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    assert report["violations"]


def test_verify_report_holds_plain_floats(tmp_path, capsys):
    twice = RhoEnsemble(kets=[computational(2, 0)] * 2, weights=[0.5, 0.5])
    ens = write(tmp_path / "twice.json", docs.ensemble_document(twice))
    assert main(["verify", "--ensemble", ens]) == 3
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "elements (0, 1) are collinear (|overlap| = 1.0)"
    ]


def test_collinear_ensemble_is_reported_by_verify_and_taken_by_purify_and_umap(
    tmp_path,
):
    twice = RhoEnsemble(kets=[computational(2, 0)] * 2, weights=[0.5, 0.5])
    ens = write(tmp_path / "twice.json", docs.ensemble_document(twice))
    joint, umap = tmp_path / "j.json", tmp_path / "u.json"
    assert main(["verify", "--ensemble", ens]) == 3
    assert main(["purify", ens, "--dim-m", "2", "--out", str(joint)]) == 0
    assert main(["verify", "--joint", str(joint)]) == 0
    assert main(["umap", ens, ens, "--out", str(umap)]) == 0
    assert main(["verify", "--umap", str(umap)]) == 0


def test_verify_rejects_rank_tol(tmp_path, capsys):
    e = random_ensemble(np.random.default_rng(0), 4, 2)
    ens = write(tmp_path / "e.json", docs.ensemble_document(e))
    assert main(["verify", "--ensemble", ens]) == 0
    assert json.loads(capsys.readouterr().out) == {"clean": True, "violations": []}
    assert main(["verify", "--ensemble", ens, "--rank-tol", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "UsageError"


def test_umap_of_unequal_dimensions_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(38)
    e2 = write(tmp_path / "e2.json", docs.ensemble_document(random_ensemble(rng, 2, 2)))
    e3 = write(tmp_path / "e3.json", docs.ensemble_document(random_ensemble(rng, 3, 2)))
    assert main(["umap", e2, e3]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "DimensionMismatch"


def test_verify_joint(tmp_path):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    assert main(["verify", "--joint", joint]) == 0


def long_joint():
    """A joint whose norm, 1 + 5e-9, JointState admits but tol 1e-10 does not."""
    vec = np.sqrt(0.7) * np.kron(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.3) * np.kron(computational(2, 1), computational(2, 1))
    return JointState(dim_s=2, dim_m=2, vec=vec * (1 + 5e-9))


def test_verify_joint_norm_is_held_to_tol(tmp_path, capsys):
    joint = write(tmp_path / "j.json", docs.joint_document(long_joint()))
    assert main(["verify", "--joint", joint]) == 3
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == ["joint ket has norm 1.000000005, expected 1"]
    assert main(["verify", "--joint", joint, "--tol", "1e-8"]) == 0
    capsys.readouterr()


def test_purify_of_an_admitted_weight_sum_writes_a_joint_that_verifies(tmp_path, capsys):
    # Weights summing to 1 + 3e-10 are admitted (tol * order = 4e-10); the
    # joint ket purify writes is unit, so verify holds it to tol and passes.
    e = RhoEnsemble(kets=np.eye(4, dtype=complex), weights=[0.25 + 0.75e-10] * 4)
    ens = write(tmp_path / "e.json", docs.ensemble_document(e))
    joint = tmp_path / "j.json"
    assert main(["purify", ens, "--dim-m", "4", "--out", str(joint)]) == 0
    assert main(["verify", "--joint", str(joint)]) == 0
    assert json.loads(capsys.readouterr().out) == {"clean": True, "violations": []}


def test_verify_rho_of_the_wrong_shape_is_a_violation(tmp_path, capsys):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    rho = write(tmp_path / "rho.json", docs.matrix_document(np.eye(3) / 3))
    assert main(["verify", "--ensemble", ens, "--rho", rho]) == 3
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "density matrix has shape (3, 3), expected (2, 2)"
    ]


@pytest.mark.parametrize("kind", ["joint", "umap"])
def test_verify_rho_without_ensemble_is_a_usage_error(tmp_path, capsys, kind):
    if kind == "joint":
        doc = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    else:
        doc = str(tmp_path / "u.json")
        mixture = write(tmp_path / "e.json", equal_mixture_doc())
        assert main(["umap", mixture, mixture, "--out", doc]) == 0
    assert main(["verify", f"--{kind}", doc]) == 0
    capsys.readouterr()
    assert main(["verify", f"--{kind}", doc, "--rho", str(tmp_path / "absent.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "UsageError" and "--rho" in error["message"]


def test_rank_tol_flag_sets_the_cutoff(tmp_path, capsys):
    vec = np.sqrt(0.9) * np.kron(computational(2, 0), computational(2, 0))
    vec += np.sqrt(0.1) * np.kron(computational(2, 1), computational(2, 1))
    joint = write(tmp_path / "j.json", docs.joint_document(JointState(2, 2, vec)))
    basis = write(tmp_path / "b.json", docs.basis_document(np.eye(2, dtype=complex)))
    ket = write(tmp_path / "k.json", docs.ket_document(computational(2, 0)))
    for command, second, what in (
        ("ensemble-from-basis", basis, "conditional weight"),
        ("contains", ket, "squared Schmidt coefficient"),
    ):
        orders = []
        for rank_tol in ("1e-10", "0.2"):
            out = tmp_path / f"{command}{rank_tol}.json"
            argv = [command, joint, second, "--rank-tol", rank_tol]
            assert main(argv + ["--out", str(out)]) == 0
            orders.append(docs.to_ensemble(docs.load_document(out.read_text())).order)
        assert orders == [2, 1], command
        # A cutoff above every weight it cuts is a bad argument, not a bad joint
        # or a target outside the support.
        capsys.readouterr()
        assert main([command, joint, second, "--rank-tol", "0.95"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = single_json_error(captured.err)
        assert error["error"] == "InvalidArgument"
        assert error["message"] == f"rank_tol 9.500e-01 is not below the largest {what} 9.000e-01"


def test_purify_admits_an_ensemble_as_joint_state_admits_a_joint(tmp_path, capsys):
    # The ket's norm misses 1 by 2.6e-10: inside the one fixed 1e-8 that
    # purify admits it at, outside the --tol 1e-10 that verify reports at.
    k = np.array([0.707106781, 0.707106781])
    ensemble = write(tmp_path / "e.json", docs.ensemble_document(RhoEnsemble([k], [1.0])))
    out = str(tmp_path / "j.json")
    assert main(["purify", ensemble, "--dim-m", "1", "--out", out]) == 0
    assert main(["verify", "--joint", out]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "--ensemble", ensemble]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    [violation] = json.loads(captured.out)["violations"]
    assert re.fullmatch(r"element 0 has norm 0\.99999999973\d*, expected 1", violation)
    assert main(["purify", ensemble, "--dim-m", "2", "--tol", "1e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "UsageError" and "--tol" in error["message"]


def test_contains_admits_a_ket_as_ensemble_from_basis_admits_a_joint(tmp_path, capsys):
    # Both documents miss norm 1 by 5e-9, inside the one fixed 1e-8.
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    long = bell_joint().vec * (1 + 5e-9)
    long_joint = write(tmp_path / "lj.json", docs.joint_document(JointState(2, 2, long)))
    ket = write(tmp_path / "k.json", docs.ket_document(plus_ket() * (1 + 5e-9)))
    basis = write(tmp_path / "b.json", plus_minus_basis_doc())
    out = str(tmp_path / "e.json")
    assert main(["ensemble-from-basis", long_joint, basis, "--out", out]) == 0
    assert main(["contains", joint, ket, "--out", out]) == 0
    assert main(["verify", "--ensemble", out]) == 0
    assert capsys.readouterr().err == ""
    assert main(["contains", joint, ket, "--out", out, "--tol", "1e-6"]) == 2
    error = single_json_error(capsys.readouterr().err)
    assert error["error"] == "UsageError" and "--tol" in error["message"]


def test_contains_accepts_every_joint_that_steer_accepts(tmp_path, capsys):
    joint = write(tmp_path / "j.json", docs.joint_document(long_joint()))
    basis = write(tmp_path / "b.json", docs.basis_document(np.eye(2, dtype=complex)))
    ket = write(tmp_path / "k.json", docs.ket_document(computational(2, 0)))
    assert main(["steer", joint, basis, "--out", str(tmp_path / "r.json")]) == 0
    assert main(["contains", joint, ket, "--out", str(tmp_path / "e.json")]) == 0
    assert capsys.readouterr().err == ""


def test_steer_counts_within_four_sigma(tmp_path):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    joint = tmp_path / "joint.json"
    main(["purify", ens, "--dim-m", "2", "--out", str(joint)])
    basis = write(tmp_path / "basis.json", plus_minus_basis_doc())
    out = tmp_path / "report.json"
    rc = main(
        [
            "steer",
            str(joint),
            basis,
            "--shots",
            "10000",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = docs.to_report(docs.load_document(out.read_text()))
    assert sum(report.counts) == 10000
    assert abs(report.counts[0] - 5000) <= 4 * np.sqrt(10000 * 0.25)


def test_steer_is_byte_identical_across_runs(tmp_path):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    joint = tmp_path / "joint.json"
    main(["purify", ens, "--dim-m", "2", "--out", str(joint)])
    basis = write(tmp_path / "basis.json", plus_minus_basis_doc())
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    args = ["steer", str(joint), basis, "--shots", "2000", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def run_cli(*args, stdout=subprocess.PIPE, env=None):
    return subprocess.run(
        [sys.executable, "-m", "rhokit.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def stdout_env(buffered):
    """This environment, with the CLI's stdout buffered or not.

    Buffered, small output reaches stdout only at the flush before exit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def single_json_error(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


def test_the_console_script_runs_what_python_m_runs():
    # CI runs the installed `rhokit` entry point once; every process test here
    # runs `python -m rhokit.cli`, whose __main__ calls cli.run. Read as text:
    # Python 3.10 has no tomllib.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\n[project.scripts]\nrhokit = "rhokit.cli:run"\n' in text


def child_stdout(probe):
    """The stdout of a fresh ``python -c probe`` that imports this tree's rhokit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    return result.stdout


def test_importing_the_cli_does_not_load_numpy_random():
    # Only steer draws, and numpy loads numpy.random at its first use there:
    # an import at the top would add that time and memory to every command.
    # A child process asks, since this one loaded numpy.random long ago.
    probe = "import rhokit.cli, sys; print('numpy.random' in sys.modules)"
    assert child_stdout(probe) == "False\n"


def test_no_command_but_steer_loads_numpy_random(tmp_path):
    # numpy.random sets a CLI process's peak memory (33.0 MB against 26.7 MB
    # for numpy alone) and costs it about 15 ms, so only steer may load it.
    rng = np.random.default_rng(4)
    e = random_ensemble(rng, 4, 4)
    f = {name: str(tmp_path / f"{name}.json") for name in "EJBDUWACKR"}
    write(Path(f["E"]), docs.ensemble_document(e))
    write(Path(f["B"]), docs.basis_document(random_unitary(rng, 4)))
    write(Path(f["W"]), docs.matrix_document(random_unitary(rng, 4)))
    write(Path(f["K"]), docs.ket_document(computational(4, 0)))
    write(Path(f["R"]), docs.matrix_document(ensemble_to_density(e).matrix))
    commands = [
        ["purify", f["E"], "--dim-m", "4", "--out", f["J"]],
        ["ensemble-from-basis", f["J"], f["B"], "--out", f["D"]],
        ["umap", f["E"], f["D"], "--out", f["U"]],
        ["apply-u", f["J"], f["B"], f["W"], "--out", f["A"]],
        ["contains", f["J"], f["K"], "--out", f["C"]],
        ["verify", "--ensemble", f["D"], "--rho", f["R"]],
        ["verify", "--ensemble", f["E"]],
        ["verify", "--umap", f["U"]],
        ["verify", "--joint", f["J"]],
    ]
    probe = (
        "import sys; from rhokit.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy.random' in sys.modules)"
    )
    assert child_stdout(probe).splitlines()[-1] == f"{[0] * len(commands)} False"


@pytest.mark.parametrize(
    "flag, value",
    [("--shots", "0"), ("--seed", "-1"), ("--shots", str(10**20))],
)
def test_steer_rejects_bad_shots_or_seed_with_exit_3(tmp_path, flag, value):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    basis = write(tmp_path / "b.json", plus_minus_basis_doc())
    result = run_cli("steer", joint, basis, flag, value)
    assert result.returncode == 3
    assert result.stdout == ""
    assert single_json_error(result.stderr)["error"] == "InvalidArgument"


@pytest.mark.parametrize(
    "args",
    [[], ["steer", "j.json", "b.json", "--shots", "abc"], ["purify", "e.json"]],
    ids=["no-command", "shots-not-int", "missing-dim-m"],
)
def test_usage_errors_exit_2_with_one_json_line(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    error = single_json_error(result.stderr)
    assert error["error"] == "UsageError"
    assert error["message"]


def test_main_returns_the_code_of_a_usage_error_and_of_help(capsys):
    # In process as in a process: argparse's exits become return values.
    assert main(["bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err)["error"] == "UsageError"
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: rhokit")


def test_help_exits_0_with_the_help_text_on_stdout():
    result = run_cli("--help", env=stdout_env(buffered=True))
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("usage: rhokit")
    assert "ensemble-from-basis" in result.stdout


@pytest.fixture(params=["closed-pipe", "dev-full"])
def unwritable_file(request):
    """A file object whose every write fails: a pipe without a reader, or a
    device that is always full."""
    if request.param == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as handle:
            yield handle
    else:
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "w") as handle:
            yield handle


STDOUT_OUTPUTS = ["small", "large", "small-then-large"]


def stdout_args(tmp_path, output):
    """Arguments of a command that writes the given output to stdout."""
    if output == "small":
        return ["verify", "--ensemble", write(tmp_path / "e.json", equal_mixture_doc())]
    if output == "large":
        e = random_ensemble(np.random.default_rng(96), 96, 96)
        ens = write(tmp_path / "e96.json", docs.ensemble_document(e))
        return ["purify", ens, "--dim-m", "96", "--out", "-"]
    if output == "help":
        return ["--help"]
    # A joint document of about 3 kB, which the stdout buffer holds, then an
    # ancilla document of about 10 kB, whose write fails to flush the first;
    # the joint stays in the buffer and fails again at the flush before exit.
    e = random_ensemble(np.random.default_rng(32), 2, 32)
    ens = write(tmp_path / "e32.json", docs.ensemble_document(e))
    return ["purify", ens, "--dim-m", "32", "--out", "-", "--ancilla-out", "-"]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("output", STDOUT_OUTPUTS + ["help"])
def test_unwritable_stdout_exits_2_with_one_json_line(
    tmp_path, unwritable_file, output, buffered
):
    args = stdout_args(tmp_path, output)
    result = run_cli(*args, stdout=unwritable_file, env=stdout_env(buffered))
    assert result.returncode == 2
    error = single_json_error(result.stderr)
    assert error["error"] == "DocumentError"
    assert error["message"].startswith("cannot write stdout: ")


# A stream whose descriptor is closed when the process starts is None in
# sys; each command keeps its exit code, and stderr, when open, holds at most
# the one JSON error line.
CLOSED_STREAM_CASES = {
    "stdin-read": (0, ["verify", "--ensemble", "-"], 2),
    "stdout-help": (1, ["--help"], 2),
    "stdout-verify": (1, ["verify", "--ensemble", "e.json"], 2),
    "stdout-unused": (1, ["purify", "e.json", "--dim-m", "2", "--out", "j.json"], 0),
    "stderr-error": (2, ["verify", "--ensemble", "missing.json"], 2),
}


@pytest.mark.parametrize("case", CLOSED_STREAM_CASES)
def test_a_closed_stream_keeps_the_exit_code(tmp_path, case):
    fd, args, code = CLOSED_STREAM_CASES[case]
    write(tmp_path / "e.json", equal_mixture_doc())
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    result = subprocess.run(
        [sys.executable, "-m", "rhokit.cli", *args],
        capture_output=True,
        text=True,
        preexec_fn=lambda: os.close(fd),
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    if code == 0:
        assert result.stderr == ""
        assert "joint" in (tmp_path / "j.json").read_text()
    elif fd != 2:
        error = single_json_error(result.stderr)
        assert error["error"] == "DocumentError"
        assert error["message"] == ["cannot read stdin: stdin is closed",
                                    "cannot write stdout: stdout is closed"][fd]


def test_a_stderr_that_cannot_take_the_error_line_keeps_the_exit_code(
    tmp_path, unwritable_file
):
    result = subprocess.run(
        [sys.executable, "-m", "rhokit.cli", "verify", "--ensemble", str(tmp_path / "no.json")],
        stdout=subprocess.PIPE,
        stderr=unwritable_file,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""


@pytest.mark.parametrize("output", STDOUT_OUTPUTS)
def test_stdout_matches_main_in_process(tmp_path, capsys, output):
    args = stdout_args(tmp_path, output)
    assert main(args) == 0
    expected = capsys.readouterr().out
    result = run_cli(*args, env=stdout_env(buffered=True))
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == expected


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, flag, value):
    # umap reads --tol and contains --rank-tol; each value is refused by the
    # tolerance type.
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    ket = write(tmp_path / "k.json", docs.ket_document(plus_ket()))
    mixture = write(tmp_path / "e.json", equal_mixture_doc())
    other = write(tmp_path / "pm.json", plus_minus_mixture_doc())
    args = ["umap", mixture, other] if flag == "--tol" else ["contains", joint, ket]
    assert main([*args, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "UsageError" and flag in error["message"]


@pytest.mark.parametrize("command", ["ensemble-from-basis", "apply-u", "steer"])
def test_basis_taking_commands_reject_tol(tmp_path, capsys, command):
    # Their bases and unitaries are admitted at the fixed 1e-8; only
    # --rank-tol is read.
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    basis = write(tmp_path / "b.json", plus_minus_basis_doc())
    unitary = write(tmp_path / "u.json", docs.matrix_document(np.eye(2)))
    args = [joint, basis, unitary] if command == "apply-u" else [joint, basis]
    out = ["--out", str(tmp_path / "out.json")]
    assert main([command, *args, *out]) == 0
    assert main([command, *args, *out, "--tol", "1e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "UsageError" and "--tol" in error["message"]
    # A basis whose ket 1 leans on ket 0 by 1e-7 misses that threshold.
    lean = write(tmp_path / "lean.json", docs.basis_document(np.array([[1, 0], [1e-7, 1]])))
    assert main([command, joint, lean, *args[2:], *out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err) == {
        "error": "NotOrthonormalBasis",
        "message": "basis deviates from orthonormality by 1.000e-07 (tol 1.000e-08)",
    }


# Products of these entries overflow to inf, and inf - inf to NaN.
HUGE = [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.parametrize("kind", ["joint", "umap"])
def test_verify_overflowing_entries_exits_3_with_empty_stderr(tmp_path, capsys, kind):
    if kind == "joint":
        payload = {"dim_s": 1, "dim_m": 2, "vec": HUGE}
    else:
        generator = {"rows": 2, "cols": 2, "entries": [HUGE, HUGE]}
        payload = {"cols": 2, "generator": generator, "basis": pairs(np.eye(2))}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "version": 1, "payload": payload}))
    assert main(["verify", f"--{kind}", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["clean"] is False


def test_purify_overflowing_ket_exits_3_with_one_json_line(tmp_path, capsys):
    payload = {"dim": 2, "elements": [{"weight": 1.0, "ket": HUGE}]}
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"kind": "ensemble", "version": 1, "payload": payload}))
    assert main(["purify", str(path), "--dim-m", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err)["error"] == "InvalidEnsemble"


@pytest.mark.parametrize("slot", ["ket", "weight"])
def test_huge_integer_in_ensemble_exits_2(tmp_path, slot):
    doc = equal_mixture_doc()
    element = doc["payload"]["elements"][0]
    if slot == "ket":
        element["ket"][0][0] = 10**400
    else:
        element["weight"] = 10**400
    ens = tmp_path / "e.json"
    ens.write_text(json.dumps(doc))
    result = run_cli("verify", "--ensemble", str(ens))
    assert result.returncode == 2
    assert result.stdout == ""
    error = single_json_error(result.stderr)
    assert error["error"] == "DocumentError"
    assert error["message"].startswith(f"ensemble.elements[0].{slot}")


def test_unwritable_out_exits_2(tmp_path, capsys):
    ens = write(tmp_path / "e.json", equal_mixture_doc())
    out = tmp_path / "absent" / "x.json"
    rc = main(["purify", ens, "--dim-m", "2", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "DocumentError"
    assert str(out) in error["message"]


def test_contains_out_of_support_exits_3(tmp_path, capsys):
    vec = np.kron(computational(2, 0), computational(2, 0))
    joint = write(
        tmp_path / "j.json",
        docs.joint_document(JointState(dim_s=2, dim_m=2, vec=vec)),
    )
    ket = write(tmp_path / "k.json", docs.ket_document(computational(2, 1)))
    rc = main(["contains", joint, ket])
    assert rc == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "NotInSupport"


def test_contains_admits_a_member_of_a_nearly_singular_ensemble(tmp_path, capsys):
    # The density's smallest eigenvalue, 6.6e-13, is dropped; the member still
    # has a largest weight above rank_tol, so it is admitted.
    e = squeezed_ensemble(1)
    assert np.linalg.eigvalsh(weighted_projector_sum(e))[0] < 1e-10
    joint = write(tmp_path / "j.json", docs.joint_document(purify(e, e.dim)[0]))
    ket = write(tmp_path / "k.json", docs.ket_document(e.kets[0]))
    out = tmp_path / "e.json"
    assert main(["contains", joint, ket, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ensemble = docs.to_ensemble(docs.load_document(out.read_text()))
    assert main(["verify", "--ensemble", str(out)]) == 0
    assert np.max(np.abs(ensemble.kets[0] - e.kets[0])) <= 1e-4
    assert ensemble.weights[0] >= e.weights[0] * (1 - 1e-9)
    capsys.readouterr()


def test_contains_first_element_is_target(tmp_path, capsys):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    ket = write(tmp_path / "k.json", docs.ket_document(plus_ket()))
    out = tmp_path / "e.json"
    assert main(["contains", joint, ket, "--out", str(out)]) == 0
    ensemble = docs.to_ensemble(docs.load_document(out.read_text()))
    assert abs(np.vdot(ensemble.kets[0], plus_ket())) > 1 - 1e-9
    capsys.readouterr()


def test_apply_u_writes_both_documents(tmp_path):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    basis = write(tmp_path / "b.json", docs.basis_document(np.eye(2, dtype=complex)))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    unitary = write(tmp_path / "u.json", docs.matrix_document(hadamard))
    out = tmp_path / "out.json"
    umap_out = tmp_path / "umap.json"
    rc = main(
        ["apply-u", joint, basis, unitary, "--out", str(out), "--umap-out", str(umap_out)]
    )
    assert rc == 0
    ensemble = docs.to_ensemble(docs.load_document(out.read_text()))
    np.testing.assert_allclose(sorted(ensemble.weights), [0.5, 0.5], atol=1e-12)
    assert main(["verify", "--umap", str(umap_out)]) == 0
    assert main(["verify", "--ensemble", str(out)]) == 0


def test_malformed_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc = main(["verify", "--joint", str(bad)])
    assert rc == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DocumentError"


def test_document_nested_past_the_recursion_limit_exits_2_with_one_json_line(
    tmp_path, capsys
):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5)
    assert main(["verify", "--ensemble", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "DocumentError"
    assert error["message"].startswith("invalid JSON: maximum recursion depth exceeded")


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["verify", "--joint", str(tmp_path / "absent.json")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_exits_2_with_one_json_line(tmp_path, source):
    # Stdin decodes strictly, as it does under any UTF-8 locale but C's.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    name = str(bad) if source == "file" else "-"
    with bad.open("rb") as stdin:
        result = subprocess.run(
            [sys.executable, "-m", "rhokit.cli", "verify", "--ensemble", name],
            stdin=stdin,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
    assert result.returncode == 2
    assert result.stdout == ""
    error = single_json_error(result.stderr)
    assert error["error"] == "DocumentError"
    where = str(bad) if source == "file" else "stdin"
    assert error["message"].startswith(f"cannot read {where}: 'utf-8' codec can't decode")


def test_stdin_stdout_roundtrip(tmp_path):
    basis = write(tmp_path / "b.json", docs.basis_document(np.eye(2, dtype=complex)))
    joint_text = docs.dump_document(docs.joint_document(bell_joint()))
    result = subprocess.run(
        [sys.executable, "-m", "rhokit.cli", "ensemble-from-basis", "-", basis],
        input=joint_text,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    ensemble = docs.to_ensemble(docs.load_document(result.stdout))
    np.testing.assert_allclose(ensemble.weights, [0.5, 0.5], atol=1e-12)


class _UnreadableStdin:
    def read(self, *args):
        raise AssertionError("stdin was read")


# One case per command that takes two inputs or more, each with the inputs named.
SECOND_STDIN_INPUT = {
    "ensemble-from-basis": (["-", "-"], "joint, basis"),
    "umap": (["-", "-"], "from-ensemble, to-ensemble"),
    "apply-u": (["absent.json", "-", "-"], "basis, unitary"),
    "contains": (["-", "-"], "joint, ket"),
    "steer": (["-", "-"], "joint, basis"),
    "verify": (["--ensemble", "-", "--rho", "-"], "ensemble, rho"),
}


@pytest.mark.parametrize("command", sorted(SECOND_STDIN_INPUT))
def test_a_second_stdin_input_is_a_usage_error_before_any_input_is_read(
    capsys, monkeypatch, command
):
    # The first '-' input would drain stdin and leave the second an empty text.
    args, names = SECOND_STDIN_INPUT[command]
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "UsageError",
        "message": f"inputs {names} all read stdin ('-'); only one can",
    }


def test_every_command_of_two_inputs_or_more_refuses_a_second_stdin_input():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(SECOND_STDIN_INPUT) == sorted(
        name for name, parser in commands.items() if len(parser.get_default("inputs")) > 1
    )


# Each fuzzed value with its exit code: 2 where argparse rejects it, 3 where
# the library does, 0 where it is valid.
FUZZED_FLAGS = {
    "--tol": {"nan": 2, "inf": 2, "-1": 2, "abc": 2},
    "--rank-tol": {"nan": 2, "inf": 2, "-1": 2, "abc": 2},
    "--shots": {"-1": 3, "0": 3, "1.5": 2, str(10**20): 3},
    "--seed": {"-1": 3, "0": 0, "1.5": 2, str(10**20): 0},
    "--dim-m": {"0": 3, "-3": 3, "2.5": 2},
}


def command_options(command):
    """The option strings that ``command``'s subparser defines."""
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    return {flag for action in parser._actions for flag in action.option_strings}


@pytest.mark.parametrize(
    "command",
    ["purify", "ensemble-from-basis", "contains", "steer", "umap", "apply-u", "verify"],
)
def test_fuzzed_flags_keep_the_exit_code_contract(tmp_path, capsys, command):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    basis = write(tmp_path / "b.json", plus_minus_basis_doc())
    mixture = write(tmp_path / "e.json", equal_mixture_doc())
    other = write(tmp_path / "pm.json", plus_minus_mixture_doc())
    ket = write(tmp_path / "k.json", docs.ket_document(plus_ket()))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    unitary = write(tmp_path / "u.json", docs.matrix_document(hadamard))
    out = ["--out", str(tmp_path / "out.json")]
    base = [command] + {
        "purify": [mixture, "--dim-m", "2", *out],
        "ensemble-from-basis": [joint, basis, *out],
        "contains": [joint, ket, *out],
        "steer": [joint, basis, *out],
        "umap": [mixture, other, *out],
        "apply-u": [joint, basis, unitary, *out],
        "verify": ["--ensemble", mixture],
    }[command]
    assert main(base) == 0
    capsys.readouterr()
    flags = command_options(command) & set(FUZZED_FLAGS)
    # purify reads no tolerance flag, and every other command exactly one.
    assert len(flags & {"--tol", "--rank-tol"}) == (command != "purify")
    for flag in sorted(flags):
        for value, expected in FUZZED_FLAGS[flag].items():
            argv = base + [f"{flag}={value}"]
            code = main(argv)
            assert code == expected, argv
            stderr = capsys.readouterr().err
            if code == 0:
                assert stderr == "", argv
                continue
            error = single_json_error(stderr)
            if code == 2:
                assert error["error"] == "UsageError" and flag in error["message"], argv
            else:
                assert error["error"] == "InvalidArgument", argv


def test_purify_past_available_memory_exits_4_with_one_json_line(
    tmp_path, capsys, monkeypatch
):
    # Stands in for --dim-m 10**12, whose 29.1 TiB joint ket numpy refuses to
    # allocate; no test asks for that memory.
    def exhausted(e, dim_m):
        raise MemoryError("Unable to allocate 29.1 TiB")

    monkeypatch.setattr(purification, "_amplitude_block", exhausted)
    ensemble = write(tmp_path / "e.json", equal_mixture_doc())
    out = tmp_path / "j.json"
    code = main(["purify", ensemble, "--dim-m", str(10**12), "--out", str(out)])
    assert code == 4
    error = single_json_error(capsys.readouterr().err)
    assert error["error"] == "ResourceExhausted"
    assert error["message"] == (
        "purify needs more memory than is available: Unable to allocate 29.1 TiB"
    )
    assert not out.exists()


@pytest.mark.parametrize("dim_m", [2**59, 2**64, 10**30])
def test_purify_past_what_numpy_can_represent_exits_4_with_one_json_line(
    tmp_path, capsys, dim_m
):
    # numpy refuses these sizes before it allocates anything.
    ensemble = write(tmp_path / "e.json", equal_mixture_doc())
    out = tmp_path / "j.json"
    assert main(["purify", ensemble, "--dim-m", str(dim_m), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "ResourceExhausted"
    assert f"2*{dim_m} " in error["message"]
    assert not out.exists()


def test_a_memory_error_while_building_the_parser_exits_4_with_one_json_line(
    capsys, monkeypatch
):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate the subcommand parsers")

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", exhausted)
    assert main(["verify", "--help"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err) == {
        "error": "ResourceExhausted",
        "message": "Unable to allocate the subcommand parsers",
    }


def test_any_memory_error_exits_4_with_one_json_line(tmp_path, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError()

    monkeypatch.setattr(docs, "load_document", exhausted)
    ensemble = write(tmp_path / "e.json", equal_mixture_doc())
    assert main(["verify", "--ensemble", ensemble]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err) == {
        "error": "ResourceExhausted",
        "message": "out of memory",
    }


def test_verify_exits_4_when_loading_runs_out_of_memory(tmp_path, capsys, monkeypatch):
    # A value too large to build is not a violation of the document it came from.
    message = "RhoEnsemble needs more memory than is available"

    def exhausted(doc):
        raise ResourceExhausted(message)

    monkeypatch.setattr(docs, "to_ensemble", exhausted)
    ensemble = write(tmp_path / "e.json", equal_mixture_doc())
    assert main(["verify", "--ensemble", ensemble]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_json_error(captured.err) == {"error": "ResourceExhausted", "message": message}

DIMENSION_KEYS = {"dim", "dim_s", "dim_m", "rows", "cols"}


def dimension_paths(value, path=()):
    """Key paths of every declared dimension in a document payload."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key in DIMENSION_KEYS:
                yield path + (key,)
            yield from dimension_paths(item, path + (key,))


@pytest.mark.parametrize(
    "kind", ["ket", "matrix", "ensemble", "joint", "basis", "umap"]
)
def test_fuzzed_document_dimensions_exit_2_without_allocating(tmp_path, capsys, kind):
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    pm = RhoEnsemble(kets=[plus_ket(), minus_ket()], weights=[0.5, 0.5])
    valid = {
        "ket": docs.ket_document(plus_ket()),
        "matrix": docs.matrix_document(hadamard),
        "ensemble": equal_mixture_doc(),
        "joint": docs.joint_document(bell_joint()),
        "basis": plus_minus_basis_doc(),
        "umap": docs.umap_document(purification.umap_between(pm, pm)),
    }
    paths = {name: write(tmp_path / f"{name}.json", doc) for name, doc in valid.items()}
    bad = str(tmp_path / "bad.json")
    out = ["--out", str(tmp_path / "out.json")]
    argv = {
        "ket": ["contains", paths["joint"], bad, *out],
        "matrix": ["apply-u", paths["joint"], paths["basis"], bad, *out],
        "ensemble": ["purify", bad, "--dim-m", "2", *out],
        "joint": ["steer", bad, paths["basis"], *out],
        "basis": ["ensemble-from-basis", paths["joint"], bad, *out],
        "umap": ["verify", "--umap", bad],
    }[kind]
    cases = list(dimension_paths(valid[kind]["payload"]))
    assert cases
    tracemalloc.start()
    try:
        for path in cases:
            for value in (10**12, 0, -1):
                doc = json.loads(json.dumps(valid[kind]))
                target = doc["payload"]
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
                write(tmp_path / "bad.json", doc)
                tracemalloc.reset_peak()
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
                captured = capsys.readouterr()
                assert code == 2, (path, value)
                assert captured.out == ""
                assert single_json_error(captured.err)["error"] == "DocumentError"
                assert peak < 4 * 2**20, (path, value, peak)
    finally:
        tracemalloc.stop()
