"""Command-line contract: pipelines, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from rhokit import JointState, RhoEnsemble, documents as docs
from rhokit.cli import main
from helpers import bell_joint, computational, minus_ket, plus_ket, random_ensemble


def write(path, doc):
    path.write_text(docs.dump_document(doc))
    return str(path)


def equal_mixture_doc():
    return docs.ensemble_document(
        RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5])
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


def test_verify_dirty_ensemble_reports_and_exits_3(tmp_path, capsys):
    bad = RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.6, 0.6])
    ens = write(tmp_path / "bad.json", docs.ensemble_document(bad))
    rc = main(["verify", "--ensemble", ens])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    assert report["violations"]


def test_verify_rejects_rank_tol(tmp_path, capsys):
    e = random_ensemble(np.random.default_rng(0), 4, 2)
    ens = write(tmp_path / "e.json", docs.ensemble_document(e))
    assert main(["verify", "--ensemble", ens]) == 0
    assert json.loads(capsys.readouterr().out) == {"clean": True, "violations": []}
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--ensemble", ens, "--rank-tol", "0"])
    assert exit_info.value.code == 2
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rhokit.cli", *args], capture_output=True, text=True
    )


def single_json_error(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
def test_bad_tolerance_is_a_usage_error(tmp_path, capsys, flag, value):
    joint = write(tmp_path / "j.json", docs.joint_document(bell_joint()))
    basis = write(tmp_path / "b.json", plus_minus_basis_doc())
    with pytest.raises(SystemExit) as exit_info:
        main(["steer", joint, basis, f"{flag}={value}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = single_json_error(captured.err)
    assert error["error"] == "UsageError" and flag in error["message"]


# Products of these entries overflow to inf, and inf - inf to NaN.
HUGE = [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["joint", "umap"])
def test_verify_overflowing_entries_exits_3_with_empty_stderr(tmp_path, capsys, kind):
    if kind == "joint":
        payload = {"dim_s": 1, "dim_m": 2, "vec": HUGE}
    else:
        coeffs = {"rows": 2, "cols": 2, "entries": [HUGE, HUGE]}
        payload = {"rows": 2, "cols": 2, "coeffs": coeffs, "generator": None, "basis": None}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "version": 1, "payload": payload}))
    assert main(["verify", f"--{kind}", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["clean"] is False


@pytest.mark.filterwarnings("error")
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


def test_malformed_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc = main(["verify", "--joint", str(bad)])
    assert rc == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DocumentError"


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["verify", "--joint", str(tmp_path / "absent.json")])
    assert rc == 2
    capsys.readouterr()


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
