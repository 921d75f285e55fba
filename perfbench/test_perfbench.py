"""Tests of the benchmark's own arithmetic and accounting.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import re
from pathlib import Path

import numpy as np

import rhokit.purification
import spans
import stats
import workloads
from rhokit.errors import NotInSupport

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 92, 150):
        x = rng.random(n)
        for q in (0.0, 0.5, 0.9, 1.0):
            assert abs(stats.percentile(x, q) - np.percentile(x, 100 * q)) < 1e-12


def test_tail_rule_needs_ten_samples_beyond_p90():
    assert stats.min_samples(0.9) == 92
    assert stats.tail_rule_met(92, 0.9)
    assert not stats.tail_rule_met(91, 0.9)
    x = np.arange(92.0)
    assert np.sum(x > stats.percentile(x, 0.9)) == 10
    assert np.sum(np.arange(91.0) > stats.percentile(np.arange(91.0), 0.9)) == 9


def _purify_op():
    rng = np.random.default_rng(1)
    kets, w = workloads.rand_kets(rng, 3, 3), workloads.rand_weights(rng, 3)
    e = workloads.rhokit.RhoEnsemble(kets=kets, weights=w)
    op = workloads.Op("purify/test", lambda: workloads.lib("purify", e, 3),
                      lambda out: workloads.check_purify(kets, w, out))
    return op


def test_ok_ratio_counts_corrupted_output_and_untyped_exception():
    op = _purify_op()
    tally = workloads.Tally()
    (good,) = workloads.run_ops([op])
    tally.add(op, good)
    assert (tally.attempted, tally.failed) == (1, 0)

    joint, ancilla = good
    vec = joint.vec.copy()
    vec[[0, 1]] = vec[[1, 0]]  # same norm, wrong state
    corrupted = (workloads.joint_state(vec.reshape(3, 3)), ancilla)
    tally.add(op, corrupted)

    def boom():
        raise ValueError("untyped")

    raising = workloads.Op("purify/raises", boom, op.check)
    tally.add(raising, workloads.run_ops([raising])[0])

    typed = workloads.Op("x/expected_error", lambda: None, workloads.check_typed, expect_error=True)
    tally.add(typed, NotInSupport("outside"))
    tally.add(typed, ValueError("untyped where a typed error is documented"))

    assert tally.attempted == 5
    assert tally.failed == 3
    assert (tally.typed, tally.untyped) == (1, 2)
    assert tally.failures == {"purify/test": 1, "purify/raises": 1, "x/expected_error": 1}
    assert tally.unexpected == 3


def test_known_defect_classes_ignore_the_dimension_tag():
    op = workloads.Op("umap_between/skew1e-07@16", None, None)
    assert op.known_defect()
    assert not workloads.Op("umap_between/skew1e-05@16", None, None).known_defect()


def test_cli_results_classify_exit_codes():
    tally = workloads.Tally()
    op = workloads.Op("cli/error/x", None, lambda res: workloads.cli_error_check((2, 3, 4), res))
    tally.add(op, workloads.CliResult(3, "", '{"error": "NotInSupport", "message": "m"}\n'))
    tally.add(op, workloads.CliResult(1, "", "Traceback (most recent call last):\n  ...\nValueError: x\n"))
    assert (tally.failed, tally.typed, tally.untyped, tally.bad_exit) == (1, 1, 1, 1)


def test_metric_names_are_plain():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        spans.Span(0, None, 7, "round", 0.0, 10.0),
        spans.Span(1, 0, 7, "a.f", 1.0, 6.0),
        spans.Span(2, 1, 7, "b.g", 2.0, 3.0),
        spans.Span(3, 1, 7, "b.g", 4.0, 5.5),
        spans.Span(4, 0, 7, "a.f", 7.0, 9.0),
        spans.Span(5, 4, 7, "c.h", 6.5, 8.0),  # starts before its parent: clipped
    ]
    self_ms = spans.self_ms(tree)[7]
    assert self_ms == {"round": 3.0e3, "a.f": 2.5e3 + 1.0e3, "b.g": 2.5e3, "c.h": 1.5e3}
    assert spans.call_counts(tree)[7] == {"round": 1, "a.f": 2, "b.g": 2, "c.h": 1}


def test_tracer_records_nested_calls_and_counters():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = spans._wrap(tracer, "m.inner", inner, lambda t, a, k, r: t.count("m.seen", a[0]))
    wrapped_outer = spans._wrap(tracer, "m.outer", outer, None)
    assert wrapped_outer(1) == 4  # idle: no spans
    assert tracer.spans == []
    tracer.begin_round(0)
    assert wrapped_outer(3) == 8
    tracer.end_round()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("round", None), ("m.outer", 0), ("m.inner", 1)]
    assert tracer.counts[0] == {"m.seen": 3}
    assert spans.self_ms(tracer.spans)[0] == {"round": 2e3, "m.outer": 2e3, "m.inner": 1e3}


def test_instrument_rebinds_every_alias_until_restored():
    original = rhokit.linalg.eig_hermitian
    tracer = spans.Tracer()
    replaced = spans.instrument(tracer, {"linalg.eig_hermitian": None})
    assert rhokit.purification.eig_hermitian is original
    spans.apply(replaced)
    try:
        wrapper = rhokit.linalg.eig_hermitian
        assert wrapper is not original
        assert rhokit.purification.eig_hermitian is wrapper
        assert rhokit.ensembles.eig_hermitian is wrapper
        assert rhokit.eig_hermitian is wrapper
        tracer.begin_round(0)
        rhokit.ensemble_to_density(rhokit.RhoEnsemble(kets=np.eye(2, dtype=complex), weights=[0.5, 0.5]))
        tracer.end_round()
    finally:
        spans.restore(replaced)
    assert rhokit.purification.eig_hermitian is original
    assert spans.call_counts(tracer.spans)[0] == {"round": 1, "linalg.eig_hermitian": 1}


def test_merged_tallies_equal_one_tally_of_all_outcomes():
    op = _purify_op()
    bad = workloads.Op("x/raises", lambda: None, workloads.check_typed)
    outcomes = [(op, workloads.run_ops([op])[0]), (bad, ValueError("one")), (bad, ValueError("two"))]
    whole, first, second = workloads.Tally(), workloads.Tally(), workloads.Tally()
    for k, (o, out) in enumerate(outcomes):
        whole.add(o, out)
        (first if k < 2 else second).add(o, out)
    merged = workloads.Tally(**vars(first)).merge(workloads.Tally(**json.loads(json.dumps(vars(second)))))
    assert merged == whole
    assert merged.reasons["x/raises"].endswith("one")


def test_round_count_is_whole_cycles_fixed_by_its_arguments():
    wl = workloads.Workload("w", [[], [], [], [], []], round_s=2.0)
    assert wl.round_count(10.0, 1) == 5
    assert wl.round_count(12.0, 1) == 10  # six rounds, rounded up to two cycles
    assert wl.round_count(1.0, 7) == 10
    single = workloads.Workload("w", [[]], round_s=0.3)
    assert single.round_count(10.0, 31) == 33
    assert single.round_count(1.0, 31) == 31
