"""The functions the benchmark's traced run wraps by name exist in rhokit.

``perfbench/worker.py`` names each wrapped function as ``module.function`` in
its ``TARGETS``. A rename or a deletion in rhokit would otherwise surface only
when a traced benchmark run fails, not in the tests.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_target_is_a_rhokit_callable(monkeypatch):
    # worker.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.TARGETS
    missing = []
    for name in worker.TARGETS:
        module_name, function = name.split(".")
        module = importlib.import_module(f"rhokit.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(name)
    assert missing == []
