"""The functions the benchmark's traced run wraps by name exist in rhokit,
defined in the module their names give.

``perfbench/worker.py`` names each wrapped function as ``module.function`` in
its ``TARGETS``. A rename or a deletion in rhokit would otherwise surface only
when a traced benchmark run fails, not in the tests; a function moved to
another module, still imported under its old path, would be timed under the
wrong layer's name.
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
    missing, moved = [], []
    for name in worker.TARGETS:
        module_name, function = name.split(".")
        module = importlib.import_module(f"rhokit.{module_name}")
        target = getattr(module, function, None)
        if not callable(target):
            missing.append(name)
        elif target.__module__ != module.__name__:
            moved.append(f"{name} is defined in {target.__module__}")
    assert missing == []
    assert moved == []
