"""The benchmark's tracer still finds every engine function it wraps.

`perfbench/spans.py` names its targets by module and attribute path, and
`Tracer.install()` raises KeyError or AttributeError for a target that no
longer exists, so renaming or deleting one breaks `run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_engine():
    spans = load_spans()
    targets = {}
    for _, modname, path in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{modname}")
        owner, attr = spans._resolve(module, path)
        targets[owner, attr] = vars(owner)[attr]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for (o, a), f in targets.items())
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is f for (o, a), f in targets.items())
