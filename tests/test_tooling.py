"""Checks on the tooling around the engine.

The benchmark's tracer still finds every engine function it wraps:
`perfbench/spans.py` names its targets by module and attribute path, and
`Tracer.install()` raises KeyError or AttributeError for a target that no
longer exists, so renaming or deleting one breaks `run.py --trace 1`.
The CLI gives the same output under `python -O`.
"""

import importlib
import importlib.util
import subprocess
import sys
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


REFERENCE = SPANS.with_name("reference.py")


def test_output_does_not_depend_on_asserts(tmp_path):
    """`python -O` strips every `assert`; no answer or exit code may change.

    Runs the benchmark's reference sessions except the slow showcase, the
    plain and the optimized process side by side.
    """
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    for name, (text, _) in reference.SESSIONS.items():
        if name == "showcase_primary":
            continue
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        procs = [
            subprocess.Popen([sys.executable, *flags, "-m", "binomials.cli", "--json", str(path)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for flags in ((), ("-O",))
        ]
        (plain, err), (optimized, _) = (proc.communicate() for proc in procs)
        codes = [proc.returncode for proc in procs]
        assert codes == [0, 0], (name, err)
        assert plain == optimized, name
