"""Checks on the tooling around the engine.

The benchmark's tracer still finds every engine function it wraps:
`perfbench/spans.py` names its targets by module and attribute path, and
`Tracer.install()` raises KeyError or AttributeError for a target that no
longer exists, so renaming or deleting one breaks `run.py --trace 1`.
The CLI gives the same output under `python -O`, and the same bytes as
recorded in `reference_digests.json` (`--json`) and
`reference_text_digests.json` (the plain-text report) for every benchmark
session.  No new plain `assert` enters the engine, and no new caller of
the auxiliary-variable primitives or of the residue-ring kernel's extended
Euclid and square-and-multiply.  A finite field walks its unit group only
in its table builder.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from binomials import cli as binomials_cli

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
# sha256 of `binomials.cli --json` stdout for each session of perfbench/reference.py
DIGESTS = Path(__file__).with_name("reference_digests.json")
# the same for the plain-text report, `binomials.cli` without `--json`
TEXT_DIGESTS = Path(__file__).with_name("reference_text_digests.json")


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def reference_sessions():
    return {name: text for name, (text, _) in load_reference().SESSIONS.items()}


def cli(path, *flags, mode=("--json",)):
    return subprocess.Popen([sys.executable, *flags, "-m", "binomials.cli", *mode, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def assert_recorded_output(name, stdout, digests=DIGESTS):
    digest = hashlib.sha256(stdout).hexdigest()
    assert digest == json.loads(digests.read_text())[name], f"{digests.name}: output of {name} changed"


def test_output_does_not_depend_on_asserts(tmp_path):
    """`python -O` strips every `assert`; no answer or exit code may change,
    and the `--json` and plain-text outputs are byte-identical to the
    recorded ones.

    Runs the benchmark's reference sessions except the slow showcase, the
    plain and the optimized `--json` process and the plain-text report side
    by side.
    """
    sessions = reference_sessions()
    assert sorted(sessions) == sorted(json.loads(DIGESTS.read_text()))
    assert sorted(sessions) == sorted(json.loads(TEXT_DIGESTS.read_text()))
    for name, text in sessions.items():
        if name == "showcase_primary":
            continue
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        procs = [cli(path), cli(path, "-O"), cli(path, mode=())]
        (plain, err), (optimized, _), (report, _) = (proc.communicate() for proc in procs)
        codes = [proc.returncode for proc in procs]
        assert codes == [0, 0, 0], (name, err)
        assert plain == optimized, name
        assert_recorded_output(name, plain)
        assert_recorded_output(name, report, TEXT_DIGESTS)


def test_showcase_output_is_recorded_output(tmp_path):
    path = tmp_path / "showcase_primary.txt"
    path.write_text(reference_sessions()["showcase_primary"])
    procs = [cli(path), cli(path, mode=())]
    (out, err), (report, _) = (proc.communicate() for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0], err
    assert_recorded_output("showcase_primary", out)
    assert_recorded_output("showcase_primary", report, TEXT_DIGESTS)


def test_large_exponent_ladder_gives_the_closed_forms(tmp_path, capsys):
    """The benchmark's ladder far above its k ≤ 50: saturating the curve's
    lattice ideal at z needs z-order 2k − 2 = 398, and the answers are
    still the closed forms."""
    reference = load_reference()
    path = tmp_path / "ladder.txt"
    path.write_text("ring QQ[x,y,z];\nideal I = x^200 - y, y^3 - z*x;\nradical I;\nminprimes I;\n")
    assert binomials_cli.main(["--json", str(path)]) == 0
    radical, minprimes = json.loads(capsys.readouterr().out)["results"]

    def components(result):
        return sorted(sorted(c["generators"]) for c in result["components"])

    assert components(radical) == [sorted(reference.ladder_radical(200))]
    assert components(minprimes) == sorted(sorted(p) for p in reference.ladder_primes(200))


ENGINE = SPANS.parents[1] / "src" / "binomials"
# the plain asserts left in the engine, by their tested expression: internal
# invariants of lattice and cyclotomic arithmetic that no input reaches
ASSERT_ALLOWLIST = {
    "intlattice.py": ["other.ambient == self.ambient", "other.ambient == self.ambient",
                      "sup.contains_lattice(self)"],
    "scalars.py": ["m % n == 0", "not any(rem)"],
}


def _reads_checks_flag(test):
    return any(
        isinstance(n, ast.Attribute) and n.attr == "ENABLED"
        and isinstance(n.value, ast.Name) and n.value.id == "checks"
        for n in ast.walk(test)
    )


def _plain_asserts(node, exempt=False):
    """Tested expressions of the asserts outside an `if` on checks.ENABLED
    and outside `_verify_buchberger`, both of which only run when checks are
    enabled."""
    if isinstance(node, ast.Assert) and not exempt:
        yield ast.unparse(node.test)
    if isinstance(node, ast.FunctionDef) and node.name == "_verify_buchberger":
        exempt = True
    if isinstance(node, ast.If):
        yield from _plain_asserts(node.test, exempt)
        for child in node.body:
            yield from _plain_asserts(child, exempt or _reads_checks_flag(node.test))
        for child in node.orelse:
            yield from _plain_asserts(child, exempt)
        return
    for child in ast.iter_child_nodes(node):
        yield from _plain_asserts(child, exempt)


def test_no_new_plain_asserts_in_the_engine():
    """`python -O` strips plain asserts, so an invariant that input can
    reach raises a typed error instead."""
    found = {}
    for path in sorted(ENGINE.glob("*.py")):
        asserts = sorted(_plain_asserts(ast.parse(path.read_text())))
        if asserts:
            found[path.name] = asserts
    assert found == ASSERT_ALLOWLIST


# the only callers in the engine of the auxiliary-variable primitives: a
# monomial saturation goes through the colon tree (`saturate_monomial`)
AUX_CALLERS = {
    "_with_aux": {("ideals.py", "intersect"), ("ideals.py", "saturate_poly")},
    "saturate_poly": {("decompose.py", "localize")},
}

# the residue-ring kernel has one extended Euclid and one square-and-multiply
KERNEL_CALLERS = {
    "_inverse_mod": {
        ("scalars.py", "CycloElement.inverse"),
        ("scalars.py", "FiniteFieldElement.inverse"),
        ("scalars.py", "_ff_poly_is_irreducible"),
    },
    "power": {
        ("scalars.py", "CycloElement.__pow__"),
        ("scalars.py", "FiniteFieldElement.__pow__"),
        ("poly.py", "Polynomial.__pow__"),
        ("scalars.py", "_ff_poly_is_irreducible"),
    },
}


def _calls_by_function(node, owner="<module>", prefix=""):
    """(callee name, outermost enclosing function) for every call, by name
    or by attribute; a method is named Class.method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef) and owner == "<module>":
            yield from _calls_by_function(child, owner, f"{child.name}.")
            continue
        if isinstance(child, ast.FunctionDef):
            yield from _calls_by_function(child, prefix + child.name if owner == "<module>" else owner)
            continue
        if isinstance(child, ast.Call):
            yield getattr(child.func, "id", getattr(child.func, "attr", None)), owner
        yield from _calls_by_function(child, owner, prefix)


def _engine_callers(names):
    found = {name: set() for name in names}
    for path in sorted(ENGINE.glob("*.py")):
        for callee, caller in _calls_by_function(ast.parse(path.read_text())):
            if callee in found:
                found[callee].add((path.name, caller))
    return found


def test_auxiliary_variable_callers():
    assert _engine_callers(AUX_CALLERS) == AUX_CALLERS


def test_one_euclid_and_one_square_and_multiply():
    assert _engine_callers(KERNEL_CALLERS) == KERNEL_CALLERS
    methods = [
        (path.name, node)
        for path in sorted(ENGINE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("__pow__", "inverse")
    ]
    assert len(methods) == 5
    for name, method in methods:
        inner = list(ast.walk(method))
        assert not any(isinstance(n, ast.While) for n in inner), (name, method.name)
        if method.name == "inverse":  # no Fermat power a^(q - 2)
            assert not any(isinstance(n, ast.Pow) for n in inner), name


# a finite field walks its unit group once, in the table builder; generator()
# and dlog() read that table
UNIT_GROUP_WALKERS = {"FiniteField._table"}


def _finite_field_methods(tree):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("FiniteField", "FiniteFieldElement"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{cls.name}.{node.name}", node


def _multiplies(node):
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Pow))
        or isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("_mulmod", "power")
        for n in ast.walk(node)
    )


def test_one_walk_of_the_unit_group():
    """Only the table builder holds a for or while loop that multiplies, and
    generator() and dlog() hold no loop at all, so neither builds a table of
    its own."""
    tree = ast.parse((ENGINE / "scalars.py").read_text())
    methods = dict(_finite_field_methods(tree))
    walkers = {
        name for name, method in methods.items()
        if any(isinstance(n, (ast.For, ast.While)) and _multiplies(n) for n in ast.walk(method))
    }
    assert walkers == UNIT_GROUP_WALKERS
    for name in ("FiniteField.generator", "FiniteField.dlog"):
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(n, loops) for n in ast.walk(methods[name])), name
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attributes & {"_dlog", "_gen"}
