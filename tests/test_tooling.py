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
Euclid and square-and-multiply.  A polynomial's terms are added up by one
collector, written by one writer and restricted to a cell by one filter,
and a ring coerces scalars only through its field.  Prime comparisons in `decompose` read
characters through `ideal_contains` and `extends`, with no membership test
or ideal key.  A finite field walks its unit group only
in its table builder.  An ideal is one object: nothing in the engine copies
it into a second one generated by its cached basis.  A Groebner run sees
monomials only as packed ints.  The README's quick
example prints what it says it prints.  The CLI's plain-text report is
rendered from the JSON record alone: `run_command` formats no text.
The engine's modules import each other only at module level and only
downward through the layers of the package docstring's pipeline, so their
imports are acyclic and `intlattice` imports nothing above `checks`.
"""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from binomials import cli as binomials_cli
from binomials.decompose import PrimaryComponent
from binomials.ideals import Ideal

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


# primes are compared on their characters (ES Thm 2.1): `ideal_contains`
# has these callers, and they and the witness test of `primary_test` make no
# Groebner membership test or ideal key; a self-check under checks.ENABLED
# may verify by membership
CONTAINS_CALLERS = {
    "ideal_contains": {
        ("decompose.py", "radical"),
        ("decompose.py", "minimal_prime_entries"),
        ("decompose.py", "_prime_below"),
        ("decompose.py", "localize"),
    },
}
CHARACTER_COMPARERS = (
    "_prime_below", "localize", "minimal_prime_entries", "primary_test", "radical",
)


def _is_self_check(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "checks.ENABLED"


def test_primes_are_compared_on_characters():
    assert _engine_callers(CONTAINS_CALLERS) == CONTAINS_CALLERS
    tree = ast.parse((ENGINE / "decompose.py").read_text())
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in CHARACTER_COMPARERS
    }
    assert tuple(sorted(functions)) == CHARACTER_COMPARERS
    for name, node in functions.items():
        body = ast.Module([s for s in node.body if not _is_self_check(s)], [])
        called = {callee for callee, _ in _calls_by_function(body)}
        assert not called & {"contains", "key"}, name


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


# the polynomial layer sums terms in `collect_terms`, writes a sum of terms
# in `render_terms` and restricts to a cell in `substitute_zero`, each with
# these callers; scalars are coerced by the field's `scalar` alone
POLY_LAYER_CALLERS = {
    "collect_terms": {
        ("poly.py", "Polynomial.__add__"),
        ("poly.py", "Polynomial.__mul__"),
        ("poly.py", "Polynomial.project"),
        ("ideals.py", "divide_exact"),
        ("ideals.py", "quasi_power_ratio"),
    },
    "render_terms": {("poly.py", "render_poly"), ("scalars.py", "_render_qpoly")},
    "substitute_zero": {
        ("characters.py", "cell_character"),
        ("characters.py", "ideal_contains"),
    },
}


def test_one_collector_one_writer_one_restriction():
    assert _engine_callers(POLY_LAYER_CALLERS) == POLY_LAYER_CALLERS
    defined = {
        node.name
        for path in sorted(ENGINE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert "coerce_scalar" not in defined


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


def _copies_from_a_basis(call):
    """Whether `call` is Ideal(<ring>, <x>.gb(...).polys)."""
    if getattr(call.func, "id", None) != "Ideal" or len(call.args) < 2:
        return False
    gens = call.args[1]
    return (isinstance(gens, ast.Attribute) and gens.attr == "polys"
            and isinstance(gens.value, ast.Call) and getattr(gens.value.func, "attr", None) == "gb")


def test_one_object_per_ideal():
    """An operation with nothing to do returns its input, and an auxiliary
    run reads the reduced basis the input already holds, so no engine code
    rebuilds an ideal from its own cached basis."""
    assert not hasattr(Ideal, "canonical")
    copies = [
        (path.name, ast.unparse(node))
        for path in sorted(ENGINE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _copies_from_a_basis(node)
    ]
    assert copies == []


# a Groebner run has one monomial representation, the packed int of
# `groebner._Packing`: the module names none of the exponent-tuple helpers
# and builds no tuple sort key
TUPLE_MONOMIAL_NAMES = {
    "mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_deg", "key_function",
}


def test_one_monomial_representation_in_groebner_runs():
    tree = ast.parse((ENGINE / "groebner.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & TUPLE_MONOMIAL_NAMES
    assert "mono_lcm" not in (ENGINE / "poly.py").read_text()


README = SPANS.parents[1] / "README.md"


def test_readme_quick_example_prints_its_comment_lines():
    text = README.read_text()
    code = re.search(r"Quick example:\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_the_text_report_is_rendered_only_from_the_record():
    # run_command builds the record and no text; report formatting lives in
    # report_lines, and the CLI writes nothing into engine objects
    tree = ast.parse((ENGINE / "cli.py").read_text())
    (run_command,) = [n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "run_command"]
    nodes = list(ast.walk(run_command))
    assert not [n for n in nodes if isinstance(n, ast.JoinedStr)]
    assert "lines" not in {n.id for n in nodes if isinstance(n, ast.Name)}
    assert "multiplicity" not in PrimaryComponent.__slots__


# the engine's modules bottom first: `checks` and `errors`, then the pipeline
# of the package docstring.  A module imports only modules listed before it,
# which makes the imports acyclic
ENGINE_LAYERS = [
    "checks", "errors", "intlattice", "scalars", "poly", "groebner", "ideals",
    "characters", "decompose", "cli",
]


def _package_imports(tree):
    """The package modules named by the relative imports anywhere in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_engine_imports_follow_the_pipeline_layers():
    modules = {path.stem: ast.parse(path.read_text()) for path in ENGINE.glob("*.py")}
    del modules["__init__"]
    assert sorted(modules) == sorted(ENGINE_LAYERS)
    imports = {name: set(_package_imports(tree)) for name, tree in modules.items()}
    for name, tree in modules.items():
        top = ast.Module([n for n in tree.body if isinstance(n, ast.ImportFrom)], [])
        assert set(_package_imports(top)) == imports[name], f"{name} imports inside a function"
        below = set(ENGINE_LAYERS[:ENGINE_LAYERS.index(name)])
        assert imports[name] <= below, f"{name} imports {sorted(imports[name] - below)}"
    assert imports["intlattice"] == {"checks"}
    assert "intlattice" in imports["scalars"]
