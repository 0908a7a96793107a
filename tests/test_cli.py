import hashlib
import json
import subprocess
import sys
import time

import pytest

from binomials.cli import main, parse_session, run_session
from binomials.errors import BadFieldSpec, ParseError, UnknownVariable
from binomials.poly import LEX


def run(text, **kw):
    return run_session(parse_session(text), **kw)


def test_parse_ring_variants():
    # the modulus search of GF(1000003^4) runs out, but a given modulus is used
    for header in ("ring QQ[x,y];", "ring QQ(zeta 12)[a,b];", "ring GF(2)[x];",
                   "ring GF(2^2; t^2+t+1)[x];", "ring GF(1000003^4; t^4+t+1)[x];"):
        s = parse_session(header + " ideal I = x; radical I;"
                          if "x" in header else header)
        assert s.ring is not None


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_session("ring QQ[x,y]")  # missing ';'
    with pytest.raises(BadFieldSpec):
        parse_session("ring ZZ[x];")
    with pytest.raises(UnknownVariable):
        parse_session("ring QQ[x]; radical J;")
    with pytest.raises(ParseError):
        parse_session("ring QQ[x]; ideal I = y; radical I;")
    with pytest.raises(BadFieldSpec):
        parse_session("ring QQ[x, z4];")  # reserved scalar token
    for modulus in ("t^3+1/2*t+1", "t^4+t+1"):  # GF moduli: integer, degree <= k
        with pytest.raises(BadFieldSpec):
            parse_session(f"ring GF(2^3; {modulus})[x];")
    for bad in ("ring QQ[x,y]; ideal I = x^2 - 1/0*y;",
                "ring GF(5)[x,y]; ideal I = x^2 - 1/5*y;",
                # (2,-2) = 2*(1,-1) but -1 != 1^2
                "ring QQ[x,y]; ideal L = character [x,y] [[1,-1],[2,-2]] [1,-1];"):
        with pytest.raises(ParseError):
            parse_session(bad)


def test_session_roundtrip():
    text = "ring QQ[x,y]; ideal I = x^3-y^3, x^4*y^5-x^5*y^4; primary I; radical I;"
    s = parse_session(text)
    assert parse_session(s.render()) == s
    t2 = "ring GF(2^3; t^3+t+1)[u,v]; ideal J = u^2-t*v; radical J;"
    s2 = parse_session(t2)
    assert parse_session(s2.render()) == s2


def test_example_8_8b_session():
    out = run("ring QQ[x,y]; ideal I = x^3-y^3, x^4*y^5-x^5*y^4; primary I;")
    assert "2 primary components" in out
    assert "x - y" in out


def test_char2_session():
    out = run("ring GF(2)[x]; ideal I = x^2-1; radical I;")
    assert "x + 1" in out  # -1 = +1 over F_2


def test_zeta12_ring_parses():
    gens = "a^3-b^3, a^2*c, b^4"
    s = parse_session(f"ring QQ(zeta 12)[a,b,c]; ideal I = {gens}; radical I;")
    assert len(s.ideals["I"].gens) == 3


def test_character_block():
    out = run("ring QQ[x,y]; ideal L = character [x,y] [[2,-2]] [1]; minprimes L;")
    assert "2 minimal primes" in out


def test_json_schema_and_determinism():
    text = "ring QQ[x,y]; ideal I = x^3-y^3, x^4*y^5-x^5*y^4; primary I;"
    j1 = run(text, json_mode=True)
    j2 = run(text, json_mode=True)
    assert j1 == j2  # byte-identical
    doc = json.loads(j1)
    (rec,) = doc["results"]
    assert rec["command"] == "primary"
    assert rec["field"] == "QQ"
    assert {"generators", "cell", "associated_prime", "embedded", "multiplicity"} <= set(
        rec["components"][0]
    )
    assert rec["certificates"]["intersection_verified"] is True
    assert rec["certificates"]["primary_certified"] is True
    # keys are sorted
    assert j1 == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_multiplicity_reported_char2():
    out = run("ring GF(2)[x]; ideal I = x^2-1; primary I;", json_mode=True)
    doc = json.loads(out)
    (rec,) = doc["results"]
    assert rec["components"][0]["multiplicity"] == 2


def test_all_commands_run():
    base = "ring QQ[x,y]; ideal I = x^2-y^2; "
    for cmd in ("radical", "minprimes", "cellular", "assprimes", "isprimary",
                "hull", "primary"):
        out = run(base + f"{cmd} I;")
        assert f"== {cmd} I" in out
    out = run("ring QQ[a,b,c,d]; "
              "ideal I = c^5-b^2*d^3, a^5*d^2-b^7, b^5-a^3*c^2, a^2*d^5-c^7; "
              "circuits I;")
    assert "4 circuits" in out


def test_circuits_read_the_reduced_basis():
    # x + y - 2*z is no binomial; the reduced basis of the ideal is
    out = run("ring QQ[x,y,z]; ideal I = x - z, x + y - 2*z; circuits I;")
    assert "3 circuits:\n  (1, -1, 0)\n  (1, 0, -1)\n  (0, 1, -1)\n" in out
    assert "circuit ideal = y - z, x - z" in out


def test_isprimary_nested_powers():
    out = run("ring QQ[x0,x1,x2,x3]; "
              "ideal K = x1^2, x1*x3-x2^2, x2*x3-x0^2; isprimary K;")
    assert "primary: YES" in out
    assert "radical = x2, x1, x0" in out or "x0" in out


def test_lex_order_flag():
    out = run("ring QQ[x,y]; ideal I = x^2-y; radical I;", order=LEX)
    assert "== radical" in out


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.bin"
    good.write_text("ring QQ[x]; ideal I = x^2-1; primary I;\n")
    assert main([str(good)]) == 0
    bad = tmp_path / "bad.bin"
    bad.write_text("ring QQ[x]; ideal I = x^2-1 primary I;\n")
    assert main([str(bad)]) == 1
    # mathematical failure: circuits on a non-saturated lattice ideal
    math_bad = tmp_path / "math.bin"
    math_bad.write_text("ring QQ[x]; ideal I = x^2-1; circuits I;\n")
    assert main([str(math_bad)]) == 2
    missing = tmp_path / "nope.bin"
    assert main([str(missing)]) == 1
    # usage errors are exit 1 like parse errors (argparse itself exits 2)
    assert main(["--order", "foo", str(good)]) == 1
    assert main(["--max-escalation", "3", str(good)]) == 1
    assert main(["--help"]) == 0


def test_non_utf8_session_is_an_error(tmp_path, capsys):
    utf16 = tmp_path / "utf16.bin"
    utf16.write_bytes(b"\xff\xfe" + "ring QQ[x];".encode("utf-16-le"))
    assert main([str(utf16)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text, code, tag", [
    ("ring QQ[x,y]; ideal I = x^2+y+1; radical I;", 2, "[NotBinomial]"),
    ("ring QQ[x,y]; ideal I = x^2 - 1/0*y; radical I;", 1, "parse error"),
    ("ring GF(a)[x];", 1, "parse error"),
    ("ring GF(5^b)[x];", 1, "parse error"),
    ("ring GF(2^0)[x];", 1, "parse error"),
    ("ring GF(4^2)[x];", 1, "parse error"),
    ("ring QQ[x]; ideal I = x - z0; radical I;", 1, "parse error"),
    ("ring QQ[x,y]; ideal L = character [x,y] [[1,a]] [1]; radical L;", 1, "parse error"),
    ("ring QQ[x]; ideal L = character [x] [[2,1]] [1]; radical L;", 1, "parse error"),
    ("ring QQ[x,y]; ideal L = character [x,x] [[1,-1]] [1]; radical L;", 1, "parse error"),
    ("ring QQ[x,y]; ideal L = character [x,y] [[1,-1]] [0]; radical L;", 1, "parse error"),
    ("ring QQ[x,y]; ideal L = character [x,y] [[1,-1]] [1/0]; radical L;", 1, "parse error"),
    ("ring GF(5)[x,y]; ideal L = character [x,y] [[1,-1]] [t]; radical L;", 1, "parse error"),
    # a generator's error is located in the session, not in the generator
    ("ring QQ[x,y];\nideal I = 2^-1*x - y, x/y;", 1, "line 2, column 25"),
    ("ring QQ[x,y];\nideal L = character [x,y] [[1,-1]] [1@GF(5)];", 1, "line 2, column 38"),
    ("ring GF(1000000000000000001)[x]; ideal I = x; radical I;", 1, "is not prime"),
    # a field is built only when its modulus search and test are bounded
    ("ring GF(1000003^4)[x];", 1, "give one as GF(1000003^4; modulus)"),
    ("ring GF(2^1000)[x];", 1, "GF(2^1000) is above the field bound"),
    # QQ(zeta_N) is not built for an absurd order
    ("ring QQ[x];\nideal I = x - z5000; radical I;", 1, "line 2, column 15"),
    pytest.param("ring QQ[x]; ideal I = x - z" + "1" * 5000 + "; radical I;", 1,
                 "exceeds 1000", id="zN-with-5000-digits"),
    # nor where two orders join, nor for roots of unity a prime needs
    ("ring QQ[x]; ideal I = x - z997*z991; radical I;", 1, "cyclotomic order bound 1000"),
    ("ring QQ[x]; ideal I = x - z997, x - z991; radical I;", 2,
     "[EscalationLimit] QQ(zeta 988027)"),
    ("ring QQ[x]; ideal I = x^2000 - 1; minprimes I;", 2, "[EscalationLimit] QQ(zeta 2000)"),
    # numerals are refused before int() reads them, constant powers before
    # they are computed
    pytest.param("ring QQ[x]; ideal I = x - " + "1" * 5000 + "; radical I;", 1,
                 "numeral of 5000 digits", id="integer-with-5000-digits"),
    pytest.param("ring QQ[x]; ideal I = x^" + "1" * 5000 + "; radical I;", 1,
                 "line 1, column 25", id="exponent-with-5000-digits"),
    ("ring QQ[x]; ideal I = x - 3^1000000000000; radical I;", 1, "line 1, column 29"),
    ("ring QQ[x]; ideal I = x - (1+z5)^1000000; radical I;", 1, "constant power"),
])
def test_bad_input_is_a_named_error(text, code, tag):
    proc = subprocess.run(
        [sys.executable, "-m", "binomials.cli"],
        input=text,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert tag in proc.stderr
    assert "Traceback" not in proc.stderr


def test_two_cyclotomic_orders_in_separate_variables():
    # the full-rank lattice ideal is its basis binomials, so no Groebner run
    # multiplies z997 by z991 and QQ(zeta 988027) is never needed
    out = run("ring QQ[x,y]; ideal I = x - z997, y - z991; radical I;")
    assert "radical = y - z991, x - z997" in out


def test_field_is_read_off_the_reduced_basis():
    # the generator z3*x is not in the reduced basis (1), so no coefficient
    # of the answer needs zeta 3
    out = run("ring QQ[x]; ideal I = z3*x, 1; radical I;", json_mode=True)
    (rec,) = json.loads(out)["results"]
    assert rec["field"] == "QQ"


def test_huge_exponents_stay_cheap():
    # a monomial power and a root-of-unity power never grow a numeral
    out = run("ring QQ[x]; ideal I = x^1000000000000 - z3^1000000000000; radical I;")
    assert "radical = x^1000000000000 - z3" in out


def test_huge_rational_is_printed_exactly():
    # each factor passes the constant-power bound; their product 3^10000 has
    # 4772 digits, past the 4300 that str(int) writes
    proc = subprocess.run(
        [sys.executable, "-m", "binomials.cli"],
        input="ring QQ[x]; ideal I = x - 3^2000*3^2000*3^2000*3^2000*3^2000; radical I;",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(3**10000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) == 4772
    assert f"radical = x - {digits}\n" in proc.stdout


def test_large_prime_field_header():
    out = run("ring GF(1000000000000000003)[x]; ideal I = x; radical I;")
    assert "radical = x" in out


def test_large_prime_field_bounds_enumeration():
    # minimal primes need a generator of GF(p)^*, which is found by
    # enumeration only in small fields; the radical needs none
    text = "ring GF(1000000000000000003)[x,y]; ideal I = x^2-y^2; "
    proc = subprocess.run(
        [sys.executable, "-m", "binomials.cli"],
        input=text + "minprimes I;",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "[EscalationLimit] GF(1000000000000000003)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "radical = x^2 + 1000000000000000002*y^2" in run(text + "radical I;")


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "binomials.cli", "--json"],
        input="ring QQ(zeta 6)[x]; ideal I = x^6-1; primary I;",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["results"][0]["components"]) == 6
    assert doc["results"][0]["field"] == "QQ(zeta 6)"


def test_verify_flag_adds_certificates():
    out = run("ring QQ[x,y]; ideal I = x^2-x*y; radical I; minprimes I; primary I;",
              verify=True, json_mode=True)
    doc = json.loads(out)
    rad, mp, pd = doc["results"]
    assert rad["certificates"]["contains_input"] is True
    assert mp["certificates"]["intersection_is_radical"] is True
    assert pd["certificates"] == {"intersection_verified": True, "primary_certified": True}


def test_cellular_json_includes_exponents():
    out = run("ring QQ[x,y]; ideal I = x^3-y^3, x^4*y^5-x^5*y^4; cellular I;",
              json_mode=True)
    doc = json.loads(out)
    (rec,) = doc["results"]
    assert all("exponents" in comp for comp in rec["components"])
    assert rec["certificates"]["intersection_verified"] is True


def test_large_saturation_exponent_answers():
    # x's saturation exponent is 300, so the cellular localization adds
    # x^300; the exponent is read off one revlex basis with no bound
    text = "ring QQ[x,y,z]; ideal I = x^300*y - x^300*z;"
    for command, want in (("cellular", "cell {y,z}: x^300"), ("primary", "prime: x")):
        proc = subprocess.run(
            [sys.executable, "-m", "binomials.cli"],
            input=f"{text} {command} I;",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cell {x,y,z}: y - z" in proc.stdout
        assert want in proc.stdout


def test_cyclotomic_order_990_session(tmp_path):
    # every scalar's key searches the 23 proper divisors of 990 for its
    # minimal field, one integer Hermite form each; the digests of the
    # `--json` and plain-text reports were recorded from the Fraction solve
    # it replaced, which took over 20 s per run on a 2-vCPU KVM guest
    path = tmp_path / "z990.txt"
    path.write_text("ring QQ(zeta 990)[x,y]; ideal I = x - z990*y, y^2 - z11; primary I;\n")
    digests = {
        ("--json",): "8ac9b3197c6ddf6f604174aa91c8224bb3eb76c7cabd01b14871f16da459f1a8",
        (): "2ed62adaeac9add5d1149ff4bde7f8722a201996252e575a08b4eb4f5c0b7a97",
    }
    start = time.perf_counter()
    for flags, digest in digests.items():
        proc = subprocess.run([sys.executable, "-m", "binomials.cli", *flags, str(path)],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, flags
    assert b"prime: y - z22, x - z990^46\n" in proc.stdout
    assert time.perf_counter() - start < 15


TWENTY = [f"x{i}" for i in range(20)]
ALL_CELL = "{" + ",".join(TWENTY) + "}"
OFF_X0_CELL = "{" + ",".join(TWENTY[1:]) + "}"


@pytest.mark.parametrize("gens, command, report", [
    ("x0 - x1", "cellular", f"1 cellular component:\n  cell {ALL_CELL}: x0 - x1\n"),
    ("x0^2 - x0*x1", "primary",
     "2 primary components:\n"
     f"  [minimal, multiplicity 1] cell {ALL_CELL}: x0 - x1\n    prime: x0 - x1\n"
     f"  [minimal, multiplicity 1] cell {OFF_X0_CELL}: x0\n    prime: x0\n"),
], ids=["cellular", "primary"])
def test_unused_variables_join_every_cell(gens, command, report):
    # x2, ..., x19 occur in no basis element, so the cell scan tries the
    # subsets of {x0, x1} only; a scan of all 2^20 subsets takes hours
    proc = subprocess.run(
        [sys.executable, "-m", "binomials.cli"],
        input=f"ring QQ[{','.join(TWENTY)}]; ideal I = {gens}; {command} I;",
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"== {command} I\n{report}"


# The plain-text report is rendered from the JSON record; these literal
# reports were recorded from the CLI when each branch still built its own
# text, and cover what no reference digest does.

def test_assprimes_hull_isprimary_report_on_a_cellular_input():
    text = "ring QQ[x,y,z]; ideal I = x^2, x*y - x*z; assprimes I; hull I; isprimary I;"
    assert run(text) == (
        "== assprimes I\n2 associated primes:\n  x\n  y - z, x\n"
        "== hull I\nhull = x\nbinomial: True\n"
        "== isprimary I\nprimary: NO\nradical = x\n"
        "associated prime: x\nassociated prime: y - z, x\n"
    )
    certs = [rec["certificates"] for rec in json.loads(run(text, json_mode=True))["results"]]
    assert certs == [{}, {"binomial": True}, {
        "primary": False, "reason": "witness monomial exhibits a second associated prime"}]


def test_assprimes_hull_isprimary_report_on_a_non_cellular_input():
    text = "ring QQ[x,y,z]; ideal I = x^2-y^2, x*z^2; assprimes I; hull I; isprimary I;"
    assert run(text) == (
        "== assprimes I\n3 associated primes:\n  z, x + y\n  z, x - y\n  y, x\n"
        "== hull I\nhull = x^2 - y^2, x*z^2, y^2*z^2\nbinomial: True\n"
        "== isprimary I\nprimary: NO\nradical = y*z, x*z, x^2 - y^2\n"
        "associated prime: z, x + y\nassociated prime: z, x - y\n"
    )
    doc = json.loads(run(text, json_mode=True))
    assert doc["results"][2]["certificates"] == {"primary": False, "reason": "ideal is not cellular"}


def test_isprimary_report_when_the_radical_is_not_prime():
    text = "ring QQ[x,y]; ideal I = x^2 - 1, y - 1; isprimary I;"
    assert run(text) == (
        "== isprimary I\nprimary: NO\nradical = y - 1, x^2 - 1\n"
        "associated prime: y - 1, x - 1\nassociated prime: y - 1, x + 1\n"
    )
    (rec,) = json.loads(run(text, json_mode=True))["results"]
    assert rec["certificates"] == {"primary": False, "reason": "radical is not prime"}
    assert [c["role"] for c in rec["components"]] == ["radical", "associated prime", "associated prime"]


def test_verify_lines_of_radical_and_minprimes():
    text = "ring QQ[x,y]; ideal I = x^2-y^2; radical I; minprimes I;"
    assert run(text, verify=True) == (
        "== radical I\nradical = x^2 - y^2\ncontains input: True\n"
        "== minprimes I\n2 minimal primes:\n  cell {x,y}: x + y\n  cell {x,y}: x - y\n"
        "intersection equals radical: True\n"
    )
    assert "contains input" not in run(text)


def test_witness_commands_on_non_binomial_generators(tmp_path, capsys):
    # the generators are not binomials, but the reduced basis y - z, x - z is
    path = tmp_path / "lines.txt"
    path.write_text("ring QQ[x,y,z]; ideal I = x - z, x + y - 2*z; "
                    "primary I; assprimes I; isprimary I;\n")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 primary component:\n  [minimal, multiplicity 1] cell {x,y,z}: y - z, x - z\n" in out
    assert "1 associated prime:\n  y - z, x - z\n" in out
    assert "primary: YES\n" in out
