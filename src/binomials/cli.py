"""Command-line front end.

Input is a session file (or stdin): one ring declaration, named ideals, and
commands, each statement ending with ';'.  Example:

    ring QQ[x,y];
    ideal I = x^3-y^3, x^4*y^5-x^5*y^4;
    primary I;

Commands: radical, minprimes, cellular, assprimes, isprimary, hull, primary,
circuits.  Ideals may also be given by a character block:

    ideal L = character [x,y] [[1,-1]] [1];

Each command builds one record (`run_command`); `--json` prints the
records, and otherwise `report_lines` renders the plain-text report from
them, so the report holds nothing the record does not.

Exit codes: 0 success, 1 usage/parse error, 2 mathematical error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    BadFieldSpec,
    BinomialsError,
    InconsistentCharacter,
    ParseError,
    UnknownVariable,
)
from .characters import (
    PartialCharacter,
    character_from_cellular,
    character_prime_ideal,
    ideal_from_character,
    laurent_multiplicity,
)
from .decompose import (
    associated_prime_characters,
    cellular_decomposition,
    circuit_ideal,
    effective_field,
    hull,
    is_cellular,
    is_primary,
    minimal_prime_entries,
    primary_decomposition,
    radical,
)
from .ideals import Ideal, intersect_all
from .poly import DEGREVLEX, LEX, Ring, parse_scalar, render_poly
from .scalars import QQ, CycloField, FiniteField

COMMANDS = (
    "radical",
    "minprimes",
    "cellular",
    "assprimes",
    "isprimary",
    "hull",
    "primary",
    "circuits",
)


class Session:
    def __init__(self, ring, field_text, ideals, ideal_texts, commands):
        self.ring = ring
        self.field_text = field_text
        self.ideals = ideals          # name -> Ideal
        self.ideal_texts = ideal_texts  # name -> original rhs text
        self.commands = commands      # list of (command, ideal name)

    def render(self):
        lines = [f"ring {self.field_text}[{','.join(self.ring.names)}];"]
        for name in self.ideals:
            lines.append(f"ideal {name} = {self.ideal_texts[name]};")
        for cmd, name in self.commands:
            lines.append(f"{cmd} {name};")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, Session)
            and other.ring == self.ring
            and list(other.ideals) == list(self.ideals)
            and all(other.ideals[k].gens == self.ideals[k].gens for k in self.ideals)
            and other.commands == self.commands
        )


def _line_col(text, offset):
    """1-based line and column of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _split_top(text, sep, start=0, end=None):
    """text[start:end] cut at each `sep` outside brackets, as (piece, offset)
    pairs: the stripped piece and its index in `text`.  The last pair is what
    follows the final `sep`."""
    end = len(text) if end is None else end
    out = []

    def cut(a, b):
        piece = text[a:b]
        out.append((piece.strip(), a + len(piece) - len(piece.lstrip())))

    depth = 0
    begin = start
    for k in range(start, end):
        ch = text[k]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            cut(begin, k)
            begin = k + 1
    cut(begin, end)
    return out


def _parse_piece(parse, text, piece, offset):
    """parse(piece), with a ParseError located in the session `text`, where
    `piece` starts at `offset`."""
    try:
        return parse(piece)
    except ParseError as exc:
        if exc.line is None:
            raise
        head = piece.split("\n")[: exc.line - 1]
        inner = sum(len(s) + 1 for s in head) + exc.col - 1
        raise type(exc)(exc.message, *_line_col(text, offset + inner)) from None


def _parse_field(text, pos):
    text = text.strip()
    if text == "QQ":
        return CycloField(1), text
    if text.startswith("QQ(") and text.endswith(")"):
        inner = text[3:-1].strip()
        if not inner.startswith("zeta"):
            raise BadFieldSpec(f"bad field {text!r}", *pos)
        try:
            n = int(inner[4:].strip())
        except ValueError:
            raise BadFieldSpec(f"bad cyclotomic order in {text!r}", *pos)
        if n < 1:
            raise BadFieldSpec("cyclotomic order must be >= 1", *pos)
        return CycloField(n), f"QQ(zeta {n})"
    if text.startswith("GF(") and text.endswith(")"):
        inner = text[3:-1].strip()
        modulus_text = None
        if ";" in inner:
            inner, modulus_text = (s.strip() for s in inner.split(";", 1))
        p_text, caret, k_text = inner.partition("^")
        try:
            p, k = int(p_text), int(k_text) if caret else 1
        except ValueError:
            raise BadFieldSpec(f"bad field size in {text!r}", *pos)
        modulus = None
        if modulus_text is not None:
            # a monic polynomial in t with integer coefficients, reduced mod p
            m = Ring(QQ, ("t",)).parse(modulus_text)
            if m.total_degree() > k or not all(
                isinstance(c, Fraction) and c.denominator == 1 for _, c in m.terms
            ):
                raise BadFieldSpec(f"modulus needs integer coefficients and degree <= {k}", *pos)
            modulus = tuple(int(m.coefficient_of((e,))) % p for e in range(k + 1))
        try:
            field = FiniteField(p, k, modulus)
        except (ValueError, BadFieldSpec) as exc:
            raise BadFieldSpec(str(exc), *pos)
        return field, text
    raise BadFieldSpec(f"unknown field {text!r}", *pos)


def _parse_character_block(text, start, end, ring, pos):
    # character [vars] [[row],[row]] [values], read from text[start:end]
    blocks = []
    depth = 0
    for k in range(start, end):
        if text[k] == "[":
            depth += 1
            if depth == 1:
                begin = k + 1
        elif text[k] == "]":
            depth -= 1
            if depth == 0:
                blocks.append((begin, k))
    if len(blocks) != 3:
        raise ParseError("character block needs [vars] [rows] [values]", *pos)
    (va, vb), (ra, rb), values_span = blocks
    names = [s.strip() for s in text[va:vb].split(",") if s.strip()]
    cell = tuple(ring.index(nm) for nm in names)
    if len(set(cell)) != len(cell):
        raise ParseError("character cell repeats a variable", *pos)
    rows = []
    for row_text in text[ra:rb].split("],"):
        row_text = row_text.replace("[", "").replace("]", "").strip()
        if row_text:
            try:
                rows.append([int(x) for x in row_text.split(",")])
            except ValueError:
                raise ParseError(f"lattice row [{row_text}] is not integer", *pos)
            if len(rows[-1]) != len(cell):
                raise ParseError(f"lattice row [{row_text}] needs {len(cell)} entries", *pos)
    values = []
    for v, offset in _split_top(text, ",", *values_span):
        if v:
            values.append(_parse_piece(lambda t: parse_scalar(t, ring.field), text, v, offset))
            if not values[-1]:
                raise ParseError("character values lie in k*, not 0", *pos)
    if len(values) != len(rows):
        raise ParseError("need one value per lattice row", *pos)
    try:
        rho = PartialCharacter.from_generators(cell, rows, values, ring.field)
    except InconsistentCharacter as exc:
        raise ParseError(str(exc), *pos)
    return ideal_from_character(ring, rho)


def parse_session(text):
    ring = None
    field_text = None
    ideals = {}
    ideal_texts = {}
    commands = []
    *stmts, (tail, offset) = _split_top(text, ";")
    if tail:
        raise ParseError(f"missing ';' after {tail[:25]!r}", *_line_col(text, offset))
    for stmt, offset in stmts:
        if not stmt:
            continue
        pos = _line_col(text, offset)
        head, _, rest = stmt.partition(" ")
        head = head.strip()
        if head == "ring":
            if ring is not None:
                raise ParseError("one ring per session", *pos)
            spec = rest.strip()
            if "[" not in spec or not spec.endswith("]"):
                raise ParseError("ring header needs FIELD[vars]", *pos)
            fld_text, var_text = spec[:-1].split("[", 1)
            field, field_text = _parse_field(fld_text, pos)
            names = [s.strip() for s in var_text.split(",") if s.strip()]
            try:
                ring = Ring(field, names)
            except ValueError as exc:
                raise BadFieldSpec(str(exc), *pos)
        elif head == "ideal":
            if ring is None:
                raise ParseError("declare a ring first", *pos)
            name, eq, rhs = rest.partition("=")
            name = name.strip()
            if not eq or not name.isidentifier():
                raise ParseError("ideal declaration needs NAME = generators", *pos)
            rhs_start, end = offset + stmt.index("=") + 1, offset + len(stmt)
            rhs = rhs.strip()
            if rhs.startswith("character"):
                ideals[name] = _parse_character_block(text, rhs_start, end, ring, pos)
                ideal_texts[name] = rhs
            else:
                gens = [_parse_piece(ring.parse, text, g, g_offset)
                        for g, g_offset in _split_top(text, ",", rhs_start, end) if g]
                ideals[name] = Ideal(ring, gens)
                ideal_texts[name] = ", ".join(render_poly(g) for g in ideals[name].gens)
        elif head in COMMANDS:
            name = rest.strip()
            if ring is None or name not in ideals:
                raise UnknownVariable(f"unknown ideal {name!r}", *pos)
            commands.append((head, name))
        else:
            raise ParseError(f"unknown statement {head!r}", *pos)
    if ring is None:
        raise ParseError("no ring declared")
    return Session(ring, field_text or "QQ", ideals, ideal_texts, commands)


# ---------------------------------------------------------------------------
# execution


def _gens_text(ideal, order):
    return [render_poly(g) for g in ideal.gb(order).polys] or ["0"]


def _laurent_multiplicity(pc):
    """|Sat_p(L_tau)/L_tau| for the component's own cell character."""
    try:
        tau = character_from_cellular(pc.ideal, pc.cell)
    except BinomialsError:
        return None
    return laurent_multiplicity(tau)


def _distinct_cells(components):
    return [list(c) for c in sorted({tuple(comp["cell"]) for comp in components})]


def run_command(cmd, name, ideal, order, verify):
    """Execute one command and return its JSON record; `report_lines`
    renders the plain-text report from that record."""
    ring = ideal.ring
    rec = {
        "command": cmd,
        "input": {"name": name, "generators": [render_poly(g) for g in ideal.gens]},
        "field": repr(ring.field),
        "cells": [],
        "certificates": {},
    }
    certs = rec["certificates"]

    def component(j, cell=None, **fields):
        """One entry of rec["components"]: j's generators, its cell's names
        when given, and the command's own fields."""
        if cell is not None:
            fields["cell"] = [ring.names[v] for v in cell]
        return {"generators": _gens_text(j, order), **fields}

    if cmd == "radical":
        out = radical(ideal)
        rec["field"] = repr(effective_field(ring, [out]))
        comps = [component(out)]
        if verify:
            certs["contains_input"] = out.contains(ideal)
    elif cmd == "minprimes":
        entries = minimal_prime_entries(ideal)
        primes = [p for _, _, p in entries]
        rec["field"] = repr(effective_field(ring, primes))
        comps = [component(p, c, character=s.serialize(ring.names)) for c, s, p in entries]
        rec["cells"] = [comp["cell"] for comp in comps]
        if verify:
            certs["intersection_is_radical"] = intersect_all(primes, ring) == radical(ideal)
    elif cmd == "cellular":
        comps = [component(c.ideal, c.cell, exponents=list(c.exponents))
                 for c in cellular_decomposition(ideal)]
        rec["cells"] = [comp["cell"] for comp in comps]
        certs["intersection_verified"] = True
    elif cmd == "assprimes":
        ok, cell = is_cellular(ideal)
        if ok:
            comps = [component(character_prime_ideal(ring, s), cell,
                               character=s.serialize(ring.names))
                     for s in associated_prime_characters(ideal, cell)]
        else:
            comps = [component(pc.prime, pc.cell, character=pc.char.serialize(ring.names))
                     for pc in primary_decomposition(ideal)]
        rec["cells"] = _distinct_cells(comps)
    elif cmd == "isprimary":
        rep = is_primary(ideal)
        certs["primary"] = rep.primary
        comps = [component(rep.radical, role="radical")]
        # only a NO answer carries witnesses, and then a reason
        if rep.witnesses:
            comps += [component(w, role="associated prime") for w in rep.witnesses]
            certs["reason"] = rep.reason
    elif cmd == "hull":
        out = hull(ideal)
        comps = [component(out)]
        certs["binomial"] = out.is_binomial()
    elif cmd == "primary":
        pcs = primary_decomposition(ideal)
        rec["field"] = repr(effective_field(ring, [pc.ideal for pc in pcs], [pc.prime for pc in pcs]))
        comps = [
            component(pc.ideal, pc.cell, associated_prime=_gens_text(pc.prime, order),
                      embedded=pc.embedded, multiplicity=_laurent_multiplicity(pc))
            for pc in pcs
        ]
        rec["cells"] = _distinct_cells(comps)
        # primary_decomposition raises unless both certificates hold
        certs.update(intersection_verified=True, primary_certified=True)
    elif cmd == "circuits":
        rho = character_from_cellular(ideal, tuple(range(ring.nvars)))
        if not rho.is_saturated():
            raise BinomialsError(
                "circuits: the saturated lattice of the input is not saturated; "
                "provide a toric (prime) input"
            )
        comps = [component(circuit_ideal(ring, rho))]
        rec["circuits"] = [[str(x) for x in v] for v in rho.lattice.circuits()]
        rec["character"] = rho.serialize(ring.names)
    else:  # pragma: no cover
        raise ValueError(cmd)
    rec["components"] = comps
    return rec


# the certificates the plain-text report prints, in this order, when present
_CERTIFICATE_LINES = (
    ("contains_input", "contains input"),
    ("intersection_is_radical", "intersection equals radical"),
    ("binomial", "binomial"),
)

# the noun of each command that lists its components
_LISTED = {
    "minprimes": "minimal prime",
    "cellular": "cellular component",
    "assprimes": "associated prime",
    "primary": "primary component",
}


def _count(n, noun):
    return f"{n} {noun}{'s' if n != 1 else ''}:"


def report_lines(rec):
    """The plain-text report of one command, read off its JSON record."""
    cmd, comps, certs = rec["command"], rec["components"], rec["certificates"]
    gens = [", ".join(comp["generators"]) for comp in comps]
    lines = [f"== {cmd} {rec['input']['name']}"]
    if cmd in ("radical", "hull"):
        lines.append(f"{cmd} = {gens[0]}")
    elif cmd == "isprimary":
        lines.append(f"primary: {'YES' if certs['primary'] else 'NO'}")
        lines.append(f"radical = {gens[0]}")
        lines += [f"associated prime: {g}" for g in gens[1:]]
    elif cmd == "circuits":
        lines.append(_count(len(rec["circuits"]), "circuit"))
        lines += [f"  ({', '.join(v)})" for v in rec["circuits"]]
        lines.append(f"circuit ideal = {gens[0]}")
    else:
        lines.append(_count(len(comps), _LISTED[cmd]))
        for comp, g in zip(comps, gens):
            cell = "" if cmd == "assprimes" else f"cell {{{','.join(comp['cell'])}}}: "
            if cmd == "primary":
                tag = "embedded" if comp["embedded"] else "minimal"
                mult = f", multiplicity {comp['multiplicity']}" if comp["multiplicity"] else ""
                lines.append(f"  [{tag}{mult}] {cell}{g}")
                lines.append(f"    prime: {', '.join(comp['associated_prime'])}")
            else:
                lines.append(f"  {cell}{g}")
    lines += [f"{label}: {certs[key]}" for key, label in _CERTIFICATE_LINES if key in certs]
    return lines


def run_session(session, order=DEGREVLEX, verify=False, json_mode=False):
    records = []
    for cmd, name in session.commands:
        try:
            records.append(run_command(cmd, name, session.ideals[name], order, verify))
        except BinomialsError as exc:
            raise CommandFailure(cmd, name, exc)
    if json_mode:
        return json.dumps({"results": records}, sort_keys=True, indent=1) + "\n"
    return "\n".join(line for rec in records for line in report_lines(rec)) + "\n"


class CommandFailure(BinomialsError):
    """A command failed; carries the command (algorithm) name."""

    def __init__(self, cmd, name, exc):
        super().__init__(f"{cmd} {name}: [{type(exc).__name__}] {exc}")
        self.command = cmd
        self.original = exc


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="binomials",
        description="exact radical / cellular / primary decomposition of binomial ideals",
    )
    ap.add_argument("file", nargs="?", help="session file (default: stdin)")
    ap.add_argument("--json", action="store_true", help="emit the JSON schema")
    ap.add_argument("--verify", action="store_true", help="re-check certificates")
    ap.add_argument("--order", choices=["lex", "degrevlex"], default="degrevlex")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is exit 1 here; 0 after --help
        return 1 if exc.code else 0
    try:
        if args.file:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    order = LEX if args.order == "lex" else DEGREVLEX
    try:
        session = parse_session(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    try:
        out = run_session(session, order=order, verify=args.verify, json_mode=args.json)
    except BinomialsError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
