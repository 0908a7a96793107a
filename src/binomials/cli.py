"""Command-line front end.

Input is a session file (or stdin): one ring declaration, named ideals, and
commands, each statement ending with ';'.  Example:

    ring QQ[x,y];
    ideal I = x^3-y^3, x^4*y^5-x^5*y^4;
    primary I;

Commands: radical, minprimes, cellular, assprimes, isprimary, hull, primary,
circuits.  Ideals may also be given by a character block:

    ideal L = character [x,y] [[1,-1]] [1];

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


def _cells_names(ring, cell):
    return [ring.names[v] for v in cell]


def _component_entry(ring, order, pc):
    return {
        "generators": _gens_text(pc.ideal, order),
        "cell": _cells_names(ring, pc.cell),
        "associated_prime": _gens_text(pc.prime, order),
        "embedded": pc.embedded,
        "multiplicity": pc.multiplicity,
    }


def _laurent_multiplicity(pc):
    """|Sat_p(L_tau)/L_tau| for the component's own cell character."""
    try:
        tau = character_from_cellular(pc.ideal, pc.cell)
    except BinomialsError:
        return None
    return laurent_multiplicity(tau)


def run_command(cmd, name, ideal, order, verify):
    """Execute one command; returns (json_record, human_text_lines)."""
    ring = ideal.ring
    rec = {
        "command": cmd,
        "input": {"name": name, "generators": [render_poly(g) for g in ideal.gens]},
        "field": repr(ring.field),
        "cells": [],
        "components": [],
        "certificates": {},
    }
    lines = [f"== {cmd} {name}"]
    if cmd == "radical":
        out = radical(ideal)
        rec["field"] = repr(effective_field(ring, [out]))
        rec["components"] = [{"generators": _gens_text(out, order)}]
        lines += ["radical = " + ", ".join(_gens_text(out, order))]
        if verify:
            ok = out.contains(ideal)
            rec["certificates"]["contains_input"] = ok
            lines += [f"contains input: {ok}"]
    elif cmd == "minprimes":
        entries = minimal_prime_entries(ideal)
        rec["field"] = repr(effective_field(ring, [p for _, _, p in entries]))
        rec["cells"] = [_cells_names(ring, c) for c, _, _ in entries]
        rec["components"] = [
            {
                "generators": _gens_text(p, order),
                "cell": _cells_names(ring, c),
                "character": s.serialize(ring.names),
            }
            for c, s, p in entries
        ]
        lines += [f"{len(entries)} minimal prime{'s' if len(entries) != 1 else ''}:"]
        for c, _, p in entries:
            lines += [f"  cell {{{','.join(_cells_names(ring, c))}}}: " + ", ".join(_gens_text(p, order))]
        if verify:
            ok = intersect_all([p for _, _, p in entries], ring) == radical(ideal)
            rec["certificates"]["intersection_is_radical"] = ok
            lines += [f"intersection equals radical: {ok}"]
    elif cmd == "cellular":
        comps = cellular_decomposition(ideal)
        rec["cells"] = [_cells_names(ring, c.cell) for c in comps]
        rec["components"] = [
            {
                "generators": _gens_text(c.ideal, order),
                "cell": _cells_names(ring, c.cell),
                "exponents": list(c.exponents),
            }
            for c in comps
        ]
        rec["certificates"]["intersection_verified"] = True
        lines += [f"{len(comps)} cellular component{'s' if len(comps) != 1 else ''}:"]
        for c in comps:
            lines += [f"  cell {{{','.join(_cells_names(ring, c.cell))}}}: " + ", ".join(_gens_text(c.ideal, order))]
    elif cmd == "assprimes":
        ok, cell = is_cellular(ideal)
        if ok:
            chars = associated_prime_characters(ideal, cell)
            prime_list = [(s, character_prime_ideal(ring, s), cell) for s in chars]
        else:
            comps = primary_decomposition(ideal)
            prime_list = [(pc.char, pc.prime, pc.cell) for pc in comps]
        rec["cells"] = sorted({tuple(_cells_names(ring, c)) for _, _, c in prime_list})
        rec["cells"] = [list(c) for c in rec["cells"]]
        rec["components"] = [
            {
                "generators": _gens_text(p, order),
                "cell": _cells_names(ring, c),
                "character": s.serialize(ring.names) if s else None,
            }
            for s, p, c in prime_list
        ]
        lines += [f"{len(prime_list)} associated prime{'s' if len(prime_list) != 1 else ''}:"]
        for _, p, c in prime_list:
            lines += ["  " + ", ".join(_gens_text(p, order))]
    elif cmd == "isprimary":
        rep = is_primary(ideal)
        rec["certificates"]["primary"] = rep.primary
        rec["components"] = [{"generators": _gens_text(rep.radical, order), "role": "radical"}]
        lines += [f"primary: {'YES' if rep.primary else 'NO'}"]
        lines += ["radical = " + ", ".join(_gens_text(rep.radical, order))]
        if not rep.primary and rep.witnesses:
            for w in rep.witnesses:
                rec["components"].append({"generators": _gens_text(w, order), "role": "associated prime"})
                lines += ["associated prime: " + ", ".join(_gens_text(w, order))]
            if rep.reason:
                rec["certificates"]["reason"] = rep.reason
    elif cmd == "hull":
        out = hull(ideal)
        binom = out.is_binomial()
        rec["components"] = [{"generators": _gens_text(out, order)}]
        rec["certificates"]["binomial"] = binom
        lines += ["hull = " + ", ".join(_gens_text(out, order))]
        lines += [f"binomial: {binom}"]
    elif cmd == "primary":
        comps = primary_decomposition(ideal)
        for pc in comps:
            pc.multiplicity = _laurent_multiplicity(pc)
        rec["field"] = repr(effective_field(ring, [pc.ideal for pc in comps], [pc.prime for pc in comps]))
        rec["cells"] = sorted({tuple(_cells_names(ring, pc.cell)) for pc in comps})
        rec["cells"] = [list(c) for c in rec["cells"]]
        rec["components"] = [_component_entry(ring, order, pc) for pc in comps]
        # primary_decomposition raises unless both certificates hold
        rec["certificates"] = {"intersection_verified": True, "primary_certified": True}
        lines += [f"{len(comps)} primary component{'s' if len(comps) != 1 else ''}:"]
        for pc in comps:
            tag = "embedded" if pc.embedded else "minimal"
            mult = f", multiplicity {pc.multiplicity}" if pc.multiplicity else ""
            lines += [
                f"  [{tag}{mult}] cell {{{','.join(_cells_names(ring, pc.cell))}}}: "
                + ", ".join(_gens_text(pc.ideal, order))
            ]
            lines += ["    prime: " + ", ".join(_gens_text(pc.prime, order))]
    elif cmd == "circuits":
        rho = character_from_cellular(ideal, tuple(range(ring.nvars)))
        if not rho.is_saturated():
            raise BinomialsError(
                "circuits: the saturated lattice of the input is not saturated; "
                "provide a toric (prime) input"
            )
        ci = circuit_ideal(ring, rho)
        vecs = rho.lattice.circuits()
        rec["components"] = [{"generators": _gens_text(ci, order)}]
        rec["circuits"] = [[str(x) for x in v] for v in vecs]
        rec["character"] = rho.serialize(ring.names)
        lines += [f"{len(vecs)} circuit{'s' if len(vecs) != 1 else ''}:"]
        for v in vecs:
            lines += ["  (" + ", ".join(map(str, v)) + ")"]
        lines += ["circuit ideal = " + ", ".join(_gens_text(ci, order))]
    else:  # pragma: no cover
        raise ValueError(cmd)
    return rec, lines


def run_session(session, order=DEGREVLEX, verify=False, json_mode=False):
    records = []
    lines = []
    for cmd, name in session.commands:
        try:
            rec, ls = run_command(cmd, name, session.ideals[name], order, verify)
        except BinomialsError as exc:
            raise CommandFailure(cmd, name, exc)
        records.append(rec)
        lines.extend(ls)
    if json_mode:
        doc = {"results": records}
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    return "\n".join(lines) + "\n"


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
