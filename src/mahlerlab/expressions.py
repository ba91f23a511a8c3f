"""Tiny expression parser for candidate (p, q) strings.

The accepted language (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom (('^' | '**') factor)?     # right associative; the
                                              # exponent must not contain x
    atom   := NUMBER | 'x' | 'sqrt' '(' expr ')' | '(' expr ')'
    NUMBER := digits with an optional fraction: 7, 07, 2., .5 or 2.5

and no tree nested deeper than 200 levels.  `_tokenize` writes the tokens as
Python source, Python's parser builds the tree with the grammar's precedence,
and `_closure` refuses every node outside the grammar; every refusal is a
DomainError starting "expression:".  The closure runs on floats and on jets,
so parsed candidates plug straight into the identity engine.

Candidate files are JSON lists of objects with keys "name", "p", "q", "domain"
([lo, hi], finite, lo < hi) and optional finite "anchor_x0", by default the
domain's midpoint.  The verification grid is the domain inset at both ends,
lo + 1e-3 (hi - lo) to hi - 1e-2 (hi - lo), dense toward hi: (1e-3, 0.99)
for [0, 1].
"""

from __future__ import annotations

import ast
import json
import math
import operator
import re
from typing import Callable

from .errors import DomainError
from .identities import IdentityCandidate
from .jets import sqrt

_TOKEN = re.compile(  # ASCII names: Python reads identifiers NFKC-folded
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*/^()]))\s*"
)

#: levels of nested nodes; evaluating a tree nests its closures as deep
_MAX_DEPTH = 200


def _real_pow(base, exponent):
    """base ** exponent; a negative constant base with a non-integer exponent
    makes a complex number, which is refused here."""
    out = base ** exponent
    if isinstance(out, complex):
        raise DomainError(f"expression: ({base!r}) ** {exponent!r} is not real")
    return out


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _real_pow}


def _tokenize(text: str) -> list[str]:
    """The tokens of text as Python source: each number as its float (1e999
    where that overflows), '^' as '**'."""
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise DomainError(f"expression: bad character at {text[pos:]!r}")
        if m["num"]:
            val = float(m["num"])
            out.append("1e999" if val == math.inf else repr(val))
        else:
            out.append("**" if m[m.lastgroup] == "^" else m[m.lastgroup])
        pos = m.end()
    return out


def _closure(node: ast.expr, depth: int) -> Callable:
    """The closure of a node at the given nesting level; SyntaxError for a
    node outside the grammar."""
    if depth > _MAX_DEPTH:
        raise DomainError(f"expression: nested deeper than {_MAX_DEPTH} levels")
    match node:
        case ast.BinOp(_, ast.Pow(), right) if any(
                isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(right)):
            raise DomainError("expression: an exponent must not depend on x")
        case ast.BinOp(left, op, right) if type(op) in _BINARY:
            a, b, f = _closure(left, depth + 1), _closure(right, depth + 1), _BINARY[type(op)]
            return lambda x: f(a(x), b(x))
        case ast.UnaryOp(ast.UAdd(), operand):
            return _closure(operand, depth + 1)
        case ast.UnaryOp(ast.USub(), operand):
            a = _closure(operand, depth + 1)
            return lambda x: -a(x)
        case ast.Name("x"):
            return lambda x: x
        case ast.Call(ast.Name("sqrt"), [arg], []):
            a = _closure(arg, depth + 1)
            return lambda x: sqrt(a(x))
        case ast.Constant(float(val)):
            return lambda x: val
    raise SyntaxError("outside the grammar")


def parse_expression(text: str) -> Callable:
    """Compile an expression in x into a float/jet-polymorphic closure."""
    try:
        return _closure(ast.parse(" ".join(_tokenize(text)), mode="eval").body, 1)
    except SyntaxError:
        raise DomainError(f"expression: cannot parse {text!r}") from None
    except (RecursionError, MemoryError):  # the limits of Python's parser
        raise DomainError(f"expression: nested deeper than {_MAX_DEPTH} levels") from None


def load_candidates(path: str) -> list[IdentityCandidate]:
    """Read candidates from a JSON file of {name, p, q, domain[, anchor_x0]}.

    Every defect of the file is a DomainError whose message starts with
    "candidate file:", except a bad expression, which keeps its own.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"candidate file: cannot read {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DomainError(f"candidate file: {path!r} is not JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DomainError("candidate file: top level must be a JSON list")
    out = []
    for i, entry in enumerate(raw):
        where = f"candidate file: entry {i}"
        if not isinstance(entry, dict):
            raise DomainError(f"{where} is not an object")
        try:
            domain, name, p, q = entry["domain"], str(entry["name"]), entry["p"], entry["q"]
        except KeyError as exc:
            raise DomainError(f"candidate file: missing key {exc}") from exc
        if not (isinstance(p, str) and isinstance(q, str)):
            raise DomainError(f"{where}: p and q must be strings")
        try:
            lo, hi = map(float, domain)
            anchor_x0 = float(entry.get("anchor_x0", 0.5 * (lo + hi)))
        except (TypeError, ValueError) as exc:
            raise DomainError(
                f"{where}: domain must be a pair of numbers and anchor_x0 a number"
            ) from exc
        span = hi - lo
        if not (math.isfinite(span) and span > 0.0):
            raise DomainError(f"{where}: domain [{lo}, {hi}] must be finite with lo < hi")
        if not math.isfinite(anchor_x0):
            raise DomainError(f"{where}: anchor_x0 must be finite, got {anchor_x0}")
        out.append(IdentityCandidate(name, parse_expression(p), parse_expression(q), (lo, hi),
                                     anchor_x0, grid_span=(lo + 1e-3 * span, hi - 1e-2 * span)))
    return out
