"""Tiny expression parser for candidate (p, q) strings.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom (('^' | '**') factor)?     # right associative; the
                                              # exponent must not contain x
    atom   := NUMBER | 'x' | 'sqrt' '(' expr ')' | '(' expr ')'

Parsing produces a closure usable on floats and on jets, so parsed candidates
plug straight into the identity engine.  Candidate files are JSON lists of
objects with keys "name", "p", "q", "domain" ([lo, hi]) and optional
"anchor_x0".
"""

from __future__ import annotations

import json
import re
from typing import Callable

from .errors import DomainError
from .identities import IdentityCandidate
from .jets import sqrt

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise DomainError(f"expression: bad character at {text[pos:]!r}")
        out.append(m.group(m.lastgroup))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0
        self.x_seen = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise DomainError(f"expression: expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (lambda a, b: lambda x: a(x) + b(x))(node, rhs) if op == "+" else (
                lambda a, b: lambda x: a(x) - b(x)
            )(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = (lambda a, b: lambda x: a(x) * b(x))(node, rhs) if op == "*" else (
                lambda a, b: lambda x: a(x) / b(x)
            )(node, rhs)
        return node

    def factor(self):
        if self.peek() in ("+", "-"):
            op = self.take()
            inner = self.factor()
            return inner if op == "+" else (lambda a: lambda x: -a(x))(inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            x_before = self.x_seen
            expo = self.factor()
            if self.x_seen > x_before:
                raise DomainError("expression: an exponent must not depend on x")
            return (lambda a, b: lambda x: a(x) ** b(x))(base, expo)
        return base

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "x":
            self.take()
            self.x_seen += 1
            return lambda x: x
        if tok == "sqrt":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return (lambda a: lambda x: sqrt(a(x)))(node)
        if tok is not None and re.fullmatch(r"\d+\.\d*|\.\d+|\d+", tok):
            self.take()
            val = float(tok)
            return lambda x: val
        raise DomainError(f"expression: unexpected token {tok!r}")


def parse_expression(text: str) -> Callable:
    """Compile an expression in x into a float/jet-polymorphic closure."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek() is not None:
        raise DomainError(f"expression: trailing tokens {parser.toks[parser.i:]}")
    return node


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
        out.append(IdentityCandidate(name, parse_expression(p), parse_expression(q), (lo, hi), anchor_x0))
    return out
