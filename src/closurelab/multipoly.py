"""Multivariate polynomials over an exact field, plus the presentation parser.

Polynomials are immutable sparse maps from exponent tuples to nonzero
scalars.  The canonical term order is graded reverse lexicographic.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .arith import GF, QQ, Field, field_from_order
from .errors import (ParseError, RingMismatch, UnknownVariable,
                     UnsupportedField)

Monomial = tuple  # exponent tuple, one entry per ambient variable


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_str(var_names, mono: Monomial) -> str:
    """`x*y^2`: the factors of a monomial, or "" for the constant one."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(var_names, mono) if e)


def grevlex_key(m: Monomial):
    """Sort key; larger key means larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


class PolyRing:
    """A polynomial ring K[x_1, ..., x_g] under grevlex."""

    def __init__(self, field: Field, var_names):
        self.field = field
        self.var_names = tuple(var_names)
        self.nvars = len(self.var_names)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.var_names == other.var_names)

    def __hash__(self):
        return hash((self.field, self.var_names))

    def __repr__(self):
        return f"PolyRing({self.field}, {list(self.var_names)})"

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(self.field.one)

    def const(self, c):
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: c})

    def monomial(self, exps, coeff=None):
        c = self.field.one if coeff is None else coeff
        if not c:
            return self.zero()
        return MultiPoly(self, {tuple(exps): c})


class MultiPoly:
    """Immutable sparse multivariate polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def leading_monomial(self) -> Monomial:
        return max(self.terms, key=grevlex_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]),
                      reverse=True)

    # -- arithmetic

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        add = self.ring.field.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = add(out[m], c) if m in out else c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return MultiPoly(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return MultiPoly(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        mul = self.ring.field.mul
        add = self.ring.field.add
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = mul(c1, c2)
                if m in out:
                    v = add(out[m], v)
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return MultiPoly(self.ring, out)

    def scale(self, c):
        if not c:
            return self.ring.zero()
        mul = self.ring.field.mul
        return MultiPoly(self.ring, {m: mul(c, v) for m, v in self.terms.items()})

    def mul_monomial(self, mono: Monomial, coeff):
        """coeff*mono*self, for a nonzero coeff."""
        mul = self.ring.field.mul
        return MultiPoly(self.ring,
                         {mono_mul(m, mono): mul(coeff, v)
                          for m, v in self.terms.items()})

    def monic(self):
        lc = self.leading_coeff()
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def evaluate(self, point):
        """Value at a tuple of scalars, one per ambient variable."""
        f = self.ring.field
        total = f.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                for _ in range(e):
                    v = f.mul(v, point[i])
            total = f.add(total, v)
        return total

    # -- printing

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        parts = []
        for m, c in self.sorted_terms():
            cs = f.format_scalar(c)
            body = mono_str(self.ring.var_names, m)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
            if ("+" in cs or "-" in cs):
                cs = f"({cs})"
            if not body:
                body = cs
            elif cs != "1":
                body = f"{cs}*{body}"
            parts.append(("-" if negative else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly({self})"


class AlgebraPresentation(namedtuple("AlgebraPresentation",
                                     "field variables relations")):
    """A quotient of a polynomial ring by finitely many relations: a field,
    a tuple of variable names, and a tuple of MultiPoly in the ring over
    them."""

    __slots__ = ()

    @property
    def ring(self) -> PolyRing:
        return PolyRing(self.field, self.variables)

    def __str__(self):
        rels = ", ".join(str(r) for r in self.relations)
        return f"{self.field}[{','.join(self.variables)}]/({rels})"


# ---------------------------------------------------------------------------
# parsing


class _Tokens:
    SYMBOLS = "[]()^*+-,/"

    def __init__(self, text: str):
        self.text = text
        self.items = []   # (kind, value, position)
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.items.append(("int", int(text[i:j]), i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if ch in self.SYMBOLS:
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self, offset=0):
        j = self.idx + offset
        return self.items[j] if j < len(self.items) else ("eof", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def at_end(self):
        return self.idx >= len(self.items)

    def expect_end(self):
        if not self.at_end():
            tok = self.peek()
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


def _parse_field_spec(toks: _Tokens) -> Field:
    tok = toks.next()
    if tok[0] != "name":
        raise ParseError("expected a field name", tok[2])
    name = tok[1]
    if name in ("Q", "q"):
        return QQ()
    if name == "GF":
        toks.expect("(")
        p = toks.expect("int")[1]
        k = 1
        if toks.peek()[0] == ",":
            toks.next()
            k = toks.expect("int")[1]
        toks.expect(")")
        return GF(p, k)
    if name.startswith("F") and name[1:].isdigit():
        return field_from_order(int(name[1:]))
    raise UnsupportedField(f"unknown field {name!r}")


def _split_identifier(run: str, pos: int, names):
    """Split a letter/digit run into symbols, longest match first."""
    names = sorted(names, key=len, reverse=True)
    out = []
    i = 0
    while i < len(run):
        for name in names:
            if run.startswith(name, i):
                out.append(name)
                i += len(name)
                break
        else:
            raise UnknownVariable(f"unknown variable in {run!r}", pos + i)
    return out


def _parse_poly(toks: _Tokens, ring: PolyRing, stop_kinds=(",", ")")):
    """Signed sum of terms; `*` between two factors is optional.  Over an
    extension field `t` is the generator unless a ring variable has that
    name: one more exponent, folded into the term's coefficient."""
    field = ring.field
    symbols = ring.var_names
    if field.kind == "extension" and "t" not in symbols:
        symbols += ("t",)
    var_index = {name: i for i, name in enumerate(symbols)}
    total = ring.zero()
    sign = 1
    tok = toks.peek()
    if tok[0] in stop_kinds or tok[0] == "eof":
        raise ParseError("expected a polynomial", tok[2])
    while True:
        # sign prefix
        while toks.peek()[0] in ("+", "-"):
            if toks.next()[0] == "-":
                sign = -sign
        term_coeff = field.one
        exps = [0] * len(symbols)
        saw_factor = False
        while True:
            kind, value, pos = toks.peek()
            if kind == "int":
                toks.next()
                c = field.from_int(value)
                if toks.peek()[0] == "/" and toks.peek(1)[0] == "int":
                    toks.next()
                    _, den, den_pos = toks.next()
                    d = field.from_int(den)
                    if not d:
                        raise ParseError(f"denominator {den} is zero in {field}",
                                         den_pos)
                    c = field.div(c, d)
                term_coeff = field.mul(term_coeff, c)
                saw_factor = True
            elif kind == "name":
                toks.next()
                run = _split_identifier(value, pos, symbols)
                for sym in run:
                    exps[var_index[sym]] += 1
                # an exponent applies to the final symbol of the run
                if toks.peek()[0] == "^":
                    toks.next()
                    exps[var_index[run[-1]]] += toks.expect("int")[1] - 1
                saw_factor = True
            elif (kind == "*" and saw_factor
                  and toks.peek(1)[0] in ("int", "name")):
                toks.next()
            else:
                break
        if not saw_factor:
            kind, value, pos = toks.peek()
            raise ParseError(f"expected a term, found {value!r}", pos)
        if len(symbols) > ring.nvars:
            term_coeff = field.mul(term_coeff, field.pow(field.gen, exps.pop()))
        c = term_coeff if sign > 0 else field.neg(term_coeff)
        total = total + ring.monomial(tuple(exps), c)
        sign = 1
        kind, value, pos = toks.peek()
        if kind in ("+", "-"):
            continue
        if kind in stop_kinds or kind == "eof":
            return total
        raise ParseError(f"unexpected token {value!r} in polynomial", pos)


def _comma_list(toks: _Tokens, read_item, close: str) -> list:
    """Items read by `read_item()`, separated by commas, up to and
    including the token `close`."""
    items = []
    while True:
        items.append(read_item())
        nxt = toks.next()
        if nxt[0] == close:
            return items
        if nxt[0] != ",":
            raise ParseError(f"expected ',' or {close!r}, found {nxt[1]!r}",
                             nxt[2])


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse strings like ``Q[x,y]/(x^2, y^2)`` or ``F2[x,y]/((x,y)^2)``."""
    toks = _Tokens(text)
    field = _parse_field_spec(toks)
    toks.expect("[")

    def variable():
        tok = toks.expect("name")
        if tok[1] == "t" and field.kind == "extension":
            raise ParseError("'t' is reserved for the extension generator", tok[2])
        return tok[1]

    variables = _comma_list(toks, variable, "]")
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable name", 0)
    toks.expect("/")
    toks.expect("(")
    ring = PolyRing(field, variables)
    relations = []
    if toks.peek()[0] == ")":
        toks.next()
    elif toks.peek()[0] == "(":
        # ideal power sugar (v1,...,vg)^k: every monomial of degree k in the
        # distinct listed variables
        toks.next()

        def listed():
            tok = toks.expect("name")
            if tok[1] not in variables:
                raise UnknownVariable(f"unknown variable {tok[1]!r}", tok[2])
            return variables.index(tok[1])

        idx = dict.fromkeys(_comma_list(toks, listed, ")"))
        toks.expect("^")
        combos = itertools.combinations_with_replacement(
            idx, toks.expect("int")[1])
        monos = [tuple(c.count(i) for i in range(ring.nvars)) for c in combos]
        relations = [ring.monomial(m) for m in
                     sorted(monos, key=grevlex_key, reverse=True)]
        toks.expect(")")
    else:
        relations = _comma_list(toks, lambda: _parse_poly(toks, ring), ")")
    toks.expect_end()
    return AlgebraPresentation(field, tuple(variables), tuple(relations))


def parse_field(text: str) -> Field:
    """Parse a field name alone, as a presentation begins: Q, GF(p[,k]) or
    Fq."""
    toks = _Tokens(text)
    field = _parse_field_spec(toks)
    toks.expect_end()
    return field


def parse_poly(text: str, ring: PolyRing) -> MultiPoly:
    """Parse a single polynomial in an existing ring."""
    toks = _Tokens(text)
    p = _parse_poly(toks, ring, stop_kinds=())
    return p


def parse_univariate(text: str, field: Field):
    """Parse a univariate polynomial; returns (coeff list low->high, var name).

    The variable is the one letter the text mentions, `Z` when it mentions
    none.  As in a presentation, each letter of a run is a factor, so `xx^2`
    is x^3, and a polynomial mentioning two distinct letters is rejected.
    Over an extension field `t` is the field generator, never the variable:
    a run such as `tx` or `xt` is t*x.
    """
    toks = _Tokens(text)
    generator = field.kind == "extension"
    seen = None
    for kind, value, pos in toks.items:
        if kind != "name":
            continue
        if not value.isalpha():
            raise ParseError(f"invalid variable {value!r}", pos)
        for name in value:
            if generator and name == "t":
                continue
            if seen is None:
                seen = name
            elif name != seen:
                raise ParseError(f"two variables {seen!r} and {name!r}", pos)
    name = seen or "Z"
    ring = PolyRing(field, (name,))
    p = _parse_poly(toks, ring, stop_kinds=())
    deg = p.total_degree()
    coeffs = [field.zero] * (deg + 1) if deg >= 0 else [field.zero]
    for m, c in p.terms.items():
        coeffs[m[0]] = c
    return coeffs, name


def format_univariate(coeffs, field: Field, var: str = "Z") -> str:
    p = MultiPoly(PolyRing(field, (var,)),
                  {(e,): c for e, c in enumerate(coeffs) if c})
    return str(p).replace(" ", "")
