"""Buchberger's algorithm, normal forms and standard monomials.

This is the bridge from textual presentations to structure constants: a
reduced grevlex basis of the relation ideal, plus the monomials outside the
leading-term ideal, which form a vector-space basis of the quotient when it
is finite dimensional.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import BudgetExceeded, NotZeroDimensional, RingMismatch
from .multipoly import (AlgebraPresentation, MultiPoly, PolyRing, grevlex_key,
                        mono_degree, mono_div, mono_divides, mono_lcm,
                        mono_mul)

DEFAULT_PAIR_BUDGET = 200_000


class GroebnerBasis:
    """A reduced Groebner basis under grevlex."""

    def __init__(self, ring: PolyRing, basis):
        self.ring = ring
        self.basis = list(basis)
        self.leading = [g.leading_monomial() for g in self.basis]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(str(g) for g in self.basis)}])"


def reduce_poly(p: MultiPoly, basis, leading=None) -> MultiPoly:
    """Full normal form of p modulo a list of polynomials."""
    ring = p.ring
    field = ring.field
    if leading is None:
        leading = [g.leading_monomial() for g in basis]
    result = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        for lm, g in zip(leading, basis):
            if mono_divides(lm, mono):
                factor = mono_div(mono, lm)
                c = field.div(coeff, g.terms[lm])
                for m2, c2 in g.terms.items():
                    m = mono_mul(m2, factor)
                    v = field.mul(c, c2)
                    if m == mono:
                        continue
                    if m in work:
                        v = field.sub(work[m], v)
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                    else:
                        work[m] = field.neg(v)
                break
        else:
            result[mono] = coeff
    return MultiPoly(ring, result)


def _s_poly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    field = f.ring.field
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    a = f.mul_monomial(mono_div(lcm, lf), field.inv(f.terms[lf]))
    b = g.mul_monomial(mono_div(lcm, lg), field.inv(g.terms[lg]))
    return a - b


def buchberger(pres: AlgebraPresentation) -> GroebnerBasis:
    """Reduced Groebner basis of the relation ideal under grevlex.

    Pair selection is by sugar degree; the coprime-leading-term criterion
    prunes useless pairs.  A ceiling of DEFAULT_PAIR_BUDGET processed pairs
    guards against runaway inputs.
    """
    ring = pres.ring
    basis = []
    sugars = []
    for rel in pres.relations:
        if rel.ring != ring:
            raise RingMismatch("relation not in the presentation ring")
        if not rel.is_zero():
            basis.append(rel.monic())
            sugars.append(rel.total_degree())

    leading = [g.leading_monomial() for g in basis]

    def pair_key(i, j):
        li, lj = leading[i], leading[j]
        lcm = mono_lcm(li, lj)
        sugar = max(sugars[i] + mono_degree(mono_div(lcm, li)),
                    sugars[j] + mono_degree(mono_div(lcm, lj)))
        return (sugar, grevlex_key(lcm), (i, j))

    # a pair's key never changes, so a heap pops the pairs in key order
    pairs = [pair_key(i, j) for i in range(len(basis)) for j in range(i)]
    heapify(pairs)
    processed = 0
    while pairs:
        processed += 1
        if processed > DEFAULT_PAIR_BUDGET:
            raise BudgetExceeded(
                f"Buchberger pair budget {DEFAULT_PAIR_BUDGET} exceeded")
        _, _, (i, j) = heappop(pairs)
        li, lj = leading[i], leading[j]
        if mono_lcm(li, lj) == mono_mul(li, lj):
            continue  # coprime leading terms
        s = _s_poly(basis[i], basis[j])
        r = reduce_poly(s, basis, leading)
        if r.is_zero():
            continue
        r = r.monic()
        basis.append(r)
        leading.append(r.leading_monomial())
        sugars.append(r.total_degree())
        k = len(basis) - 1
        for t in range(k):
            heappush(pairs, pair_key(k, t))

    # minimalize: in graded order a proper divisor of a leading term always
    # comes first, so one ascending sweep suffices
    minimal = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.leading_monomial())):
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)

    # inter-reduce to the unique reduced basis
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(g, others) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(ring, reduced)


def normal_form(p: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    """Unique remainder of p modulo the basis; no term is divisible by a
    leading term and p minus the result lies in the ideal."""
    if p.ring != gb.ring:
        raise RingMismatch("polynomial not in the basis ring")
    return reduce_poly(p, gb.basis, gb.leading)


def standard_monomials(gb: GroebnerBasis):
    """Monomials outside the leading-term ideal, 1 first then ascending
    grevlex.  Raises when the quotient is infinite dimensional."""
    ring = gb.ring
    n = ring.nvars
    leading = gb.leading
    if any(not any(lm) for lm in leading):
        return []   # a constant leads: the unit ideal, the zero quotient
    if n == 0:
        return [()]
    # a pure power of every variable must appear among the leading terms
    bounds = [None] * n
    for lm in leading:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    for i, b in enumerate(bounds):
        if b is None:
            raise NotZeroDimensional(
                f"no pure power of {ring.var_names[i]!r} among the leading terms")

    out = []

    def rec(i, exps):
        if i == n:
            mono = tuple(exps)
            if not any(mono_divides(lm, mono) for lm in leading):
                out.append(mono)
            return
        for e in range(bounds[i]):
            exps[i] = e
            rec(i + 1, exps)
        exps[i] = 0

    rec(0, [0] * n)
    out.sort(key=grevlex_key)
    return out
