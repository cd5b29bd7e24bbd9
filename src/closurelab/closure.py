"""Intermediate closures of finite commutative algebras.

The m-closure of an algebra A of dimension n is the universal algebra with m
maps from A such that the product of (Z - image_s(a)) divides the
characteristic polynomial of a, for every a in every base change of A.  The
generic element gamma = sum e_i X_i has a characteristic polynomial P(Z) with
coefficients in K[X_1..X_n]; dividing P by (Z - gamma_1), then the quotient
by (Z - gamma_2), and so on, leaves one remainder per slot, and the
X-monomial coefficients of those remainders generate the defining ideal
inside the m-fold tensor power.

The first basis element is the unit, so gamma = X_1 + gamma', and every
slot embeds 1 as 1.  The substitution Z -> Z + X_1 sends P to P', the
characteristic polynomial of gamma', and each (Z - gamma_s) to
(Z - gamma'_s); it carries the chain of divisions of P onto that of P' and
fixes the remainders, which do not involve Z.  So the pipeline divides P',
which is free of X_1 and has about half the terms of P; on a local
algebra it is Z^n, returned without Berkowitz (`generic_char_poly`).

The slot-s relations involve slots 1..s only, so the closure is built one
slot at a time: stage s quotients (closure after s-1 slots) tensor A by the
slot-s relations, which is far smaller than the tensor power whenever the
intermediate closures collapse.  Each stage multiplies by the map images
of A's generators on the closure's digit, by operators that each map
lifts from the previous stage's (`AlgebraMap.operator`), so no closure
builds a product table.  A seed, the polynomial the chain of divisions
starts from, supplies each stage's relations: P' (general), or the
characteristic polynomial of each of a given set of points of A; the
naive closure takes as points the coset representatives of A modulo
constants.

At s = n the trace forces the last map, so the n-closure is the
(n-1)-closure C with one more map (Bhargava-Satriano, JEMS 2014).  The
result stores that pair; the canonical quotient of C x A, whose basis
and maps the outputs print, is built only when the result's `closure` or
`maps` is read.

A monogenic A is closed at every 2 <= m <= n from one point x with
K[x] = A instead, in every mode (`closure_from_presentation`).  With f the
characteristic polynomial of x, the m-closure is the splitting tower of
A = K[Z]/(f), free of rank n!/(n - m)! over any base (Bhargava-Satriano,
JEMS 2014); `monogenic_tower` gives its relations.  With C the tower
after s - 1 roots and f_s the quotient of f by (Z - x_1)...(Z - x_(s-1))
in C[Z], the stage-s remainder at x is f_s(x_s), which generates the
kernel of C x A = C[Z]/(f) -> C[Z]/(f_s).  So x alone closes every
stage; at m >= 3 the result takes its dimension from the theorem and
builds the closure, from x, only when `closure` or `maps` is read or the
certificate reads the stored pair.

Stage s of a run is the s-closure, so one presentation at rising m pays
for each stage once.  `closure_from_presentation` keeps one entry (`_Entry`)
for the last presentation: its key (text, exact flag and, in the modular
mode, CLOSURELAB_PRIMES, which with the text decides the prime),
the built algebra, its generating point and the staged run (`_Run`),
general or point seeded.  A call on that key at an m no lower
than the run's last stage resumes it, and so do `m_closure` and the
tower's build on the entry's algebra; any other call, or one that raises,
drops the entry first.  Results at rising m of one presentation share
their lower stages' closures and maps, and the certificate at m = n
resumes the one at m = n - 1.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
import weakref
from collections import namedtuple
from functools import cached_property, partial

try:                             # the builtin module: hashlib loads OpenSSL,
    from _sha256 import sha256   # about 3.7 MB more resident memory
except ImportError:
    from hashlib import sha256

from .arith import GF, QQ, Field, next_prime
from .errors import (BudgetExceeded, CertificateFailure, DegreeTooSmall,
                     InfiniteFieldUnsupported, LengthMismatch,
                     UnsupportedField)
from .finalg import (AlgebraMap, LiftedMap, PolyOps,
                     QuotientAlgebra, RowSpace, StructureAlgebra, TableAlgebra,
                     TensorPairAlgebra, algebra_from_presentation,
                     berkowitz_charpoly, char_poly, digit_operator,
                     power_budget, stride_multiplier, vec_add_into)
from .multipoly import AlgebraPresentation, MultiPoly, PolyRing

# ---------------------------------------------------------------------------
# generic element and its characteristic polynomial


class GenericCharData:
    """Characteristic polynomial of gamma = sum e_i X_i.

    `coeffs` lists the Z-coefficients in ascending order as polynomials in
    X_1..X_n over the base field; the Z^(n-i) coefficient is homogeneous of
    degree i.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs
        n = len(coeffs) - 1
        for j, c in enumerate(coeffs):
            for mono in c.terms:
                if sum(mono) != n - j:
                    raise CertificateFailure(
                        "generic characteristic polynomial is not homogeneous")


def generic_char_poly(a: StructureAlgebra,
                      unit_free: bool = False) -> GenericCharData:
    """Berkowitz applied to sum_k X_(k+1) * (multiplication matrix of e_k).
    `unit_free` skips the unit e_0: the characteristic polynomial
    P'(Z) = P(Z + X_1) of gamma' = gamma - X_1, which is P at X_1 = 0.
    When every e_i with i >= 1 is nilpotent, so is gamma' (the nilradical
    is an ideal), and P' = Z^n is returned without Berkowitz."""
    n = a.dim
    ring = PolyRing(a.field, tuple(f"X{i + 1}" for i in range(n)))
    if unit_free and all(_nilpotent(a, i) for i in range(1, n)):
        return GenericCharData([ring.zero()] * n + [ring.one()])
    entries = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for k in range(1 if unit_free else 0, n):
        cols = [a.basis_product(k, j) for j in range(n)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                exps = [0] * n
                exps[k] = 1
                entries[i][j] = entries[i][j] + ring.monomial(tuple(exps), c)
    coeffs = berkowitz_charpoly(entries, PolyOps(ring))
    return GenericCharData(coeffs)


def _nilpotent(a: StructureAlgebra, i: int) -> bool:
    """Whether e_i^(2^k) = 0 for the first 2^k >= n, by repeated squaring:
    a nilpotent element of an n-dimensional algebra has e^n = 0."""
    power, vec = 1, {i: a.field.one}
    while vec and power < a.dim:
        power, vec = 2 * power, a.mult_vec(vec, vec)
    return not vec


# ---------------------------------------------------------------------------
# X-polynomials with coefficients in an algebra
#
# Represented as dicts {exponent tuple -> sparse algebra vector}.  The only
# multiplications that occur are by the slot images of gamma, through the
# products by the images of A's basis along its generator tree
# (`_xp_tree_mult`).


def _xp_add_into(fieldh, target, src):
    for mono, vec in src.items():
        if mono in target:
            vec_add_into(fieldh, target[mono], vec)
            if not target[mono]:
                del target[mono]
        else:
            target[mono] = dict(vec)
    return target


def _xp_map(xp, fn):
    """Apply a linear map to the coefficients, dropping those sent to 0."""
    out = {}
    for mono, vec in xp.items():
        img = fn(vec)
        if img:
            out[mono] = img
    return out


def _synthetic_divide(fieldh, zcoeffs, times_gamma):
    """Divide a monic Z-polynomial by (Z - gamma); returns (quotient, rem).

    Horner in Z: the quotient coefficients are the intermediate
    accumulators, the remainder is the value at gamma.  Coefficients are
    dicts of algebra vectors (X-polynomials, one entry per point of A, or
    X-polynomials over the scalars as {0: c} in a tower); `times_gamma`
    multiplies one by gamma.
    """
    d = len(zcoeffs) - 1
    quot = [None] * d
    quot[d - 1] = zcoeffs[d]
    for k in range(d - 1, 0, -1):
        acc = times_gamma(quot[k])
        _xp_add_into(fieldh, acc, zcoeffs[k])
        quot[k - 1] = acc
    rem = times_gamma(quot[0])
    _xp_add_into(fieldh, rem, zcoeffs[0])
    return quot, rem


def _lift_scalar_coeffs(coeffs):
    """K[X] coefficients of P as X-polynomials over any algebra, via c*1."""
    return [{mono: {0: c} for mono, c in poly.terms.items()} for poly in coeffs]


def _rows_of(xp):
    return [vec for _, vec in sorted(xp.items())]


def _xp_point_mult(mults, coeff):
    """Multiply a coefficient keyed by point index j by point j, which
    mults[j] multiplies by."""
    out = {}
    for j, vec in coeff.items():
        img = mults[j](vec)
        if img:
            out[j] = img
    return out


def _generator_tree(a: StructureAlgebra):
    """A's basis as a tree from the unit, breadth first: edges (i, j, x)
    with e_i = e_j x exactly in A, x a generator and e_j the unit or an
    earlier edge's e_i; an e_i that is no such product (never a standard
    monomial) hangs off the unit with x = e_i."""
    one = a.field.one
    generators = [g for _, g in a.generator_elements()]
    tree, reached = [], [0]
    for j in reached:
        for g in generators:
            prod = a.mult_vec({j: one}, g)
            i = max(prod, default=0)
            if prod == {i: one} and i not in reached:
                tree.append((i, j, g))
                reached.append(i)
    return tree + [(i, 0, {i: one}) for i in range(1, a.dim)
                   if i not in reached]


def _tree_products(tree, ops, vec):
    """vec times the image of each e_i under a ring morphism, by index;
    ops[t] multiplies by the image of edge t's x."""
    products = [vec] * (len(tree) + 1)
    for (i, j, _), times in zip(tree, ops):
        products[i] = times(products[j])
    return products


def _xp_tree_mult(fieldh, products, xp):
    """Multiply an X-polynomial by the image of gamma' = sum_{i >= 1} e_i X_i,
    given its products by each e_i's image (`_tree_products`).  The unit's
    product, the coefficient itself, is skipped, so `xp` is left as it
    is."""
    out = {}
    for mono, vec in xp.items():
        for i, prod in enumerate(products(vec)):
            if i and prod:
                nm = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                if nm in out:
                    vec_add_into(fieldh, out[nm], prod)
                else:
                    out[nm] = prod
    return {mono: vec for mono, vec in out.items() if vec}


# ---------------------------------------------------------------------------
# seeds


class _Seed(namedtuple("_Seed", "coeffs elements times")):
    """Where a chain of divisions starts: the Z-coefficients of the
    polynomial divided, ascending, and the elements of A whose slot images
    make up gamma_s.  `times(mults)`, given one multiplier by the slot image
    of each element, multiplies a coefficient by gamma_s."""

    __slots__ = ()


def _generic_seed(a: StructureAlgebra) -> _Seed:
    """P' over the basis of A, divided by the (Z - gamma'_s), which leaves
    the remainders of P by the (Z - gamma_s) when every slot is unital
    (module docstring).  Its elements are the x of A's generator tree, and
    gamma'_s is applied as the products by the slot images of the e_i along
    the tree (`_tree_products`).  The seed rows are the remainders'
    X-monomial coefficients."""
    tree = _generator_tree(a)
    return _Seed(_lift_scalar_coeffs(generic_char_poly(a, unit_free=True).coeffs),
                 [x for _, _, x in tree],
                 lambda ops: partial(_xp_tree_mult, a.field,
                                     partial(_tree_products, tree, ops)))


def _point_seed(a: StructureAlgebra, points) -> _Seed:
    """Divisibility imposed at the given points of A only: the same
    division, run on the characteristic polynomial P_p of each point p, with
    coefficients keyed by the index of p instead of by X-monomial.
    Evaluating the generic remainder at X = p gives the same rows, but needs
    the symbolic P, which is far larger.  `points` is read once, so it may
    be a generator."""
    points = list(points)
    polys = [char_poly(a, p) for p in points]
    coeffs = [{j: {0: c[k]} for j, c in enumerate(polys) if c[k]}
              for k in range(a.dim + 1)]
    return _Seed(coeffs, points, lambda mults: partial(_xp_point_mult, mults))


# ---------------------------------------------------------------------------
# closure results


Stage = namedtuple("Stage", "dim generators seconds")


class ClosureResult:
    """An m-closure.  `stages` holds one `Stage` per slot of a staged run:
    the dim of the s-closure, the stage's nonzero seed rows, and the
    seconds that the call which returned the result spent on the stage (0
    on a stage an earlier call built); m = 0, 1 and m > n have none."""

    def __init__(self, input_algebra: StructureAlgebra, m: int, method: str,
                 stored_closure: StructureAlgebra, stored_maps: list,
                 stages: tuple = (), build=None):
        self.input_algebra = input_algebra
        self.m = m
        self.method = method    # general | naive | points | tower
        # the pair that the certificate reads; None in a tower until then
        self.stored_closure = stored_closure
        self.stored_maps = stored_maps
        self.stages = stages
        # "upper" when the dim is a modular upper bound for the one over Q
        # (`closure_from_presentation`); dims 1, n, 0 at m = 0, 1, > n are
        # exact
        self.bound = "exact"
        # builds the canonical (closure, maps) when `closure` or `maps` is
        # first read, and they replace the stored pair (at m = n).  A tower
        # stores no pair: its build returns the result its point seeds,
        # whose stored pair and build the tower takes over
        self.build = build

    def _read(self):
        self._stored()
        if self.build is not None:
            self.stored_closure, self.stored_maps = self.build()
            self.build = None
        return self.stored_closure, self.stored_maps

    def _stored(self):
        """The stored pair; a tower takes it over from its seeded result."""
        if self.stored_closure is None:
            seeded = self.build()
            self.stored_closure = seeded.stored_closure
            self.stored_maps = seeded.stored_maps
            self.build = seeded.build
        return self.stored_closure, self.stored_maps

    @property
    def closure(self) -> StructureAlgebra:
        return self._read()[0]

    @property
    def maps(self) -> list:
        return self._read()[1]

    @property
    def stage_dims(self) -> tuple:
        return tuple(stage.dim for stage in self.stages)

    @property
    def dim(self) -> int:
        return self.stages[-1].dim if self.stages else self.stored_closure.dim

    @property
    def rank(self) -> int:
        """Dimension of the defining ideal in the m-fold tensor power."""
        return self.input_algebra.dim ** self.m - self.dim

    @property
    def generator_count(self) -> int:
        """Nonzero seed rows over all stages."""
        return sum(stage.generators for stage in self.stages)

    @property
    def field(self) -> Field:
        return self.input_algebra.field

    @property
    def strategy(self) -> str:
        """"staged" when the result has stage dims (a tower's are the
        falling factorials); "trivial" for m = 0, 1 or m > n."""
        return "staged" if self.stages else "trivial"

    def __repr__(self):
        return (f"ClosureResult(m={self.m}, dim={self.dim}, "
                f"method={self.method}, strategy={self.strategy})")


def _verify_maps(maps):
    for i, mp in enumerate(maps):
        if not mp.is_ring_morphism():
            raise CertificateFailure(
                f"structural map {i + 1} is not a ring morphism")


def m_closure(a: StructureAlgebra, m: int) -> ClosureResult:
    """The m-closure of a finite-dimensional commutative algebra."""
    return _closure(a, m, "general", _generic_seed)


def _map_budget(n, m):
    """The width budget, once the m maps of a result fit in it: each has n
    rows, and the zero algebra (n = 0) still gets m maps."""
    limit = power_budget()
    if m * max(n, 1) > limit:
        raise BudgetExceeded(
            f"{m} maps of a dimension-{n} algebra exceed the budget {limit}")
    return limit


def _run_of(a, method, make_seed):
    """The last entry's run, when `a` is the entry's algebra and the run
    has this method, else a new one, which the entry keeps if `a` is its
    algebra."""
    entry = _last
    if entry is None or entry.algebra is not a:
        return _Run(a, method, make_seed)
    if entry.run is None or entry.run.method != method:
        entry.run = _Run(a, method, make_seed)
    return entry.run


def _closure(a, m, method, make_seed):
    """The m-closure seeded by `make_seed(a)`; `method` only names it in
    the result."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = a.dim
    limit = _map_budget(n, m)
    if m == 0:
        # K: products with the unit are never stored, so nothing to check
        closure, maps = TableAlgebra(a.field, ["1"], {}, check=False), []
    elif m > n:
        closure = TableAlgebra(a.field, [], {})
        maps = [AlgebraMap(a, closure, [{} for _ in range(n)]) for _ in range(m)]
    elif m == 1:
        closure = a
        maps = [AlgebraMap(a, a, [{i: a.field.one} for i in range(n)])]
    else:
        return _run_of(a, method, make_seed).result(m, limit)
    return ClosureResult(input_algebra=a, m=m, method=method,
                         stored_closure=closure, stored_maps=maps)


class _TraceMap(AlgebraMap):
    """`reconstructed_last_map`: by x, trace(x)*id minus the maps' operators."""

    def __init__(self, a, closure, maps):
        fieldh = a.field
        minus_one = fieldh.neg(fieldh.one)
        self.maps, self.traces, rows = maps, [], []
        for j in range(a.dim):
            trace = fieldh.zero
            for k in range(a.dim):
                trace = fieldh.add(trace, a.basis_product(j, k).get(k, fieldh.zero))
            self.traces.append(trace)
            vec = {0: trace} if trace else {}
            for mp in maps:
                vec_add_into(fieldh, vec, mp.rows[j], minus_one)
            rows.append(vec)
        super().__init__(a, closure, rows)

    def _multiplier(self, x, stride):
        fieldh = self.target.field
        minus_one = fieldh.neg(fieldh.one)
        trace = fieldh.zero
        for j, c in x.items():
            trace = fieldh.add(trace, fieldh.mul(c, self.traces[j]))
        others = [mp.operator(x, 1) for mp in self.maps]

        def column(a):
            out = {a: trace} if trace else {}
            for times in others:
                times({a: minus_one}, out)
            return out

        return digit_operator(fieldh, column, stride, self.target.dim)


def reconstructed_last_map(a: StructureAlgebra, closure: StructureAlgebra,
                           maps) -> AlgebraMap:
    """The map a -> trace(a)*1 - sum_s map_s(a) into the closure carrying
    `maps`.  In the n-closure the images of a sum to the trace of a (the
    Z^(n-1) coefficient of P = prod (Z - gamma_s)), so on an (n-1)-closure
    this is the only candidate for the last map."""
    return _TraceMap(a, closure, maps)


def _last_map(pair: TensorPairAlgebra, maps, seeds):
    """The slot-n map of the n-closure, given C = pair.left, the
    (n-1)-closure carrying `maps`, and the slot-n seed rows in C x A; with
    the products by its images along A's generator tree.

    Let last = reconstructed_last_map and phi: C x A -> C,
    c x a -> c * last(a).  phi is onto, as last(1) = 1, and its kernel is
    spanned by e_(c,i) - (c * t_i) x 1 for i >= 1, t_i = last(e_i).  The
    kernel lies in the slot-n ideal J by the trace identity, which holds in
    the n-closure (C x A)/J.  It is an ideal when `last` is a ring
    morphism, and it then contains J once it contains the seeds; both are
    checked here, the seeds by Horner along A's generator tree.  So the
    kernel is J, and phi identifies the n-closure with C, slot s < n with
    map_s and slot n with last."""
    last = reconstructed_last_map(pair.right, pair.left, maps)
    if not last.is_ring_morphism():
        raise CertificateFailure("the trace map on the (n-1)-closure is not "
                                 "a ring morphism")
    tree = _generator_tree(pair.right)
    ops = [last.operator(x, 1) for _, _, x in tree]
    for seed in seeds:
        parts = [{} for _ in range(pair.n)]
        for k, v in seed.items():
            u, i = divmod(k, pair.n)
            parts[i][u] = v
        for (i, j, _), times in reversed(list(zip(tree, ops))):
            if parts[i]:
                times(parts[i], parts[j])
        if parts[0]:
            raise CertificateFailure("a slot-n seed lies outside the trace kernel")
    return last, partial(_tree_products, tree, ops)


def _last_stage_span(pair: TensorPairAlgebra, maps, times_last, ident):
    """The canonical n-closure (C x A)/ker phi and its maps (`_last_map`),
    built the first time a result's `closure` or `maps` is read, with its
    maps checked to be ring morphisms.  The rows e_(c,i) - (c * t_i) x 1 go
    straight into the row space: they span ker phi, so the span needs no
    closing; c * t_i is a product along A's generator tree."""
    fieldh = pair.field
    n = pair.n
    one = fieldh.one
    minus_one = fieldh.neg(one)
    products = [times_last({c: minus_one}) for c in range(pair.left.dim)]
    span = RowSpace(fieldh)
    for i in range(1, n):
        for c, times_t in enumerate(products):
            row = pair.embed_left(times_t[i])
            row[c * n + i] = one
            span.add(row)
    quot = QuotientAlgebra(pair, span)
    maps = _quotient_maps(quot, maps, ident)
    _verify_maps(maps)
    return quot, maps


def _quotient_maps(quot: QuotientAlgebra, maps, ident: AlgebraMap):
    """The maps into C carried into a quotient of C x A (C the digit of
    stride n), then the new slot's map a -> 1 x a, from A's `ident`."""
    return ([LiftedMap(mp, quot, ident.target.dim) for mp in maps]
            + [LiftedMap(ident, quot, 1)])


class _Run:
    """One seed's staged run on A, which quotients one slot at a time.

    Stage s works in D = C x A where C is the closure after s-1 slots: it
    divides the seed's running quotient, carried in C, by (Z - gamma_s),
    and the remainder's rows generate the slot-s relations.  The quotient
    of D by the ideal they generate is the closure after s slots.  Stage n
    builds no quotient: the n-closure is C with one more map, the trace
    map, once its checks pass (`_last_map`).  A result at n stores that
    pair; its canonical quotient of C x A is built when `closure` or `maps`
    is first read (`_last_stage_span`).  Every structural map is checked to
    be a ring morphism: the trace map on C by `_last_map` when stage n is
    built, the canonical maps by `_last_stage_span`, and the others by the
    first `result` that hands them out.

    The run keeps each stage's record and (closure, maps), and the running
    quotient in the last stage's D, unprojected: it is projected when the
    next stage starts, so a run that is never extended projects nothing.
    A stage is kept only once it is whole, so a raise leaves the run as it
    was."""

    def __init__(self, a, method, make_seed):
        self.a, self.method, self.make_seed = a, method, make_seed
        self.stages, self.pairs = [], []
        self.checked = set()    # the stages whose maps a result checked

    def result(self, m, limit) -> ClosureResult:
        """The m-closure, 2 <= m <= n, from stage m, the run extended to m
        first.  Every stage width is held to `limit`, the built ones too, so
        a lowered budget stops the call at the stage a fresh run stops at.
        The result's stages carry the seconds this call spent on each: 0 on
        one that an earlier call built."""
        n = self.a.dim
        built = len(self.stages)
        for s in range(1, m + 1):
            width = self.stages[s - 2].dim * n if s >= 2 else 0
            if width > limit:
                raise BudgetExceeded(
                    f"stage {s} width {width} exceeds the budget {limit}")
            if s > len(self.stages):
                started = time.perf_counter()
                pair, stage_generators = (self._first() if s == 1
                                          else self._next(s))
                self.pairs.append(pair)
                self.stages.append(Stage(pair[0].dim, stage_generators,
                                         time.perf_counter() - started))
        closure, maps = self.pairs[m - 1]
        # stage n's maps are stage n - 1's and the trace map, which
        # `_last_map` checked
        s = min(m, n - 1)
        if s not in self.checked:
            _verify_maps(self.pairs[s - 1][1])
            self.checked.add(s)
        stages = tuple(stage if s >= built else stage._replace(seconds=0.0)
                       for s, stage in enumerate(self.stages[:m]))
        # a list of its own: the run builds its next stage from its own
        return ClosureResult(input_algebra=self.a, m=m, method=self.method,
                             stored_closure=closure, stored_maps=list(maps),
                             stages=stages, build=self.build if m == n else None)

    def _first(self):
        """Stage 1, A itself: the seed, whose slot-1 remainder in A is the
        Cayley-Hamilton identity, and the multipliers of every stage."""
        a = self.a
        fieldh = a.field
        seed = self.make_seed(a)
        self.ident = ident = AlgebraMap(
            a, a, [{i: fieldh.one} for i in range(a.dim)])
        # gamma_s acts on the last tensor digit, of A and of every C x A;
        # the generic seed's operators are the new-digit ones below
        self.times = seed.times([ident.operator(x, 1) for x in seed.elements])
        self.zc, rem = _synthetic_divide(fieldh, seed.coeffs, self.times)
        if any(rem.values()):
            raise CertificateFailure("Cayley-Hamilton remainder is nonzero")
        self.quot = None
        self.generators = [vec for _, vec in a.generator_elements()]
        # A's generators on the new digit: the same operators at every stage
        self.new_digit = [ident.operator(g, 1) for g in self.generators]
        # the pairs with g_i g_j = 0 in A: zero products of the multipliers
        # on the new digit (1 x g_i g_j) and on each slot (map_t(g_i g_j)),
        # since the maps are ring morphisms
        self.zero = [(i, j) for j, g in enumerate(self.generators)
                     for i in range(j + 1) if not self.new_digit[i](g)]
        return (a, [ident]), 0

    def _next(self, s):
        """Stage s >= 2: its (closure, maps) and nonzero seed rows."""
        a, fieldh, n = self.a, self.a.field, self.a.dim
        current, maps = self.pairs[-1]
        pair = TensorPairAlgebra(current, a)
        zc = self.zc
        if self.quot is not None:
            zc = [_xp_map(coeff, self.quot.project) for coeff in zc]
        zc, rem = _synthetic_divide(
            fieldh, [_xp_map(coeff, pair.embed_left) for coeff in zc],
            self.times)
        rows = _rows_of(rem)
        generators = sum(1 for r in rows if r)
        if s == n:
            last, times_last = _last_map(pair, maps, rows)
            self.build = partial(_last_stage_span, pair, maps, times_last,
                                 self.ident)
            return (current, maps + [last]), generators
        # the images of A's generators on the C digit and A's generators on
        # the new digit generate C x A.  The closed span does not depend on
        # their order, but the stored rows do: one on the new digit moves a
        # basis column to a few columns of the same C digit, so the first
        # row stored for each pivot is sparse
        mults, pairs = list(self.new_digit), set(self.zero)
        for mp in maps:
            idx = {}            # generator -> its nonzero image's index
            for i, g in enumerate(self.generators):
                if mp.apply_dict(g):
                    idx[i] = len(mults)
                    mults.append(mp.operator(g, n))
            pairs.update((idx[i], idx[j]) for i, j in self.zero
                         if i in idx and j in idx)
        span = RowSpace(fieldh)
        span.close_under(rows, mults, pairs)
        quot = QuotientAlgebra(pair, span)
        quot_maps = _quotient_maps(quot, maps, self.ident)
        self.zc, self.quot = zc, quot
        return (quot, quot_maps), generators


# ---------------------------------------------------------------------------
# naive variant (imposing divisibility for elements of A only)


NAIVE_ENUM_LIMIT = 200_000


def naive_closure(a: StructureAlgebra, m: int) -> ClosureResult:
    """Quotient of the tensor power by the remainders of P_a for a in A
    itself (no base change).  Finite fields only: the enumeration runs over
    coset representatives of A modulo constants, which suffices because
    shifting an element by a constant shifts both P_a and the linear factors
    together.  Over an infinite field the construction coincides with the
    true closure, so it is deliberately not re-implemented."""
    fieldh = a.field
    if fieldh.order is None:
        raise InfiniteFieldUnsupported(
            "naive closure over an infinite field equals the true closure; "
            "compute it with m_closure instead")
    n = a.dim
    q = fieldh.order
    if q ** (n - 1) > NAIVE_ENUM_LIMIT:
        raise BudgetExceeded(f"naive enumeration {q}^{n - 1} is too large")
    # a generator: m = 0, 1 and m > n build no seed, so they enumerate
    # nothing (the zero algebra, n = 0, has no other m)
    points = ({i: c for i, c in enumerate(tail, start=1) if c} for tail in
              itertools.product(list(fieldh.elements()), repeat=max(n - 1, 0)))
    return _closure(a, m, "naive", partial(_point_seed, points=points))


# ---------------------------------------------------------------------------
# monogenic algebras


def monogenic_algebra(fieldh: Field, coeffs) -> TableAlgebra:
    """K[x]/(f) for a monic f, basis 1, x, ..., x^(n-1)."""
    if coeffs[-1] != fieldh.one:
        raise ValueError("polynomial must be monic")
    f = MultiPoly(PolyRing(fieldh, ("x",)),
                  {(e,): c for e, c in enumerate(coeffs) if c})
    return algebra_from_presentation(AlgebraPresentation(fieldh, ("x",), (f,)))


def transform_monic(f_coeffs, g_coeffs, fieldh: Field):
    """Map a monic polynomial prod (Z - a_i) to prod (Z - g(a_i)).

    Computed as the characteristic polynomial of multiplication by g(x) in
    K[x]/(f), which needs no knowledge of the roots.  Multiplicative in f.
    """
    algebra = monogenic_algebra(fieldh, f_coeffs)
    x = algebra.generator_elements()[0][1]
    g_of_x = {}
    for c in reversed(g_coeffs):
        g_of_x = algebra.mult_vec(g_of_x, x)
        if c:
            vec_add_into(fieldh, g_of_x, algebra.unit(), c)
    return char_poly(algebra, g_of_x)


class Tower(namedtuple("Tower", "base degree m dim relations")):
    """Root-by-root splitting tower of a monic polynomial: the base field's
    name, or "Z", the degree n, the number m of roots split off, the
    dimension n!/(n - m)! and the relation strings, one per stage."""

    __slots__ = ()


def monogenic_tower(f_coeffs, m: int, fieldh: Field | None = None) -> Tower:
    """Split off m roots of a monic polynomial one at a time.

    Stage i adjoins a root x_i of the running polynomial and divides it out,
    so the result is free of dimension n(n-1)...(n-m+1).  The description
    holds the relations, the remainders of those divisions; the closure
    itself is built from a generating point (`closure_from_presentation`).
    Over the integers (fieldh None) the coefficients must be integers and
    the arithmetic runs over Q: monicness keeps every division integral, so
    the relations are integral.
    """
    fh = QQ() if fieldh is None else fieldh
    n = len(f_coeffs) - 1
    if f_coeffs[-1] != fh.one:
        raise ValueError("polynomial must be monic")
    if fieldh is None and any(c.denominator != 1 for c in f_coeffs):
        raise ValueError("integer tower needs integer coefficients")
    if m > n:
        raise DegreeTooSmall(f"cannot split {m} roots off degree {n}")
    if m < 0:
        raise ValueError("m must be nonnegative")

    ring = PolyRing(fh, tuple(f"x{i + 1}" for i in range(m)))

    def times_root(i, xp):
        # copies each coefficient: _synthetic_divide adds into them
        return {mono[:i] + (mono[i] + 1,) + mono[i + 1:]: dict(vec)
                for mono, vec in xp.items()}

    # running polynomial: Z-coefficients as X-polynomials over the scalars.
    # Dividing by (Z - x_i) leaves the value at x_i as the remainder, the
    # stage-i relation.
    cur = _lift_scalar_coeffs(ring.const(c) for c in f_coeffs)
    relations = []
    for i in range(m):
        cur, rem = _synthetic_divide(fh, cur, partial(times_root, i))
        rel = {mono: vec[0] for mono, vec in rem.items()}
        relations.append(str(MultiPoly(ring, rel)))
    return Tower(base="Z" if fieldh is None else str(fh), degree=n, m=m,
                 dim=math.perm(n, m), relations=tuple(relations))


# ---------------------------------------------------------------------------
# closed-form dimension helpers


def etale_closure_dim(n: int, m: int) -> int:
    """Number of injective maps from an m-set into an n-set."""
    return math.perm(n, m)


def product_formula_dim(dims_a, dims_b, m: int) -> int:
    """Closure dimension of a product from the factor closure dimensions:
    sum_k C(m,k) * dim A^(k) * dim B^(m-k)."""
    if len(dims_a) < m + 1 or len(dims_b) < m + 1:
        raise LengthMismatch("need factor dimensions for 0..m")
    return sum(math.comb(m, k) * dims_a[k] * dims_b[m - k]
               for k in range(m + 1))


def galois_factor_count(parts) -> int:
    """n!/(n_1! ... n_t!) identical tensor factors in the full closure of a
    product of algebras of dimensions n_1..n_t."""
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


# ---------------------------------------------------------------------------
# divisibility certificate


def divides_check(result: ClosureResult) -> dict:
    """Certify that the product of (Z - map_s(gamma)) divides P inside the
    closure: re-run the slot divisions with coefficients in the closure and
    demand a zero remainder at every slot.  By genericity this certifies the
    divisibility for every base change at once.

    The chain is the generic seed's (`_generic_seed`): its products by the
    map_s(e_i) along A's generator tree are those of C, associative, and
    its remainders are P's, once each map is unital and takes the tree's
    products of 1 to its rows, as checked.

    The last certified chain is kept, its closure and maps weakly; a call
    on that closure and those first maps, in order, divides the slots after
    them only: one at m = n after m = n - 1."""
    global _chain
    if result.m == 0 or result.dim == 0:
        return {"certified": True, "mode": "vacuous"}
    a = result.input_algebra
    closure, maps = result._stored()
    keys = [closure] + maps[:result.m]
    refs, seed, zc = _chain or ((), None, None)
    done = len(refs) - 1
    if not 0 <= done < len(keys) or any(r() is not k for r, k in zip(refs, keys)):
        done, seed = 0, _generic_seed(a)
        zc = seed.coeffs
    slot_times = [seed.times([mp.operator(x, 1) for x in seed.elements])
                  for mp in keys[1:]]
    for s, (mp, times) in enumerate(zip(maps, slot_times)):
        if not mp.is_unital():
            raise CertificateFailure(f"structural map {s + 1} is not unital")
        images = times({(0,) * a.dim: mp.target.unit()})
        if {k.index(1): v for k, v in images.items()} != {
                i: row for i, row in enumerate(mp.rows) if i and row}:
            raise CertificateFailure(
                f"structural map {s + 1} does not multiply by its images")
    for s in range(done, len(slot_times)):
        zc, rem = _synthetic_divide(a.field, zc, slot_times[s])
        if any(rem.values()):
            raise CertificateFailure(
                f"slot {s + 1} remainder is nonzero in the closure")
    _chain = [weakref.ref(key) for key in keys], seed, zc
    return {"certified": True, "mode": "recomputed"}


# ---------------------------------------------------------------------------
# char-0 modular mode


MODULAR_PRIME_LOW = 1 << 29     # hashed primes lie in [2^29, 2^30)


def modular_prime(pres: AlgebraPresentation | str) -> int:
    """The first prime the modular mode tries for a presentation, or its
    text: the one CLOSURELAB_PRIMES names, else the next prime at or above
    2^29 + (SHA-256 of the presentation text mod 2^29), wrapped to stay
    below 2^30.  The choice is deterministic, and spread over about 2.6e7
    primes, so no coefficient is bad for every input."""
    raw = os.environ.get("CLOSURELAB_PRIMES")
    if raw:
        parts = raw.replace(",", " ").split()
        if len(parts) != 1:
            raise UnsupportedField(
                f"CLOSURELAB_PRIMES must name one prime: {raw.strip()}")
        p = int(parts[0])
        GF(p)       # NotPrime, or above 2^61
        return p
    digest = sha256(str(pres).encode()).digest()
    low = MODULAR_PRIME_LOW
    p = next_prime(low + int.from_bytes(digest, "big") % low)
    return p if p < 2 * low else next_prime(low)


def reduce_mod_prime(a: TableAlgebra, p: int) -> TableAlgebra:
    """A rational algebra reduced modulo the first prime q >= p that
    divides no numerator or denominator of its structure constants and
    generator coordinates.  With no denominator divisible by q, the
    Z_(q)-span of the basis is an order of A and the result is its special
    fiber; the closure commutes with base change, so Nakayama's lemma gives
    dim over Q <= dim over GF(q) at every m (README, modular mode)."""
    n = a.dim
    table = {(i, j): a.basis_product(i, j) for i in range(n) for j in range(i, n)}
    generators = a.generator_elements()
    values = {c for vec in itertools.chain(table.values(),
                                           (g for _, g in generators))
              for c in vec.values()}
    numbers = {abs(x) for c in values for x in (c.numerator, c.denominator)}
    while any(x % p == 0 for x in numbers):
        p = next_prime(p + 1)
    fieldh = GF(p)

    def image(vec):
        return {k: c.numerator * pow(c.denominator, -1, p) % p
                for k, c in vec.items()}

    return TableAlgebra(fieldh, a.labels,
                        {key: image(vec) for key, vec in table.items()},
                        generators=[(name, image(g)) for name, g in generators],
                        check=False)


def base_change_presentation(pres: AlgebraPresentation,
                             target: Field) -> AlgebraPresentation:
    """Map a presentation's coefficients into another field.  A rational
    coefficient goes into GF(p) or GF(p^k) when p does not divide its
    denominator; a GF(p) coefficient goes into a field of characteristic p
    (all catalog inputs over GF(p^k) have such coefficients)."""
    if pres.field.kind == "rationals":
        def image(c):
            if target.char and c.denominator % target.char == 0:
                raise UnsupportedField(
                    f"denominator of {c} vanishes mod {target.char}")
            return target.mul(target.from_int(c.numerator),
                              target.inv(target.from_int(c.denominator)))
    elif pres.field.kind == "prime" and target.char == pres.field.char:
        image = target.from_int
    else:
        raise UnsupportedField(f"cannot embed {pres.field} into {target}")
    ring = PolyRing(target, pres.variables)
    rels = []
    for rel in pres.relations:
        terms = {}
        for mono, c in rel.terms.items():
            v = image(c)
            if v:
                terms[mono] = v
        rels.append(MultiPoly(ring, terms))
    return AlgebraPresentation(target, pres.variables, tuple(rels))


def _generating_point(a: StructureAlgebra):
    """A point x of A with K[x] = A, or None: each of A's generators, then
    their sum, then one combination of them, coefficients from
    random.Random(char) in [1, char), or [1, 256) over Q.  A sparse point
    with small coefficients keeps each chain short.

    A local A (every e_i, i >= 1, nilpotent) has none if dim m/m^2 >= 2:
    with x = c + y, y in m, K[x] = A gives m = yA, so y spans m/m^2, and
    m^2 is spanned by the e_i e_j, i, j >= 1."""
    fieldh = a.field
    nonunits = range(1, a.dim)
    if all(_nilpotent(a, i) for i in nonunits):
        squares = RowSpace(fieldh)
        for i, j in itertools.combinations_with_replacement(nonunits, 2):
            squares.add(a.basis_product(i, j))
        if len(nonunits) - squares.rank >= 2:
            return None
    rng = random.Random(fieldh.char)
    generators = [g for _, g in a.generator_elements()]
    plain, combination = {}, {}
    for g in generators:
        vec_add_into(fieldh, plain, g)
        vec_add_into(fieldh, combination, g,
                     fieldh.from_int(rng.randrange(1, fieldh.char or 256)))
    return next(filter(partial(_generates, a),
                       generators + [plain, combination]), None)


def _generates(a: StructureAlgebra, x: dict) -> bool:
    """Whether 1, x, ..., x^(n-1) span A, that is K[x] = A."""
    times_x = stride_multiplier(a, x, 1)
    span = RowSpace(a.field)
    power = a.unit()
    for _ in range(a.dim):
        span.add(power)
        power = times_x(power)
    return span.rank == a.dim


class _Entry:
    """The last presentation's key, algebra, mode, generating point (found
    when first read) and staged run (module docstring)."""

    def __init__(self, key, algebra, mode):
        self.key, self.algebra, self.mode = key, algebra, mode
        self.run = None

    @cached_property
    def point(self):
        return _generating_point(self.algebra)


_last = None        # the last presentation's `_Entry`
_chain = None       # the last certified chain (`divides_check`)


def closure_from_presentation(pres: AlgebraPresentation, m: int,
                              exact: bool = False):
    """Compute a closure from a presentation; returns (ClosureResult,
    mode string).

    Over finite fields, and over the rationals with `exact`, the
    computation is exact, and the mode names the field or is "exact".  By
    default a rational input is built over Q once (Groebner basis and
    structure constants), reduced modulo one prime (`modular_prime`,
    `reduce_mod_prime`) and closed over GF(p); the mode is "mod <p>".

    In every mode, at 2 <= m <= n, a point x with K[x] = A
    (`_generating_point`) alone seeds the 2-closure, and that is the
    result at m = 2 ("points").  At m >= 3 the result is the tower's
    ("tower"): dimension n!/(n - m)!, with the closure and maps that x
    seeds built when first read (`_point_closure`).  Without such a point
    A takes the symbolic seed, and in the modular mode its dimension is an
    upper bound for the one over Q at 2 <= m <= n (`bound` "upper").

    The tower's dimensions are exact over Q as well.  Let S be the basis
    of A and O its Z_(p)-span (`reduce_mod_prime`), and lift x to a point
    y of O with the same residues.  The determinant of 1, y, ..., y^(n-1)
    in S lies in Z_(p), and mod p it is that of the powers of x, which is
    nonzero.  So Q[y] = A, A is monogenic over Q, and its m-closure has
    the same dimension n!/(n - m)!.

    A call resumes the last call's entry when it can (module docstring).
    """
    global _last
    try:
        modular = pres.field.kind == "rationals" and not exact
        key = (str(pres), exact,
               os.environ.get("CLOSURELAB_PRIMES") if modular else None)
        entry = _last
        if (entry is None or entry.key != key
                or entry.run is not None and m < len(entry.run.stages)):
            _last = None
            algebra = algebra_from_presentation(pres)
            mode = "exact" if pres.field.kind == "rationals" else str(pres.field)
            if modular:
                algebra = reduce_mod_prime(algebra, modular_prime(key[0]))
                mode = f"mod {algebra.field.p}"
            entry = _last = _Entry(key, algebra, mode)
        algebra, mode = entry.algebra, entry.mode
        n = algebra.dim
        if 2 <= m <= n:
            _map_budget(n, m)
            x = entry.point
            if x is not None:
                two = _point_closure(algebra, x, 2)
                if m == 2:
                    return two, mode
                return ClosureResult(
                    input_algebra=algebra, m=m, method="tower",
                    stored_closure=None, stored_maps=None,
                    stages=two.stages + tuple(Stage(math.perm(n, s), 0, 0.0)
                                              for s in range(3, m + 1)),
                    build=lambda: _point_closure(algebra, x, m)), mode
        result = m_closure(algebra, m)
    except BaseException:
        _last = None
        raise
    if modular and 2 <= m <= n:
        result.bound = "upper"
    return result, mode


def _point_closure(a: StructureAlgebra, x: dict, m: int):
    """The m-closure seeded by a point x with K[x] = A alone, which must
    have the tower's dimension n!/(n - m)! (module docstring)."""
    built = _closure(a, m, "points", partial(_point_seed, points=[x]))
    if built.dim != math.perm(a.dim, m):
        raise CertificateFailure(
            f"a generating point gives dimension {built.dim}, "
            f"not {math.perm(a.dim, m)}")
    return built
