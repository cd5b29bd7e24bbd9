"""Flat tensor-power construction of closures: the independent oracle.

The library builds a closure one slot at a time.  This module materializes
the whole m-fold tensor power instead, collects every slot's relations
inside it and quotients once, so agreement between the two checks the
staging.  Three relation schedules are provided: the general synthetic
division, the local shortcut (complete homogeneous sums), and the naive
schedule, which keeps its own numeric Horner over the characteristic
polynomial of each element of A rather than evaluating a generic remainder.

`tower_algebra` is the oracle for monogenic towers: it builds K[x]/(f)'s
splitting tower from the relations `monogenic_tower` prints, with its own
Groebner basis, and the maps x -> x_i.

`basis_product` and `mult_vec` multiply in any pair or quotient the library
builds, down its chain of pairs and quotients, and `is_ring_morphism_pairwise`
checks a map on every pair of basis elements.  The library multiplies in a
closure only by map images (`AlgebraMap.operator`) and checks maps on
generators; these are the oracle for both.

`determinant_expansion` is the oracle for Berkowitz: a cofactor expansion
that shares nothing with it.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import partial

from closurelab.arith import QQ
from closurelab.closure import (_lift_scalar_coeffs, _rows_of,
                                _synthetic_divide, _xp_add_into,
                                generic_char_poly, monogenic_algebra,
                                monogenic_tower)
from closurelab.errors import BudgetExceeded
from closurelab.finalg import (AlgebraMap, LiftedMap, QuotientAlgebra,
                               RowSpace, StructureAlgebra, TableAlgebra,
                               TensorPairAlgebra, _label_to_str,
                               algebra_from_presentation, char_poly,
                               digit_operator, power_budget, stride_multiplier,
                               vec_add_into)
from closurelab.multipoly import AlgebraPresentation, PolyRing, parse_poly


class TensorPowerAlgebra(StructureAlgebra):
    """m-fold tensor power of a factor algebra, basis indexed by m-tuples.

    Structure constants are computed slotwise on demand; only pairs actually
    touched are cached.
    """

    def __init__(self, factor: StructureAlgebra, m: int):
        self.factor = factor
        self.m = m
        self.field = factor.field
        n = factor.dim
        self.n = n
        self.dim = n ** m
        self.strides = [n ** (m - 1 - s) for s in range(m)]
        self._cache = {}

    @property
    def labels(self):
        return [self.decode(i) for i in range(self.dim)]

    def label(self, i: int):
        return self.decode(i)

    def decode(self, index: int):
        return tuple(index // stride % self.n for stride in self.strides)

    def label_str(self, i):
        tup = self.decode(i)
        return "(" + ",".join(_label_to_str(self.factor.labels[t]) for t in tup) + ")"

    def basis_product(self, i, j):
        key = (i, j) if i <= j else (j, i)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ti, tj = self.decode(key[0]), self.decode(key[1])
        mul = self.field.mul
        partial = [(0, self.field.one)]
        for s in range(self.m):
            slot = self.factor.basis_product(ti[s], tj[s])
            if not slot:
                partial = []
                break
            stride = self.strides[s]
            partial = [(base + k * stride, mul(c, v))
                       for base, c in partial for k, v in slot.items()]
        out = {}
        for idx, c in partial:
            if c:
                out[idx] = self.field.add(out[idx], c) if idx in out else c
        out = {k: v for k, v in out.items() if v}
        self._cache[key] = out
        return out

    def embed(self, s: int, vec: dict) -> dict:
        """Image of a factor element under the slot-s embedding."""
        stride = self.strides[s]
        return {k * stride: v for k, v in vec.items()}

    def slot_multiplier(self, s: int, vec: dict):
        """Multiplier by the slot-s embedding of a factor element."""
        return stride_multiplier(self.factor, vec, self.strides[s])

    def generator_elements(self):
        return [(f"{name}[{s + 1}]", self.embed(s, vec))
                for s in range(self.m)
                for name, vec in self.factor.generator_elements()]

    def generator_multipliers(self):
        return [self.slot_multiplier(s, vec)
                for s in range(self.m)
                for _, vec in self.factor.generator_elements()]

    def embedding_map(self, s: int) -> AlgebraMap:
        rows = [self.embed(s, {i: self.field.one})
                for i in range(self.factor.dim)]
        return AlgebraMap(self.factor, self, rows)


def tensor_power(a: StructureAlgebra, m: int, budget: int | None = None):
    """m-fold tensor power with its slot embeddings epsilon_1..epsilon_m."""
    limit = budget if budget is not None else power_budget()
    if m < 0:
        raise ValueError("negative tensor power")
    if a.dim ** m > limit:
        raise BudgetExceeded(f"{a.dim}^{m} exceeds the budget {limit}")
    if m == 0:
        return TableAlgebra(a.field, ["1"], {}), []
    power = TensorPowerAlgebra(a, m)
    return power, [power.embedding_map(s) for s in range(m)]


# ---------------------------------------------------------------------------
# products in pairs and quotients


_QUOTIENT_PRODUCTS = weakref.WeakKeyDictionary()  # quotient -> {(i, j): e_i e_j}


def basis_product(algebra: StructureAlgebra, i: int, j: int) -> dict:
    """e_i e_j: in a pair, the factors' products digit by digit; in a
    quotient, the projection of the parent's product of the two basis
    columns, cached for the quotient's life, so callers must not change
    the dict; otherwise from the algebra's table."""
    if i > j:
        i, j = j, i
    if isinstance(algebra, TensorPairAlgebra):
        n = algebra.n
        (u1, r1), (u2, r2) = divmod(i, n), divmod(j, n)
        right = basis_product(algebra.right, r1, r2)
        mul = algebra.field.mul
        return {u * n + r: mul(cu, cr)
                for u, cu in basis_product(algebra.left, u1, u2).items()
                for r, cr in right.items()}
    if isinstance(algebra, QuotientAlgebra):
        products = _QUOTIENT_PRODUCTS.setdefault(algebra, {})
        if (i, j) not in products:
            cols = algebra.basis_cols
            products[i, j] = algebra.project(
                basis_product(algebra.parent, cols[i], cols[j]))
        return products[i, j]
    return algebra.basis_product(i, j)


def mult_vec(algebra: StructureAlgebra, u: dict, v: dict) -> dict:
    """The product of two sparse elements from `basis_product`."""
    field = algebra.field
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            vec_add_into(field, out, basis_product(algebra, i, j), field.mul(a, b))
    return out


def multiplier(algebra: StructureAlgebra, vec: dict, stride: int):
    """Multiplication by vec on the digit of `stride` of a tensor basis over
    the algebra, from `basis_product`."""
    one = algebra.field.one
    return digit_operator(algebra.field, lambda a: mult_vec(algebra, vec, {a: one}),
                          stride, algebra.dim)


def is_ring_morphism_pairwise(mp: AlgebraMap) -> bool:
    """Unital, and f(e_i) f(e_j) = f(e_i e_j) for every pair of basis
    elements, each product from `basis_product`."""
    n = mp.source.dim
    return mp.is_unital() and all(
        mult_vec(mp.target, mp.rows[i], mp.rows[j])
        == mp.apply_dict(basis_product(mp.source, i, j))
        for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# cofactor determinant


def determinant_expansion(matrix, ops):
    """Cofactor expansion along the first row, over any `ops` with zero,
    one, add, sub and mul."""
    n = len(matrix)
    if n == 0:
        return ops.one
    if n == 1:
        return matrix[0][0]
    total = ops.zero
    for j in range(n):
        entry = matrix[0][j]
        minor = [[matrix[i][k] for k in range(n) if k != j]
                 for i in range(1, n)]
        term = ops.mul(entry, determinant_expansion(minor, ops))
        total = ops.add(total, term) if j % 2 == 0 else ops.sub(total, term)
    return total


# ---------------------------------------------------------------------------
# relation schedules inside the tensor power


def _xp_gamma_mult(mults, xp):
    """Multiply an X-polynomial by gamma = sum_i mults[i] * X_i, one
    operator per basis element, independent of the pipeline's generator
    tree.  Each operator adds its product into the coefficient it lands
    in."""
    out = {}
    for mono, vec in xp.items():
        for i, times in enumerate(mults):
            nm = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            acc = out.get(nm)
            if acc is None:
                acc = out[nm] = {}
            times(vec, acc)
    return {mono: vec for mono, vec in out.items() if vec}


def general_rows(a: StructureAlgebra, m: int, tensor: TensorPowerAlgebra):
    """For each slot s, the X-monomial coefficients of the remainder left
    after dividing the running quotient of P by (Z - gamma_s)."""
    one = a.field.one
    zc = _lift_scalar_coeffs(generic_char_poly(a).coeffs)
    rows = []
    for s in range(m):
        mults = [tensor.slot_multiplier(s, {i: one}) for i in range(a.dim)]
        zc, rem = _synthetic_divide(a.field, zc, partial(_xp_gamma_mult, mults))
        rows.extend(_rows_of(rem))
    return rows


def local_rows(a: StructureAlgebra, m: int, tensor: TensorPowerAlgebra):
    """For a local algebra with nilpotent maximal ideal: the slot-s remainder
    is the complete homogeneous sum of degree n-s+1 in gamma'_1..gamma'_s,
    where gamma' = gamma - X_1."""
    fieldh = a.field
    one = fieldh.one
    n = a.dim
    h = [{} for _ in range(n + 1)]
    h[0] = {(0,) * n: {0: one}}
    rows = []
    for s in range(m):
        mults = [None] + [tensor.slot_multiplier(s, {i: one})
                          for i in range(1, n)]

        def gamma_prime_mult(xp):
            out = {}
            for mono, vec in xp.items():
                for i in range(1, n):
                    mv = mults[i](vec)
                    if not mv:
                        continue
                    nm = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    if nm in out:
                        vec_add_into(fieldh, out[nm], mv)
                        if not out[nm]:
                            del out[nm]
                    else:
                        out[nm] = mv
            return out

        for k in range(1, n + 1):
            _xp_add_into(fieldh, h[k], gamma_prime_mult(h[k - 1]))
        rows.extend(_rows_of(h[n - s]))  # degree n - (s+1) + 1
    return rows


def naive_rows(a: StructureAlgebra, m: int, tensor: TensorPowerAlgebra):
    """Slot remainders of the numeric characteristic polynomial P_a for the
    coset representatives (0, t_2..t_n) of A modulo constants."""
    fieldh = a.field
    rows = []
    for tail in itertools.product(list(fieldh.elements()), repeat=a.dim - 1):
        vec = {i: c for i, c in enumerate(tail, start=1) if c}
        zc = [{0: c} if c else {} for c in char_poly(a, vec)]
        for s in range(m):
            mult = tensor.slot_multiplier(s, vec) if vec else None
            d = len(zc) - 1
            quot = [None] * d
            quot[d - 1] = zc[d]
            for k in range(d - 1, 0, -1):
                acc = dict(mult(quot[k])) if mult else {}
                vec_add_into(fieldh, acc, zc[k])
                quot[k - 1] = acc
            rem = dict(mult(quot[0])) if mult else {}
            vec_add_into(fieldh, rem, zc[0])
            rows.append(rem)
            zc = quot
    return rows


SCHEDULES = {"general": general_rows, "local-shortcut": local_rows,
             "naive": naive_rows}


def j_generators(a: StructureAlgebra, m: int, budget: int | None = None):
    """The tensor power and the general schedule's relations in it."""
    if m < 1:
        raise ValueError("m must be at least 1")
    tensor, _ = tensor_power(a, m, budget)
    return tensor, general_rows(a, m, tensor)


def is_local_nilpotent(a: StructureAlgebra) -> bool:
    """True when every non-unit basis element is nilpotent; the span of
    e_1..e_{n-1} is then the maximal ideal.  A nilpotent element of an
    algebra of dimension n has x^n = 0, so squaring k times with 2^k >= n
    decides it.  The zero algebra has no maximal ideal."""
    if not a.dim:
        return False
    for i in range(1, a.dim):
        power = {i: a.field.one}
        steps = 0
        while (1 << steps) < a.dim:
            power = a.mult_vec(power, power)
            steps += 1
        if power:
            return False
    return True


def local_generators(a: StructureAlgebra, m: int, budget: int | None = None):
    """The tensor power and relations in it generating the same ideal as
    `j_generators`, via the nilpotent shortcut."""
    if not (1 <= m <= a.dim):
        raise ValueError("need 1 <= m <= dim")
    if not is_local_nilpotent(a):
        raise ValueError("algebra is not local with nilpotent maximal ideal")
    tensor, _ = tensor_power(a, m, budget)
    return tensor, local_rows(a, m, tensor)


# ---------------------------------------------------------------------------
# the flat quotient


def breadth_first_close(span: RowSpace, seeds, multipliers):
    """Close `span` under the multipliers by multiplying every inserted row
    by every multiplier, in insertion order; returns the rank.  The
    reference for the signature-ordered `RowSpace.close_under`."""
    queue = [pivot for pivot in map(span.add, seeds) if pivot is not None]
    for pivot in queue:                 # grows while it is read
        base = span.rows[pivot]
        for mult in multipliers:
            new = span.add(mult(base))
            if new is not None:
                queue.append(new)
    return span.rank


def ideal_subspace_dim(a: StructureAlgebra, gens):
    """Dimension of the smallest multiplication-closed subspace of A
    containing the generators (sparse dicts), with the row space."""
    span = RowSpace(a.field)
    span.close_under(gens, [stride_multiplier(a, g, 1)
                            for _, g in a.generator_elements()])
    return span.rank, span


@dataclass
class FlatClosure:
    closure: QuotientAlgebra
    maps: list
    dim: int
    rank: int


def flat_closure(a: StructureAlgebra, m: int, method: str = "general",
                 budget: int | None = None) -> FlatClosure:
    """Quotient of the m-fold tensor power by every slot's relations."""
    tensor, embeddings = tensor_power(a, m, budget)
    rows = SCHEDULES[method](a, m, tensor)
    span = RowSpace(a.field)
    breadth_first_close(span, rows, tensor.generator_multipliers())
    quot = QuotientAlgebra(tensor, span)
    maps = [LiftedMap(emb, quot, 1) for emb in embeddings]
    return FlatClosure(closure=quot, maps=maps, dim=quot.dim, rank=span.rank)


# ---------------------------------------------------------------------------
# monogenic towers


def tower_algebra(f, m: int, fieldh=None):
    """(algebra, maps): the quotient of K[x1..xm] by the printed relations
    of `monogenic_tower(f, m, fieldh)`, over Q when fieldh is None, and the
    maps K[x]/(f) -> it sending x to x_i."""
    fh = QQ() if fieldh is None else fieldh
    names = tuple(f"x{i + 1}" for i in range(m))
    ring = PolyRing(fh, names)
    relations = tuple(parse_poly(text, ring)
                      for text in monogenic_tower(f, m, fieldh).relations)
    algebra = algebra_from_presentation(AlgebraPresentation(fh, names, relations))
    source = monogenic_algebra(fh, f)
    maps = []
    for _, root in algebra.generator_elements():
        rows = [algebra.unit()]
        while len(rows) < source.dim:
            rows.append(algebra.mult_vec(rows[-1], root))
        maps.append(AlgebraMap(source, algebra, rows))
    return algebra, maps
