"""Finite-dimensional commutative algebras given by structure constants.

An algebra is a basis e_0, ..., e_{n-1} with e_0 = 1 and sparse products
e_i e_j = sum_k c_ijk e_k.  An element is a sparse dict {basis index:
nonzero scalar}, in the library and at its interface alike.

The module also houses the exact linear algebra: a canonical row space over
any of the supported fields, each row reduced against the earlier rows when
it is inserted (pivot = largest column index, so the lexicographically
smallest basis labels survive into quotients), and the division-free
Berkowitz characteristic polynomial.
"""

from __future__ import annotations

import itertools
import os
from heapq import heapify, heappop, heappush

from .arith import Field, PrimeField
from .errors import FieldMismatch
from .groebner import buchberger, normal_form, standard_monomials
from .multipoly import AlgebraPresentation, PolyRing, mono_mul, mono_str

# ---------------------------------------------------------------------------
# sparse vectors


def vec_add_into(field, target, vec, c=None):
    """target += c*vec, in place; c is nonzero, and 1 when None."""
    add = field.add
    mul = field.mul
    for k, v in vec.items():
        w = v if c is None else mul(c, v)
        if k in target:
            s = add(target[k], w)
            if s:
                target[k] = s
            else:
                del target[k]
        else:
            target[k] = w
    return target


# ---------------------------------------------------------------------------
# span kernels: the inner loops of reduction and of the one sparse operator
# (multiplication by an element, projection onto a quotient), one class per
# field kind, chosen when a row space or an operator is built.  An
# operator's column entries are offsets from the input index.  The generic
# kernel calls the field's methods and is the oracle for the others.


class GenericKernel:
    """Scalar arithmetic through the Field methods; any field."""

    @staticmethod
    def reduce(rows, field, vec):
        """Fully reduced representative of vec modulo the stored rows
        {pivot: row with pivot coefficient 1}."""
        sub = field.sub
        mul = field.mul
        out = {k: v for k, v in vec.items() if v}
        cand = [-c for c in out if c in rows]
        heapify(cand)
        while cand:
            c = -heappop(cand)
            if c not in out:
                continue
            coef = out.pop(c)
            for c2, v2 in rows[c].items():
                if c2 == c:
                    continue
                w = mul(coef, v2)
                if c2 in out:
                    s = sub(out[c2], w)
                    if s:
                        out[c2] = s
                    else:
                        del out[c2]
                        continue
                else:
                    out[c2] = field.neg(w)
                if c2 in rows:
                    heappush(cand, -c2)
        return out

    @staticmethod
    def scale(field, row, c):
        mul = field.mul
        return {k: mul(c, v) for k, v in row.items()}

    @staticmethod
    def operator(field, cols, stride, size):
        """`apply(w, out=None)` over lazily filled columns: a term c*e_col
        of w, c nonzero, adds c times column col // stride % size, a
        sequence of (offset, nonzero scalar), at col + offset.  It adds
        into `out` when given, and returns it."""
        mul = field.mul
        add = field.add

        def apply(w, out=None):
            if out is None:
                out = {}
            for col, c in w.items():
                if not c:
                    continue
                for offset, pc in cols[col // stride % size]:
                    idx = col + offset
                    v = mul(c, pc)
                    if idx in out:
                        s = add(out[idx], v)
                        if s:
                            out[idx] = s
                        else:
                            del out[idx]
                    else:
                        out[idx] = v
            return out

        return apply


class PrimeKernel:
    """GF(p) with the reduction mod p written inline.  A product of two
    nonzero residues is nonzero, so a new entry needs no zero test."""

    @staticmethod
    def reduce(rows, field, vec):
        p = field.p
        out = {k: v for k, v in vec.items() if v}
        cand = [-c for c in out if c in rows]
        heapify(cand)
        while cand:
            c = -heappop(cand)
            if c not in out:
                continue
            coef = out.pop(c)
            for c2, v2 in rows[c].items():
                if c2 == c:
                    continue
                if c2 in out:
                    s = (out[c2] - coef * v2) % p
                    if s:
                        out[c2] = s
                    else:
                        del out[c2]
                        continue
                else:
                    out[c2] = -coef * v2 % p
                if c2 in rows:
                    heappush(cand, -c2)
        return out

    @staticmethod
    def scale(field, row, c):
        p = field.p
        return {k: c * v % p for k, v in row.items()}

    @staticmethod
    def operator(field, cols, stride, size):
        p = field.p

        def apply(w, out=None):
            if out is None:
                out = {}
            for col, c in w.items():
                if not c:
                    continue
                for offset, pc in cols[col // stride % size]:
                    idx = col + offset
                    if idx in out:
                        s = (out[idx] + c * pc) % p
                        if s:
                            out[idx] = s
                        else:
                            del out[idx]
                    else:
                        out[idx] = c * pc % p
            return out

        return apply


def kernel_for(field: Field):
    """The span kernel for a field's kind."""
    return PrimeKernel if isinstance(field, PrimeField) else GenericKernel


# ---------------------------------------------------------------------------
# canonical row space (pivot = largest column; each row reduced against
# the earlier rows at insertion, never back-reduced)


class RowSpace:
    """Exact row space accumulator with canonical pivots.

    The pivot of a row is its largest column index, so the set of pivot
    columns (and hence any quotient basis chosen as the complement) depends
    only on the span, never on insertion order.  Each row is reduced
    against the rows stored before it and normalized to pivot coefficient 1
    when it is inserted; later rows do not reduce it further, so the stored
    rows are echelon but not reduced echelon.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows = {}          # pivot column -> sparse row
        self.kernel = kernel_for(field)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Fully reduced representative of vec modulo the row space."""
        return self.kernel.reduce(self.rows, self.field, vec)

    def add(self, vec: dict):
        """Reduce and insert with pivot coefficient 1; returns the new pivot
        or None if dependent."""
        row = self.reduce(vec)
        if not row:
            return None
        pivot = max(row)
        lead = row[pivot]
        if lead != self.field.one:
            row = self.kernel.scale(self.field, row, self.field.inv(lead))
        self.rows[pivot] = row
        return pivot

    def close_under(self, seeds, multipliers, zero_pairs=()):
        """Grow the span until it is stable under every multiplier map.

        `multipliers` are commuting linear callables dict -> dict, such as
        multiplication by generators.  The final span is the smallest
        multiplier-closed subspace containing the seeds, for any order of
        the multipliers; the order sets only which rows are stored and how
        many entries they have.  It is built in signature order (Faugere's
        F5; Eder-Faugere, JSC 2017):

        * The signature (mu, k) names the monomial M^mu s_k: seed k times
          the multipliers indexed by the nondecreasing tuple mu.  Candidates
          run degree by degree, and within a degree in sorted (mu, k) order.
          The order is compatible with multiplication: sigma < tau implies
          j sigma < j tau, since within a degree it is the reverse of lex
          order on exponent vectors.
        * The candidate of (mu, k) is multiplier mu[-1] applied to the
          stored row of (mu[:-1], k), so a row is extended only by the
          multipliers j >= mu[-1] and each signature is computed once.  A
          stored row is its monomial (times a unit) plus monomials of
          smaller signature, and by compatibility so is the candidate.
        * Every stored row has a smaller signature than the candidate being
          reduced, and the stored rows span every monomial of smaller
          signature.  So a candidate reduces to zero exactly when its
          monomial lies in the span of smaller ones.
        * A product is computed only if every one-step divisor of its
          signature (one factor removed) was inserted.  A divisor that was
          not inserted lies in the span of smaller monomials, and by
          compatibility so does its product with the missing factor.
          So the candidates of (mu, k) are j >= mu[-1] in the ends of
          every drop of mu, where the ends of (d, k) are the last entries
          j of the inserted (d + (j,), k).
        * `zero_pairs` holds pairs (i, j), i <= j, of multipliers whose
          product is zero.  The monomial (i, j) of every seed is then zero
          and lies in the span of smaller ones, so its candidate would
          reduce to zero: it is skipped, and by the rule above so is every
          multiple of it.
        """
        level = {}          # signatures inserted at this degree -> stored row
        for k, vec in enumerate(seeds):
            pivot = self.add(vec)
            if pivot is not None:
                level[(), k] = self.rows[pivot]
        candidates = [((j,), k) for _, k in level
                      for j in range(len(multipliers))]
        while candidates:
            candidates.sort()
            inserted, ends = {}, {}
            for mu, k in candidates:
                vec = multipliers[mu[-1]](level[mu[:-1], k])
                pivot = self.add(vec) if vec else None
                if pivot is not None:
                    inserted[mu, k] = self.rows[pivot]
                    ends.setdefault((mu[:-1], k), set()).add(mu[-1])
            level, candidates = inserted, []
            for mu, k in level:
                # mu + (j,) minus a copy of mu[i] is mu[:i] + mu[i+1:] + (j,),
                # the same for every copy of a value; minus a copy of mu[-1]
                # it is mu, and the ends of mu[:-1] hold mu[-1]
                last = mu[-1]
                js = ends[mu[:-1], k]
                for i in range(mu.index(last)):
                    if i == 0 or mu[i] != mu[i - 1]:
                        js = js.intersection(
                            ends.get((mu[:i] + mu[i + 1:], k), ()))
                candidates += [(mu + (j,), k) for j in js
                               if j >= last and (last, j) not in zero_pairs]
        return self.rank


# ---------------------------------------------------------------------------
# Berkowitz characteristic polynomial


class PolyOps:
    """Ring-operation adapter for MultiPoly entries."""

    def __init__(self, ring: PolyRing):
        self.add = lambda a, b: a + b
        self.sub = lambda a, b: a - b
        self.mul = lambda a, b: a * b
        self.neg = lambda a: -a
        self.zero = ring.zero()
        self.one = ring.one()


def berkowitz_charpoly(matrix, ops):
    """Characteristic polynomial det(Z*I - M) of a square matrix over any
    commutative ring, by the division-free Berkowitz scheme.  `ops` gives
    the ring's add/sub/mul/neg/zero/one: a Field, or PolyOps for MultiPoly
    entries.

    Returns coefficients in ascending Z order; the leading entry is 1.
    """
    n = len(matrix)
    poly = [ops.one]  # descending coefficients, 0x0 block
    for r in range(1, n + 1):
        d = matrix[r - 1][r - 1]
        row = matrix[r - 1][: r - 1]
        col = [matrix[i][r - 1] for i in range(r - 1)]
        # toeplitz column entries: 1, -d, -R C, -R A C, -R A^2 C, ...
        entries = [ops.one, ops.neg(d)]
        w = list(row)
        for _ in range(r - 2):
            entries.append(ops.neg(_dot(ops, w, col)))
            w = [  # w <- w A, over the leading (r-1)x(r-1) block
                _dot(ops, w, [matrix[i][j] for i in range(r - 1)])
                for j in range(r - 1)
            ]
        if r >= 2:
            entries.append(ops.neg(_dot(ops, w, col)))
        new_poly = [ops.zero] * (r + 1)
        for j, pj in enumerate(poly):
            for i in range(len(entries)):
                if i + j <= r:
                    new_poly[i + j] = ops.add(new_poly[i + j],
                                              ops.mul(entries[i], pj))
        poly = new_poly
    return list(reversed(poly))


def _dot(ops, u, v):
    s = ops.zero
    for a, b in zip(u, v):
        s = ops.add(s, ops.mul(a, b))
    return s


# ---------------------------------------------------------------------------
# algebras


class StructureAlgebra:
    """Base class; only `TableAlgebra` has products (`basis_product`), and
    the maps into a pair or a quotient multiply in it (`AlgebraMap`)."""

    field: Field
    dim: int
    labels: list

    # -- generic derived operations

    def unit(self) -> dict:
        return {0: self.field.one} if self.dim else {}

    def generator_elements(self):
        """Ring generators as (name, sparse vector); defaults to the whole
        non-unit basis."""
        return [(self.label_str(i), {i: self.field.one})
                for i in range(1, self.dim)]

    def label(self, i: int):
        return self.labels[i]

    def label_str(self, i: int) -> str:
        return _label_to_str(self.label(i))

    def format_vec(self, vec: dict) -> str:
        """`c*label + ...` in basis order, or `0`."""
        fmt = self.field.format_scalar
        return " + ".join(f"{fmt(c)}*{self.label_str(k)}"
                          for k, c in sorted(vec.items())) or "0"

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, field={self.field})"


def _label_to_str(label):
    if isinstance(label, tuple):
        return "(" + ",".join(_label_to_str(x) for x in label) + ")"
    return str(label)


class _Columns(dict):
    """Lazy column cache of an operator: column a is fill(a), a tuple of
    (offset from the input column, nonzero scalar), computed on first
    lookup and then kept."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, a):
        out = self[a] = self.fill(a)
        return out


def digit_operator(field: Field, column, stride: int, size: int):
    """The span kernel's operator that acts on one digit of a tensor basis.

    A basis index decomposes as base + a*stride with a = index // stride %
    size the digit; the operator replaces e_a by column(a), a sparse dict
    {k: nonzero c} over the digit's basis, so column a of the kernel's
    operator lists ((k - a)*stride, c): offsets from the input index.
    column(a) is called the first time digit a is met, and equal entries
    of the columns are one tuple.

    The operator is `apply(w, out=None)`: it adds the product into `out`
    when given, and returns it.
    """
    entries = {}

    def fill(a):
        return tuple([entries.setdefault(e, e) for e in
                      [((k - a) * stride, c) for k, c in column(a).items()]])

    return kernel_for(field).operator(field, _Columns(fill), stride, size)


def stride_multiplier(factor: StructureAlgebra, vec: dict, stride: int):
    """Multiplication by a factor element on one digit of a tensor basis
    (`digit_operator`), from the factor's products: column a is vec*e_a.
    The right factor of a pair is the digit of stride 1, the left one the
    digit of stride right.dim; on the factor itself, stride 1 is plain
    multiplication by vec.  Zero coefficients of vec are dropped, so every
    column entry is nonzero.
    """
    field = factor.field
    terms = [(k, c) for k, c in vec.items() if c]

    def column(a):
        col = {}
        for i, c in terms:
            vec_add_into(field, col, factor.basis_product(i, a), c)
        return col

    return digit_operator(field, column, stride, factor.dim)


class TableAlgebra(StructureAlgebra):
    """Algebra with an explicit sparse structure-constant table."""

    def __init__(self, field, labels, table, generators=None, check=True):
        """`table` maps (i, j) with i <= j to sparse product dicts; pairs
        with zero product may be omitted."""
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self._table = {}
        one = field.one
        for (i, j), vec in table.items():
            key = (i, j) if i <= j else (j, i)
            clean = {k: v for k, v in vec.items() if v}
            if key[0] == 0:
                # products with the identity are structural, never stored
                if clean != {key[1]: one}:
                    raise ValueError("basis element 0 is not an identity")
                continue
            if clean:
                self._table[key] = clean
        self._generators = generators
        if check:
            self._check_axioms()

    def basis_product(self, i, j):
        if i == 0:
            return {j: self.field.one}
        if j == 0:
            return {i: self.field.one}
        key = (i, j) if i <= j else (j, i)
        return self._table.get(key, {})

    def mult_vec(self, u: dict, v: dict) -> dict:
        """Product of two sparse elements."""
        out = {}
        field = self.field
        mul = field.mul
        for i, a in u.items():
            for j, b in v.items():
                vec_add_into(field, out, self.basis_product(i, j), mul(a, b))
        return out

    def generator_elements(self):
        if self._generators is not None:
            return self._generators
        return super().generator_elements()

    def _check_axioms(self):
        one = self.field.one
        n = self.dim
        # by commutativity the three bracketings (e_i e_j) e_k, (e_i e_k) e_j
        # and (e_j e_k) e_i cover every product of e_i, e_j, e_k
        for i, j, k in itertools.combinations_with_replacement(range(n), 3):
            left = self.mult_vec(self.basis_product(i, j), {k: one})
            middle = self.mult_vec(self.basis_product(i, k), {j: one})
            right = self.mult_vec({i: one}, self.basis_product(j, k))
            if not left == middle == right:
                raise ValueError(f"associativity fails at basis triple {(i, j, k)}")


class TensorPairAlgebra(StructureAlgebra):
    """Tensor product of two algebras, basis indexed by (left, right) pairs.

    Labels flatten the left label with the right one, so iterated pairs over
    the same right factor carry tuple labels of growing length.
    """

    def __init__(self, left: StructureAlgebra, right: StructureAlgebra):
        if left.field != right.field:
            raise FieldMismatch("tensor factors over different fields")
        self.left = left
        self.right = right
        self.field = left.field
        self.n = right.dim
        self.dim = left.dim * right.dim

    def label(self, index: int):
        u, i = divmod(index, self.n)
        llabel = self.left.label(u)
        if not isinstance(llabel, tuple):
            llabel = (llabel,)
        return llabel + (self.right.label(i),)

    def embed_left(self, vec: dict) -> dict:
        return {u * self.n: c for u, c in vec.items()}


class QuotientAlgebra(StructureAlgebra):
    """Quotient of a parent algebra by a multiplier-closed row space.

    Reduction modulo the span is linear, so `project` is the digit
    operator (stride 1) whose column c is the normal form of the parent
    column c in quotient indices.  The normal form of a column is reduced
    once, the first time the column is projected, and kept for the
    quotient's life: lifted multiplier columns, map images and certificate
    columns meet the same columns again and again.  It has no products:
    the maps into it multiply (`LiftedMap`).
    """

    def __init__(self, parent: StructureAlgebra, span: RowSpace):
        self.parent = parent
        self.span = span
        self.field = parent.field
        self.basis_cols = [c for c in range(parent.dim) if c not in span.rows]
        self.dim = len(self.basis_cols)
        self.col_to_index = {c: i for i, c in enumerate(self.basis_cols)}
        # a closure over the span, not a method of the quotient: no cycle
        col_to_index, one = self.col_to_index, self.field.one

        def column(c):
            return {col_to_index[k]: w for k, w in span.reduce({c: one}).items()}

        self._project = digit_operator(self.field, column, 1, parent.dim)

    @property
    def labels(self):
        return [self.parent.label(c) for c in self.basis_cols]

    def label(self, i: int):
        return self.parent.label(self.basis_cols[i])

    def label_str(self, i):
        return self.parent.label_str(self.basis_cols[i])

    def project(self, parent_vec: dict) -> dict:
        """Canonical image of a parent element in quotient coordinates: the
        combination of the normal forms of its columns."""
        if not self.dim:
            return {}
        return self._project(parent_vec)


class AlgebraMap:
    """Linear map between algebras, given by images of basis elements.

    `operator(x, stride)`, memoised, multiplies by the image of x on the
    target's digit of `stride` in a tensor basis: here from the target's
    products, by a `LiftedMap` from the map it came from, and by the trace
    map (`closure.reconstructed_last_map`) from the other maps."""

    def __init__(self, source: StructureAlgebra, target: StructureAlgebra,
                 rows):
        self.source = source
        self.target = target
        self.rows = rows      # list over source basis of sparse target dicts
        self._operators = {}  # (x's nonzero terms, stride) -> operator

    def operator(self, x: dict, stride: int):
        """Multiplication by the image of x on the target's digit of `stride`."""
        key = (tuple(sorted((k, c) for k, c in x.items() if c)), stride)
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = self._multiplier(x, stride)
        return op

    def _multiplier(self, x, stride):
        return stride_multiplier(self.target, self.apply_dict(x), stride)

    def apply_dict(self, vec: dict) -> dict:
        out = {}
        for i, c in vec.items():
            vec_add_into(self.target.field, out, self.rows[i], c)
        return out

    def is_unital(self) -> bool:
        return self.apply_dict(self.source.unit()) == self.target.unit()

    def is_ring_morphism(self) -> bool:
        """Unital, and f(g) f(e_j) = f(g e_j) for every generator g and
        basis element e_j, multiplying by f(g) with `operator` (at e_j = 1
        that compares it with the row f(g)).  That suffices: the a with
        f(ax) = f(a) f(x) for all x form a subspace that holds 1 and the
        generators and is closed under products."""
        source, one = self.source, self.source.field.one
        return self.is_unital() and all(
            self.operator(g, 1)(row) == self.apply_dict(source.mult_vec(g, {j: one}))
            for _, g in source.generator_elements()
            for j, row in enumerate(self.rows))


class LiftedMap(AlgebraMap):
    """x -> the class of parent(x) on the digit of `stride`, into a
    quotient of a tensor basis.  The span is an ideal, so e_a times that
    class is the projection of parent's operator applied to e_a's parent
    column: lift, multiply, project, as in FGLM (Faugere-Gianni-Lazard-Mora,
    JSC 1993)."""

    def __init__(self, parent: AlgebraMap, quot: QuotientAlgebra, stride: int):
        super().__init__(parent.source, quot,
                         [quot.project({k * stride: c for k, c in row.items()})
                          for row in parent.rows])
        self.parent, self.stride = parent, stride

    def _multiplier(self, x, stride):
        quot, times = self.target, self.parent.operator(x, self.stride)
        cols, one = quot.basis_cols, quot.field.one
        return digit_operator(quot.field, lambda a: quot.project(times({cols[a]: one})),
                              stride, quot.dim)


# ---------------------------------------------------------------------------
# named operations


def algebra_from_presentation(pres: AlgebraPresentation) -> TableAlgebra:
    """Structure constants of a zero-dimensional presentation: the basis is
    the list of standard monomials (1 first), products are reduced by the
    Groebner normal form."""
    gb = buchberger(pres)
    ring = gb.ring
    return monomial_algebra(
        ring, standard_monomials(gb),
        lambda mono: normal_form(ring.monomial(mono), gb).terms)


def monomial_algebra(ring: PolyRing, basis, normal_form) -> TableAlgebra:
    """The algebra on a basis of monomials of `ring` (1 first), where
    `normal_form` sends any monomial to its class {basis monomial: c}: the
    product table, the monomial labels and the ring variables as
    generators."""
    index = {m: i for i, m in enumerate(basis)}

    def coords(mono):
        return {index[m]: c for m, c in normal_form(mono).items()}

    n = len(basis)
    table = {(i, j): coords(mono_mul(basis[i], basis[j]))
             for i in range(n) for j in range(i, n)}
    generators = [(name, coords(tuple(int(k == v) for k in range(ring.nvars))))
                  for v, name in enumerate(ring.var_names)]
    labels = [mono_str(ring.var_names, m) or "1" for m in basis]
    return TableAlgebra(ring.field, labels, table, generators=generators)


def algebra_product(a: StructureAlgebra, b: StructureAlgebra):
    """Direct product with componentwise multiplication.  The basis is
    (1,1), then the non-unit basis of A in the first slot, then the full
    basis of B in the second slot.
    """
    if a.field != b.field:
        raise FieldMismatch("product factors over different fields")
    field = a.field
    na, nb = a.dim, b.dim

    # internal direct-sum coordinates: 0..na-1 from A, na..na+nb-1 from B
    def from_sum(acoords: dict, bcoords: dict) -> dict:
        """Convert direct-sum coordinates to product-basis coordinates."""
        out = {}
        a0 = acoords.get(0, field.zero)
        if a0:
            out[0] = a0
        for i, c in acoords.items():
            if i:
                out[i] = c
        b0 = field.sub(bcoords.get(0, field.zero), a0)
        if b0:
            out[na] = b0
        for j, c in bcoords.items():
            if j:
                out[na + j] = c
        return out

    def parts(k: int):
        """Direct-sum coordinates of product basis element k."""
        if k == 0:
            return {0: field.one}, {0: field.one}
        if k < na:
            return {k: field.one}, {}
        return {}, {k - na: field.one}

    table = {}
    dim = na + nb
    for i in range(dim):
        for j in range(i, dim):
            ai, bi = parts(i)
            aj, bj = parts(j)
            vec = from_sum(a.mult_vec(ai, aj), b.mult_vec(bi, bj))
            if vec:
                table[(i, j)] = vec
    labels = [(0, 0)] + [(1, i) for i in range(1, na)] + \
        [(2, j) for j in range(nb)]
    return TableAlgebra(field, labels, table)


DEFAULT_POWER_BUDGET = 20_000


def power_budget() -> int:
    """Cap on the width of any staged product, from CLOSURELAB_BUDGET when
    set."""
    raw = os.environ.get("CLOSURELAB_BUDGET")
    return int(raw) if raw else DEFAULT_POWER_BUDGET


def mult_matrix(a: StructureAlgebra, vec: dict):
    """Dense matrix of multiplication by vec; column j holds vec*e_j."""
    times = stride_multiplier(a, vec, 1)
    one = a.field.one
    zero = a.field.zero
    out = [[zero] * a.dim for _ in range(a.dim)]
    for j in range(a.dim):
        for i, v in times({j: one}).items():
            out[i][j] = v
    return out


def char_poly(a: StructureAlgebra, vec: dict) -> list:
    """det(Z*I - M_vec) via Berkowitz, in ascending order with leading 1;
    division free, so it works over any supported field including small
    characteristic."""
    return berkowitz_charpoly(mult_matrix(a, vec), a.field)

