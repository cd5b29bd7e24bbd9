import copy
import hashlib
import random
from fractions import Fraction as Fr

import pytest

from closurelab.arith import GF, QQ
from closurelab.errors import BudgetExceeded, FieldMismatch
from closurelab.catalog import table1_entries
from closurelab.closure import (base_change_presentation,
                               closure_from_presentation, m_closure)
from closurelab.finalg import (AlgebraMap, GenericKernel, LiftedMap, PolyOps,
                               PrimeKernel, QuotientAlgebra, RowSpace,
                               TableAlgebra, TensorPairAlgebra, _Columns,
                               algebra_from_presentation, algebra_product,
                               berkowitz_charpoly, char_poly, digit_operator,
                               kernel_for, mult_matrix, stride_multiplier,
                               vec_add_into)
from closurelab.multipoly import PolyRing, parse_presentation
from flat_oracle import (breadth_first_close, determinant_expansion,
                         ideal_subspace_dim, is_local_nilpotent,
                         is_ring_morphism_pairwise, multiplier, mult_vec,
                         tensor_power)


def alg(text):
    return algebra_from_presentation(parse_presentation(text))


def sparse(coords):
    return {i: c for i, c in enumerate(coords) if c}


# -- algebra_from_presentation


def test_truncated_polynomials():
    a = alg("Q[x]/(x^3)")
    assert a.dim == 3 and a.labels == ["1", "x", "x^2"]
    assert a.basis_product(1, 1) == {2: Fr(1)}
    assert a.basis_product(1, 2) == {}


def test_square_zero_plane():
    a = alg("Q[x,y]/((x,y)^2)")
    assert a.dim == 3
    for i in (1, 2):
        for j in (1, 2):
            assert a.basis_product(i, j) == {}


def test_relation_with_signs():
    a = alg("Q[x,y]/(xy, x^3 + y^3)")
    assert a.dim == 6
    # x^3 = -y^3 in the quotient: cube the generator x
    idx = {lbl: i for i, lbl in enumerate(a.labels)}
    x = {idx["x"]: Fr(1)}
    cube = a.mult_vec(a.mult_vec(x, x), x)
    assert cube == {idx["y^3"]: Fr(-1)}


def _random_vec(rng, algebra):
    field = algebra.field
    vec = {}
    for i in range(algebra.dim):
        c = field.from_int(rng.randint(-3, 3))
        if c and rng.random() < 0.6:
            vec[i] = c
    return vec


def test_stride_multiplier_matches_product():
    rng = random.Random(20261018)
    a = alg("Q[x,y]/(x^2, y^2)")
    pair = TensorPairAlgebra(alg("Q[x]/(x^3)"), a)
    result = m_closure(a, 2)
    closure = result.closure
    assert isinstance(closure, QuotientAlgebra)
    algebras = [e.algebra() for e in table1_entries()]
    algebras += [alg("F7[x,y]/(x^3 - y, y^2)")]
    for algebra in algebras:
        for _ in range(3):
            v = _random_vec(rng, algebra)
            times_v = stride_multiplier(algebra, v, 1)
            for _ in range(3):          # later calls reuse the cached columns
                w = _random_vec(rng, algebra)
                assert times_v(w) == algebra.mult_vec(v, w) == mult_vec(algebra, v, w)
    # the left digit of a pair has stride pair.n, the right one stride 1
    for _ in range(5):
        v = _random_vec(rng, pair.left)
        u = _random_vec(rng, pair.right)
        w = _random_vec(rng, pair)
        assert (stride_multiplier(pair.left, v, pair.n)(w)
                == mult_vec(pair, pair.embed_left(v), w))
        # the right digit is the low one: u sits in the pair as itself
        assert stride_multiplier(pair.right, u, 1)(w) == mult_vec(pair, u, w)
    # a closure multiplies by map images, through the maps' operators
    for mp in result.maps:
        for _ in range(3):
            v = _random_vec(rng, a)
            times_v = mp.operator(v, 1)
            for _ in range(3):
                w = _random_vec(rng, closure)
                assert times_v(w) == mult_vec(closure, mp.apply_dict(v), w)


def _column_entries(op):
    """The (offset, scalar) entries of an operator's filled columns."""
    cols = next(cell.cell_contents for cell in op.__closure__
                if isinstance(cell.cell_contents, _Columns))
    return [e for col in cols.values() for e in col]


@pytest.mark.parametrize("field", [GF(1073741789), QQ(), GF(2, 2)], ids=str)
def test_equal_column_entries_are_one_object(field):
    one = field.one
    three = field.from_int(3)
    a = algebra_from_presentation(
        base_change_presentation(parse_presentation("Q[x,y]/(x^2, y^3)"), field))
    pair = TensorPairAlgebra(a, a)
    # a scalar multiple: every column is the one entry (0, 3), made anew
    # by each column's product
    times_three = stride_multiplier(a, {0: three}, pair.n)
    span = RowSpace(field)
    span.close_under([{1: one, pair.n: field.neg(one)}],
                     [stride_multiplier(a, {1: one}, 1),
                      stride_multiplier(a, {1: one}, pair.n)])
    quot = QuotientAlgebra(pair, span)
    for c in range(pair.dim):
        times_three({c: one})
        quot.project({c: one})
    entries = _column_entries(times_three)
    assert len(entries) == a.dim and entries[0] == (0, three)
    assert all(e is entries[0] for e in entries)
    for op in (times_three, quot._project):
        entries = _column_entries(op)
        assert len({id(e) for e in entries}) == len(set(entries)) < len(entries)


def test_digit_operator_replaces_one_digit():
    # the digit of stride 3 and size 2: column a sends e_a to 2*e_(1 - a),
    # so the operator swaps that digit and doubles; each column is filled
    # once, on first use
    field = GF(7)
    filled = []

    def column(a):
        filled.append(a)
        return {1 - a: field.from_int(2)}

    swap = digit_operator(field, column, 3, 2)
    assert swap({0: 1, 4: 1, 7: 3, 11: 5}) == {3: 2, 1: 2, 10: 6, 8: 3}
    # it adds into `out`, where 5 + 2 cancels
    out = {0: 5, 2: 1}
    assert swap({3: 1}, out) is out and out == {2: 1}
    assert sorted(filled) == [0, 1]


# -- products


def _projections(prod, a, b):
    """The maps from A x B onto A and onto B, on the product's basis: the
    unit (1, 1), A's non-unit basis, then B's basis."""
    one, na = prod.field.one, a.dim
    onto_a = [{0: one}] + [{i: one} for i in range(1, na)] + [{}] * b.dim
    onto_b = [{0: one}] + [{}] * (na - 1) + [{j: one} for j in range(b.dim)]
    return AlgebraMap(prod, a, onto_a), AlgebraMap(prod, b, onto_b)


def test_algebra_product():
    a = alg("Q[x]/(x^2)")
    k = alg("Q[x]/(x)")
    prod = algebra_product(a, k)
    assert prod.dim == 3
    assert all(mp.is_ring_morphism() for mp in _projections(prod, a, k))
    kk = algebra_product(k, k)
    assert kk.dim == 2
    assert all(mp.is_ring_morphism() for mp in _projections(kk, k, k))
    # the two idempotents multiply to zero
    e1 = kk.mult_vec({0: Fr(1), 1: Fr(-1)}, {1: Fr(1)})
    assert e1 == {}
    with pytest.raises(FieldMismatch):
        algebra_product(a, alg("F2[x]/(x^2)"))


def test_char_poly_on_split_algebra():
    k = alg("Q[x]/(x)")
    kk = algebra_product(k, k)
    kkk = algebra_product(kk, k)
    # element (1,2,3): unit + (0,1,1)-part + ... build via direct-sum coords
    # basis: (1,1,1), (0,e0 of second), wait: use mult matrix route instead:
    # diag(1,2,3) element: 1*(1,1,1) + 1*(0,1,?) ... simpler: solve from maps
    # construct by linear combination: coords chosen so char poly is the target
    e = {0: Fr(1), 1: Fr(1), 2: Fr(2)}
    cp = char_poly(kkk, e)
    # whatever the basis bookkeeping, the char poly must split over Z with
    # integer roots summing to the trace
    assert cp[-1] == Fr(1) and len(cp) - 1 == 3
    total = -cp[2]
    assert total == sum(mult_matrix(kkk, e)[i][i] for i in range(3))


def test_char_poly_examples():
    a = alg("Q[x]/(x^3)")
    x = {1: Fr(1)}
    assert char_poly(a, x) == [Fr(0), Fr(0), Fr(0), Fr(1)]  # Z^3
    m = mult_matrix(a, a.unit())
    assert all(m[i][j] == (Fr(1) if i == j else Fr(0))
               for i in range(3) for j in range(3))
    # nilpotent shift matrix for multiplication by x
    mx = mult_matrix(a, x)
    assert mx[1][0] == Fr(1) and mx[2][1] == Fr(1) and mx[0][0] == Fr(0)
    # local algebra: char poly of r + nilpotent is (Z - r)^n
    b = alg("Q[x,y]/((x,y)^2)")
    e = {0: Fr(5), 1: Fr(3), 2: Fr(-2)}
    cp = char_poly(b, e)
    assert cp == [Fr(-125), Fr(75), Fr(-15), Fr(1)]


def test_cayley_hamilton():
    rng = random.Random(20260808)
    for text in ("Q[x]/(x^3)", "Q[x,y]/(x^2, y^2)", "Q[x,y]/(xy, x^3 + y^3)"):
        a = alg(text)
        for _ in range(10):
            e = sparse([Fr(rng.randint(-3, 3)) for _ in range(a.dim)])
            value = {}                  # P_e(e) by Horner's rule
            for c in reversed(char_poly(a, e)):
                value = vec_add_into(a.field, a.mult_vec(value, e),
                                     {0: c} if c else {})
            assert value == {}


def test_char_poly_shift_and_trace_laws():
    # (input, seed, trials, the points each shift is compared at)
    cases = [("Q[x,y]/(x^2, y^2)", 1, 25, lambda rng: (0, 1, -2, 3)),
             ("Q[x,y]/(xy, x^3+y^3)", 20260810, 20,
              lambda rng: [rng.randint(-6, 6) for _ in range(4)])]

    def value(coeffs, z):                       # Horner's rule
        acc = 0
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    # P(Z) = Z^n - trace Z^(n-1) + ... + (-1)^n norm
    for text, seed, trials, points in cases:
        a = alg(text)
        n = a.dim
        rng = random.Random(seed)
        for _ in range(trials):
            u = sparse([Fr(rng.randint(-4, 4)) for _ in range(n)])
            v = sparse([Fr(rng.randint(-4, 4)) for _ in range(n)])
            r = Fr(rng.randint(-4, 4))
            pu, pv = char_poly(a, u), char_poly(a, v)
            shifted = char_poly(a, vec_add_into(a.field, {0: r} if r else {}, u))
            for z in points(rng):
                assert value(shifted, z) == value(pu, z - r)
            u_plus_v = vec_add_into(a.field, dict(u), v)
            assert char_poly(a, u_plus_v)[n - 1] == pu[n - 1] + pv[n - 1]
            assert ((-1) ** n * char_poly(a, a.mult_vec(u, v))[0]
                    == pu[0] * pv[0])


def test_berkowitz_vs_cofactor_expansion():
    # 200 random matrices of size 1..4 over each field
    for p, seed in ((7, 99), (1009, 20260808)):
        rng = random.Random(seed)
        f = GF(p)
        ring = PolyRing(f, ("Z",))
        pops = PolyOps(ring)
        for _ in range(200):
            k = rng.randint(1, 4)
            mat = [[f.random_element(rng) for _ in range(k)] for _ in range(k)]
            via_b = berkowitz_charpoly(mat, f)
            zm = [[(ring.monomial((1,)) if i == j else ring.zero()) -
                   ring.const(mat[i][j]) for j in range(k)] for i in range(k)]
            det = determinant_expansion(zm, pops)
            assert via_b == [det.terms.get((e,), f.zero) for e in range(k + 1)]


# -- tensor powers


def test_tensor_power_dimensions():
    a = alg("Q[x,y]/((x,y)^2)")
    t, embeddings = tensor_power(a, 2)
    assert t.dim == 9 and len(embeddings) == 2
    t0, emb0 = tensor_power(a, 0)
    assert t0.dim == 1 and emb0 == []
    with pytest.raises(BudgetExceeded):
        tensor_power(alg("Q[x]/(x^6)"), 6)   # 6^6 exceeds the default budget


def test_tensor_embedding_products():
    a = alg("Q[x]/(x^2)")
    t, (e1, e2) = tensor_power(a, 2)
    u = e1.apply_dict({0: Fr(2), 1: Fr(3)})
    v = e2.apply_dict({0: Fr(5), 1: Fr(7)})
    prod = mult_vec(t, u, v)
    # coordinates must be the outer product a_i * b_j at tuple (i, j)
    assert prod == {0: Fr(10), 1: Fr(14), 2: Fr(15), 3: Fr(21)}
    assert e1.is_ring_morphism() and e2.is_ring_morphism()


def test_tensor_power_budget_and_big_dims():
    a = alg("Q[x,y]/(xy, x^3 + y^3)")
    t, _ = tensor_power(a, 5)
    assert t.dim == 7776


# -- ideal spans and quotients


def test_ideal_subspace_examples():
    a = alg("Q[x]/(x^3)")
    dim, _ = ideal_subspace_dim(a, [{1: Fr(1)}])
    assert dim == 2
    dim_unit, _ = ideal_subspace_dim(a, [a.unit()])
    assert dim_unit == 3
    dim_empty, _ = ideal_subspace_dim(a, [])
    assert dim_empty == 0


def test_ideal_span_order_and_duplicates():
    a = alg("Q[x,y]/(xy, x^3 + y^3)")
    idx = {lbl: i for i, lbl in enumerate(a.labels)}
    g1 = {idx["x"]: Fr(1)}
    g2 = {idx["y^2"]: Fr(2), idx["x"]: Fr(-1)}
    d1, _ = ideal_subspace_dim(a, [g1, g2])
    d2, _ = ideal_subspace_dim(a, [g2, g1])
    d3, _ = ideal_subspace_dim(a, [g1, g2, g1, {k: 3 * c for k, c in g2.items()}])
    assert d1 == d2 == d3


def test_quotient_examples():
    def quotient(a, gens):
        q = QuotientAlgebra(a, ideal_subspace_dim(a, gens)[1])
        identity = AlgebraMap(a, a, [{c: Fr(1)} for c in range(a.dim)])
        return q, LiftedMap(identity, q, 1)

    a = alg("Q[x]/(x^3)")
    q, proj = quotient(a, [{1: Fr(1)}])
    assert q.dim == 1
    assert proj.is_ring_morphism() and is_ring_morphism_pairwise(proj)
    assert proj.rows == [q.project({c: Fr(1)}) for c in range(a.dim)]
    qz, _ = quotient(a, [a.unit()])
    assert qz.dim == 0
    # projection then inclusion of the complement basis is the identity
    q2, proj2 = quotient(alg("Q[x,y]/(x^2, y^2)"), [{3: Fr(1)}])
    for i, col in enumerate(q2.basis_cols):
        assert proj2.rows[col] == {i: Fr(1)}


@pytest.mark.parametrize("field", [GF(1073741789), QQ(), GF(2, 2)],
                         ids=str)
def test_project_combines_cached_column_forms(field):
    rng = random.Random(20261019)
    a = algebra_from_presentation(
        base_change_presentation(parse_presentation("Q[x,y]/(x^2, y^3)"), field))
    pair = TensorPairAlgebra(a, a)
    right, left = _pair_generators(pair)
    seeds = _difference_seeds(rng, pair, left[0], right[0])
    mults = _pair_multipliers(pair, right, left)

    def closed(seeds):
        span = RowSpace(field)
        span.close_under(seeds, mults)
        return span

    proper = QuotientAlgebra(pair, closed(seeds))
    unit = QuotientAlgebra(pair, closed([pair.unit()]))
    assert 0 < proper.dim < pair.dim and unit.dim == 0
    for quot in (proper, unit):
        span = quot.span
        # multi-term vectors first, then every single column
        probes = [_random_row(rng, field, pair.dim, 0.4) for _ in range(8)]
        probes += [{c: field.one} for c in range(pair.dim)]
        expected = [{quot.col_to_index[c]: v for c, v in span.reduce(vec).items()}
                    for vec in probes]
        assert [quot.project(vec) for vec in probes] == expected
        # every column is cached now: a second pass reduces nothing
        span.reduce = None
        assert [quot.project(vec) for vec in probes] == expected


@pytest.mark.parametrize("field", [GF(1073741789), QQ(), GF(2, 2)],
                         ids=str)
def test_project_ignores_explicit_zero_coefficients(field):
    rng = random.Random(20261019)
    a = algebra_from_presentation(
        base_change_presentation(parse_presentation("Q[x,y]/(x^2, y^3)"), field))
    quot = m_closure(a, 2).closure
    assert isinstance(quot, QuotientAlgebra) and 0 < quot.dim < quot.parent.dim
    width = quot.parent.dim
    # a zero coefficient is skipped before its column is reduced
    span, reduce = quot.span, quot.span.reduce
    span.reduce = None
    assert [quot.project({c: field.zero}) for c in range(width)] == [{}] * width
    span.reduce = reduce
    for _ in range(8):
        vec = _random_row(rng, field, width, 0.4)
        padded = {c: vec.get(c, field.zero) for c in range(width)}
        image = quot.project(padded)
        assert image == quot.project(vec) and all(image.values())


def with_rows(mp, rows):
    """A copy of a map with other rows and the same operators: a lifted
    map's operators come from its parent, not from its rows."""
    bad = copy.copy(mp)
    bad.rows = rows
    return bad


@pytest.mark.parametrize("field", [GF(7), QQ(), GF(2, 2)], ids=str)
def test_map_check_rejects_a_perturbed_row_into_a_quotient(field):
    # every map at 2 <= m <= n; at m = n those of the canonical quotient
    cases = []
    for text in ("Q[x,y]/(x^2, y^2)", "Q[x,y]/(x^3, y^2, x^2*y)"):
        a = algebra_from_presentation(
            base_change_presentation(parse_presentation(text), field))
        cases += [(a, m) for m in range(2, a.dim + 1)]
    rejected = 0
    for a, m in cases:
        result = m_closure(a, m)
        quot = result.closure
        assert isinstance(quot, QuotientAlgebra) and len(result.maps) == m
        for mp in result.maps:
            assert mp.target is quot
            assert mp.is_ring_morphism() and is_ring_morphism_pairwise(mp)
            # adding 1 to the image of a non-unit basis element keeps the
            # map unital; f(g e_i) for a generator g with g e_i = e_j, and
            # e_i e_j for some i <= j, then break
            for j in range(1, a.dim):
                rows = list(mp.rows)
                rows[j] = vec_add_into(field, dict(rows[j]), quot.unit())
                bad = with_rows(mp, rows)
                assert bad.is_unital() and not bad.is_ring_morphism()
                assert not is_ring_morphism_pairwise(bad)
                rejected += 1
    assert rejected == sum(m * (a.dim - 1) for a, m in cases) == 83


def test_is_local_nilpotent():
    assert is_local_nilpotent(alg("Q[x,y]/((x,y)^2)"))
    assert is_local_nilpotent(alg("Q[x]/(x^6)"))
    # x^4 != 0, so deciding x takes three squarings (x^8)
    assert is_local_nilpotent(alg("Q[x]/(x^5)"))
    k = alg("Q[x]/(x)")
    kk = algebra_product(k, k)
    assert not is_local_nilpotent(kk)
    # e_1 = y is nilpotent, e_2 = x is idempotent
    split = alg("Q[x,y]/(x^2 - x, y^2)")
    assert split.labels[1:3] == ["y", "x"]
    assert split.mult_vec({1: Fr(1)}, {1: Fr(1)}) == {}
    assert split.mult_vec({2: Fr(1)}, {2: Fr(1)}) == {2: Fr(1)}
    assert not is_local_nilpotent(split)
    assert not is_local_nilpotent(alg("Q[x]/(1)"))


def test_structure_algebra_validation():
    f = QQ()
    with pytest.raises(ValueError):
        # 1*e1 must be e1
        TableAlgebra(f, ["1", "u"], {(0, 1): {0: Fr(1)}})
    with pytest.raises(ValueError):
        # non-associative: u*u = u with u*(u*u) != (u*u)*u forced via v
        TableAlgebra(f, ["1", "u", "v"],
                     {(1, 1): {2: Fr(1)}, (1, 2): {1: Fr(1)}, (2, 2): {}})


def test_associativity_check_covers_every_triple():
    # square-zero on e_1..e_23 but for e21*e21 = e22 and e22*e23 = e20, so
    # (e21 e21) e23 = e20 while e21 (e21 e23) = 0: one failing triple among
    # 2,600, which a 200-triple sample misses
    labels = [f"e{i}" for i in range(24)]
    table = {(21, 21): {22: Fr(1)}, (22, 23): {20: Fr(1)}}
    with pytest.raises(ValueError, match=r"\(21, 21, 23\)"):
        TableAlgebra(QQ(), labels, table)
    del table[22, 23]
    assert TableAlgebra(QQ(), labels, table).dim == 24


def test_associativity_check_covers_every_bracketing():
    # e1 e3 = e4 and e2 e4 = e5: (e1 e3) e2 = e5, but e1 (e3 e2) = 0 and
    # (e1 e2) e3 = 0, so the sorted triple (1, 2, 3) agrees on the two
    # bracketings that pair e2 first
    labels = [f"e{i}" for i in range(6)]
    table = {(1, 3): {4: Fr(1)}, (2, 4): {5: Fr(1)}}
    with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
        TableAlgebra(QQ(), labels, table)
    del table[2, 4]
    assert TableAlgebra(QQ(), labels, table).dim == 6


# -- canonical row spaces


def test_rowspace_canonical_pivots():
    f = QQ()
    rows = [{0: Fr(1), 3: Fr(2)}, {1: Fr(1), 3: Fr(1)}, {0: Fr(2), 1: Fr(2), 3: Fr(6)}]
    import itertools
    pivot_sets = set()
    for perm in itertools.permutations(rows):
        space = RowSpace(f)
        for r in perm:
            space.add(dict(r))
        pivot_sets.add(frozenset(space.rows))
        assert space.rank == 2
    assert len(pivot_sets) == 1     # pivots independent of insertion order


def test_rowspace_reduce_is_canonical():
    f = GF(7)
    space = RowSpace(f)
    space.add({0: 1, 4: 1})
    space.add({1: 2, 3: 1, 4: 3})
    v = {0: 3, 1: 1, 3: 0, 4: 5}
    r1 = space.reduce(dict(v))
    r2 = space.reduce(space.reduce(dict(v)))
    assert r1 == r2
    assert not (set(r1) & set(space.rows))


# -- span kernels: every kernel against the generic one


def _random_row(rng, field, width, density):
    row = {}
    for k in range(width):
        if rng.random() < density:
            c = field.random_element(rng)
            if c:
                row[k] = c
    return row


def _vec_sum(field, u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = field.add(out.get(k, field.zero), c)
    return out


@pytest.mark.parametrize("p", [2, 3, 1073741789, (1 << 61) - 1])
def test_prime_kernel_matches_generic_kernel(p):
    rng = random.Random(20261018 + p % 1000)
    f = GF(p)
    a = alg(f"GF({p})[x,y]/(x^2 - 3*y + 1, y^3 + 5*x*y - 2*x)")
    pair = TensorPairAlgebra(a, a)
    width = pair.dim
    fast, slow = RowSpace(f), RowSpace(f)
    slow.kernel = GenericKernel
    assert fast.kernel is PrimeKernel
    # add: the same pivots and the same stored rows
    for _ in range(12):
        row = _random_row(rng, f, width, 0.3)
        assert fast.add(dict(row)) == slow.add(dict(row))
    assert fast.rows == slow.rows and fast.rank > 6
    # reduce: identical remainders, including rows of the space itself
    probes = [_random_row(rng, f, width, 0.5) for _ in range(20)]
    probes += [{k: f.neg(v) for k, v in row.items()} for row in fast.rows.values()]
    for vec in probes:
        assert fast.reduce(vec) == slow.reduce(vec)
    # close_under: the same closed span from the same seeds
    seeds = [_random_row(rng, f, width, 0.2) for _ in range(2)]
    fast, slow = RowSpace(f), RowSpace(f)
    slow.kernel = GenericKernel
    generic_mults = [GenericKernel.operator(f, _stride_columns(a, vec, stride),
                                            stride, a.dim)
                     for stride in (1, pair.n)
                     for _, vec in a.generator_elements()]
    mults = _pair_multipliers(pair, *_pair_generators(pair))
    assert (fast.close_under(seeds, mults)
            == slow.close_under(seeds, generic_mults))
    assert fast.rows == slow.rows
    # the operator over stride columns (both digits of the pair) and over a
    # quotient's projection columns, each against its production caller
    span = RowSpace(f)
    right, left = _pair_generators(pair)
    span.close_under(_difference_seeds(rng, pair, left[0], right[0]), mults)
    quot = QuotientAlgebra(pair, span)
    assert 0 < quot.dim < width
    forms = {c: [(quot.col_to_index[k] - c, x)
                 for k, x in span.reduce({c: f.one}).items()]
             for c in range(width)}
    cases = [(quot.project, forms, 1, width)]
    for stride in (pair.n, 1):
        for _ in range(3):
            v = _random_row(rng, f, a.dim, 0.6)
            cases.append((stride_multiplier(a, v, stride),
                          _stride_columns(a, v, stride), stride, a.dim))
    for caller, cols, stride, size in cases:
        prime = PrimeKernel.operator(f, cols, stride, size)
        generic = GenericKernel.operator(f, cols, stride, size)
        for _ in range(4):
            # alone, and added into a vector it partly cancels
            w = _random_row(rng, f, width, 0.4)
            out = generic(w)
            assert prime(w) == caller(w) == out
            target = {k: f.neg(c) for k, c in out.items() if rng.random() < 0.5}
            target.update(_random_row(rng, f, width, 0.2))
            assert (prime(w, dict(target)) == generic(w, dict(target))
                    == {k: c for k, c in _vec_sum(f, target, out).items() if c})


def _stride_columns(factor, vec, stride):
    """Every column of multiplication by vec on the digit of `stride`,
    from the factor's products, as offsets from the input index:
    {a: [((k - a)*stride, c) for c*e_k in vec*e_a]}."""
    one = factor.field.one
    return {a: [((k - a) * stride, c)
                for k, c in factor.mult_vec(vec, {a: one}).items()]
            for a in range(factor.dim)}


# -- close_under: the signature-ordered closure against the breadth-first one


def _pair_generators(pair, maps=None):
    """Generators of a pair's right and left factors, in the order a closure
    stage takes them.  The left factor's are its own, or, for a closure
    carrying `maps` from the right factor, the images of the right factor's
    generators under each map, slot by slot, zero images dropped."""
    right = [vec for _, vec in pair.right.generator_elements()]
    if maps is None:
        left = [vec for _, vec in pair.left.generator_elements()]
    else:
        left = [img for mp in maps for g in right if (img := mp.apply_dict(g))]
    return right, left


def _pair_multipliers(pair, right, left):
    """The right generators at stride 1, then the left ones at stride
    pair.n, from the oracle's products."""
    return ([multiplier(pair.right, vec, 1) for vec in right]
            + [multiplier(pair.left, vec, pair.n) for vec in left])


def _difference_seeds(rng, pair, u, v):
    """Basis multiples of u (x) 1 - 1 (x) v in a pair, for u and v the first
    generators of its factors (x (x) 1 - 1 (x) x), so the ideal is proper
    and rational entries stay small, with a dependent seed and a duplicate
    one."""
    f = pair.field
    diff = _vec_sum(f, pair.embed_left(u), {k: f.neg(c) for k, c in v.items()})
    seeds = [mult_vec(pair, {k: f.one}, diff)
             for k in rng.sample(range(pair.dim), 3)]
    seeds.append(_vec_sum(f, seeds[0], seeds[1]))
    seeds.append(dict(seeds[2]))
    return seeds


def _slot_indices(right, maps):
    """Each slot's {generator index: multiplier index} in the order of
    `_pair_multipliers`: the right generators on the new digit, then each
    map's nonzero images of them."""
    slots, count = [{i: i for i in range(len(right))}], len(right)
    for mp in maps:
        slots.append({})
        for i, g in enumerate(right):
            if mp.apply_dict(g):
                slots[-1][i] = count
                count += 1
    return slots


def _zero_pairs(a, right, slots):
    """The pairs g_i g_j = 0 in A, i <= j, from the oracle's products,
    carried to each slot's multiplier indices."""
    zero = [(i, j) for i in range(len(right)) for j in range(i, len(right))
            if not mult_vec(a, right[i], right[j])]
    return {(idx[i], idx[j]) for idx in slots for i, j in zero
            if i in idx and j in idx}


@pytest.mark.parametrize("field", [GF(1073741789), QQ(), GF(2, 2)],
                         ids=str)
@pytest.mark.parametrize("text", ["Q[x,y]/(x^2, y^3)", "Q[x]/(x^5 - x - 1)"])
def test_close_under_matches_breadth_first(field, text):
    rng = random.Random(20261018)
    a = algebra_from_presentation(
        base_change_presentation(parse_presentation(text), field))
    result = m_closure(a, 2)
    pair = TensorPairAlgebra(result.closure, a)      # stage 3
    right, left = _pair_generators(pair, result.maps)
    seeds = _difference_seeds(rng, pair, left[0], right[0])
    probes = [_random_row(rng, field, pair.dim, 0.3) for _ in range(10)]
    slots = _slot_indices(right, result.maps)
    zero = _zero_pairs(a, right, slots)
    assert bool(zero) == (text == "Q[x,y]/(x^2, y^3)")

    # the left factor's multipliers first: another order, the same span
    def left_first(x):
        return x + len(left) if x < len(right) else x - len(right)

    orders = [(_pair_multipliers(pair, right, left), zero),
              ([multiplier(pair.left, vec, pair.n) for vec in left]
               + [multiplier(pair.right, vec, 1) for vec in right],
               {(left_first(x), left_first(y)) for x, y in zero}),
              ([], set())]
    closed = []
    for mults, pairs in orders:
        for x, y in pairs:
            assert all(not mults[x](mults[y](vec)) for vec in probes)
        fast, slow = RowSpace(field), RowSpace(field)
        assert fast.kernel is kernel_for(field)
        rank = fast.close_under(seeds, mults, pairs)
        assert rank == breadth_first_close(slow, seeds, mults)
        assert 0 < rank < pair.dim
        assert set(fast.rows) == set(slow.rows)
        for vec in probes:
            assert fast.reduce(vec) == slow.reduce(vec)
        closed.append(fast)
    new, old, _ = closed
    assert set(new.rows) == set(old.rows)
    for vec in probes:
        assert new.reduce(vec) == old.reduce(vec)
    # a pair whose product is not zero, marked zero, changes the rows: the
    # square of the last generator (y, or x) in the first slot
    mults, pairs = orders[0]
    last = slots[1][len(right) - 1]
    assert (last, last) not in pairs
    mutant = RowSpace(field)
    mutant.close_under(seeds, mults, pairs | {(last, last)})
    assert mutant.rows != new.rows


def test_new_slot_multipliers_first_store_sparse_rows(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    spans = []
    close_under = RowSpace.close_under

    def recorded(space, seeds, multipliers, zero_pairs=()):
        spans.append(space)
        return close_under(space, seeds, multipliers, zero_pairs)

    monkeypatch.setattr(RowSpace, "close_under", recorded)
    result, mode = closure_from_presentation(
        parse_presentation("Q[x,y]/(x^2, y^5, xy)"), 4)
    assert (mode, result.dim, spans[-1].rank) == ("mod 587814103", 393, 381)
    # with the left factor's multipliers first they hold 3,964 entries
    assert sum(len(row) for row in spans[-1].rows.values()) == 3253


# every stage span's stored rows, in the order the spans are closed, with
# the canonical last stage of a result whose closure is read
STAGE_ROW_CASES = [("Q[x,y,z,w,v]/((x,y,z,w,v)^2)", 5, False, False),
                   ("Q[x,y]/(x^2, y^5, xy)", 5, False, False),
                   ("Q[x,y,z]/(xy, z^2, xz - yz, x^2 + y^2 - xz)", 4, False,
                    False),
                   ("Q[x,y]/(x^3, y^2, x^2y)", 4, True, False),
                   ("GF(2,2)[x,y]/(x^2+t*x*y, y^2+x*y)", 4, False, True)]
STAGE_ROW_DIGEST = (
    "dda67916dbdebacaba91b733ad63d7bfe76149c636176521a07b8917b68d0ddb")


def test_stage_span_rows_are_pinned(monkeypatch):
    # a change to the span work that drops only candidates reducing to
    # zero stores the same rows, pivots and entries
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    spans = []
    close_under = RowSpace.close_under

    def recorded(space, *args):
        rank = close_under(space, *args)
        spans.append(space)
        return rank

    monkeypatch.setattr(RowSpace, "close_under", recorded)
    for text, m, exact, read in STAGE_ROW_CASES:
        result, _ = closure_from_presentation(parse_presentation(text), m,
                                              exact=exact)
        if read:
            spans.append(result.closure.span)
    digest = hashlib.sha256()
    for space in spans:
        for pivot in sorted(space.rows):
            digest.update(repr((pivot, sorted(space.rows[pivot].items())))
                          .encode())
    assert (len(spans), digest.hexdigest()) == (17, STAGE_ROW_DIGEST)


def test_close_under_skips_dead_products(monkeypatch):
    # breadth first applies every multiplier to every inserted row
    applied = 0
    breadth_first = 0
    per_span = []
    close_under = RowSpace.close_under

    def counting(mult):
        def apply(w):
            nonlocal applied
            applied += 1
            return mult(w)
        return apply

    def counted(space, seeds, multipliers, zero_pairs=()):
        nonlocal breadth_first
        before, start = space.rank, applied
        rank = close_under(space, seeds, [counting(m) for m in multipliers],
                           zero_pairs)
        breadth_first += len(seeds) + (rank - before) * len(multipliers)
        per_span.append(applied - start)
        return rank

    monkeypatch.setattr(RowSpace, "close_under", counted)
    assert m_closure(alg("Q[x,y]/(x^2, y^5, xy)"), 4).dim == 393
    assert 2 * applied < breadth_first
    # the zero pairs of A (x^2 = xy = 0) take 1,103 applications to 943;
    # breadth first makes 3,410 and reads 73 seeds
    assert (applied, breadth_first) == (943, 3410 + 73)
    # and stages 4 and 5 of the wide cell from 3,094 and 7,971
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    per_span.clear()
    result, _ = closure_from_presentation(
        parse_presentation("Q[x,y,z,w,v]/((x,y,z,w,v)^2)"), 5)
    assert (result.dim, per_span) == (1857, [0, 0, 2107, 7071])
