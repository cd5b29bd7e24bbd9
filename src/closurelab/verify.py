"""Property suites: executable forms of the structural facts the closure
construction must satisfy.  Each suite returns (name, ok, detail) triples;
the CLI `verify` command and the acceptance tests run them."""

from __future__ import annotations

import random

from .arith import GF, QQ
from .catalog import table1_entries
from .closure import (base_change_presentation, closure_from_presentation,
                      divides_check, etale_closure_dim, galois_factor_count,
                      m_closure, monogenic_algebra, monogenic_tower,
                      naive_closure, product_formula_dim,
                      reconstructed_last_map, transform_monic)
from .finalg import algebra_from_presentation, algebra_product
from .multipoly import parse_presentation

DEFAULT_SEED = 20260808
CASES = 200         # random inputs per randomized check


def _check(results, name, ok, detail=""):
    results.append((name, bool(ok), detail))


def _closure_dims(a, max_m):
    """The closure dims of `a` at m = 0..max_m from one run at the largest
    m up to n: stage s of a staged run is the s-closure, and m > n gives
    the zero algebra."""
    top = min(max_m, a.dim)
    run = m_closure(a, top)
    stages = run.stage_dims or (run.dim,) * top     # trivial at top <= 1
    return [1, *stages] + [0] * (max_m - top)


def upoly_mul(fieldh, a, b):
    out = [fieldh.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = fieldh.add(out[i + j], fieldh.mul(x, y))
    return out


def suite_trivial(seed=DEFAULT_SEED):
    """m = 0, 1, n-1 = n, > n identities plus non-vanishing, over the
    dimension-up-to-5 catalog; every computed closure is certified, and so
    is the canonical m = n quotient once it is read."""
    out = []
    for entry in table1_entries():
        a = entry.algebra()
        n = a.dim
        r0 = m_closure(a, 0)
        _check(out, f"{entry.name}: m=0 gives the base field", r0.dim == 1)
        r1 = m_closure(a, 1)
        ident = all(r1.maps[0].rows[i] == {i: a.field.one} for i in range(n))
        _check(out, f"{entry.name}: m=1 gives the algebra itself",
               r1.dim == n and ident)
        rn1 = m_closure(a, n - 1)
        rn = m_closure(a, n)
        _check(out, f"{entry.name}: dim at m=n-1 equals dim at m=n",
               rn1.dim == rn.dim, f"{rn1.dim} vs {rn.dim}")
        extra = reconstructed_last_map(a, rn1.closure, rn1.maps)
        _check(out, f"{entry.name}: reconstructed map on the (n-1)-closure is a ring morphism",
               extra.is_ring_morphism())
        rbig = m_closure(a, n + 1)
        _check(out, f"{entry.name}: m=n+1 gives the zero algebra", rbig.dim == 0)
        _check(out, f"{entry.name}: closures are nonzero for 1 <= m <= n",
               all(rn.stage_dims))
        for m, res in ((n - 1, rn1), (n, rn)):
            cert = divides_check(res)
            _check(out, f"{entry.name}: divisibility certificate at m={m}",
                   cert.get("certified", False), cert.get("mode", ""))
        # at m = n the result stores the (n-1)-closure with the trace map;
        # reading `closure` builds the canonical quotient of C x A
        stored = rn.dim
        canonical = rn.closure.dim
        cert = divides_check(rn)
        _check(out, f"{entry.name}: canonical quotient at m=n has the stored dim "
                    f"and is certified",
               canonical == stored and cert.get("certified", False),
               f"{canonical} vs {stored}")
    return out


def suite_product(seed=DEFAULT_SEED):
    """Direct closures of product algebras match the binomial product
    formula applied to the factor closure dimensions."""
    out = []
    factor_texts = [
        ("K", "Q[x]/(x)"),            # the base field, dimension 1
        ("K[x]/(x^2)", "Q[x]/(x^2)"),
        ("K[x]/(x^3)", "Q[x]/(x^3)"),
        ("(x, y)^2", "Q[x,y]/((x,y)^2)"),
        ("K[x]/(x^4)", "Q[x]/(x^4)"),
        ("(x^2, y^2)", "Q[x,y]/(x^2,y^2)"),
    ]
    factors = [(name, algebra_from_presentation(parse_presentation(t)))
               for name, t in factor_texts]
    max_m = 3
    dims = {name: _closure_dims(alg, max_m) for name, alg in factors}
    products = {}
    for i, (na, a) in enumerate(factors):
        for nb, b in factors[i:]:
            if a.dim + b.dim > 6:
                continue
            prod = algebra_product(a, b)
            products[na, nb] = _closure_dims(prod, max_m)
            for m in range(2, max_m + 1):
                direct = products[na, nb][m]
                formula = product_formula_dim(dims[na], dims[nb], m)
                _check(out, f"({na}) x ({nb}) at m={m}: direct {direct} = formula",
                       direct == formula, f"formula gives {formula}")
    # full-closure factor count: K x K[x]/(x^2) has 3!/(1!2!) identical factors
    _check(out, "full closure of K x K[x]/(x^2) has 3 identical tensor factors",
           galois_factor_count([1, 2]) == 3)
    full = products["K", "K[x]/(x^2)"][3]
    factor_dim = dims["K"][1] * dims["K[x]/(x^2)"][2]
    _check(out, "full closure of K x K[x]/(x^2) matches the factor-count formula",
           full == 3 * factor_dim, f"{full} vs 3*{factor_dim}")
    return out


def suite_monogenic(seed=DEFAULT_SEED):
    """Towers of monic polynomials are free of the falling-factorial rank
    and agree with the generic pipeline, and so do the one-point and tower
    records on a local and a non-local input, in the default mode, with
    --exact and over F7."""
    out = []
    rng = random.Random(seed)
    f7 = GF(7)
    q = QQ()
    t = monogenic_tower([0, 0, 0, 1], 2, q)  # Z^3, m=2
    _check(out, "tower of Z^3 at m=2 has dimension 6", t.dim == 6)
    t2 = monogenic_tower([-1, 0, 0, 0, 0, 1], 5, q)
    _check(out, "tower of Z^5 - 1 at m=5 has dimension 120", t2.dim == 120)
    t3 = monogenic_tower([1, 0, 0, 0, 1], 3, q)
    _check(out, "tower of Z^4 + 1 at m=3 has dimension 24", t3.dim == 24)
    for trial in range(6):
        deg = rng.randint(2, 4)
        coeffs = [f7.random_element(rng) for _ in range(deg)] + [f7.one]
        pipe = _closure_dims(monogenic_algebra(f7, coeffs), min(3, deg))
        for m in range(1, min(3, deg) + 1):
            tower = monogenic_tower(coeffs, m, f7)
            expected = etale_closure_dim(deg, m)
            _check(out,
                   f"trial {trial}: tower rank deg={deg} m={m} is the falling factorial",
                   tower.dim == expected, f"{tower.dim} vs {expected}")
            _check(out,
                   f"trial {trial}: tower and pipeline dims agree (deg={deg}, m={m})",
                   pipe[m] == tower.dim, f"{pipe[m]} vs {tower.dim}")
    for text in ("Q[x]/(x^5)", "Q[x]/(x^5-x-1)"):
        pres = parse_presentation(text)
        for source, exact in ((pres, False), (pres, True),
                              (base_change_presentation(pres, f7), False)):
            records = [closure_from_presentation(source, m, exact)
                       for m in (2, 3, 4)]
            pipe = _closure_dims(records[0][0].input_algebra, 4)
            for record, mode in records:
                m = record.m
                method = "points" if m == 2 else "tower"
                _check(out, f"{text} {mode} at m={m}: the {method} record "
                       "has the pipeline's dim",
                       record.method == method and record.dim == pipe[m],
                       f"{record.method} {record.dim} vs {pipe[m]}")
    return out


def suite_etale(seed=DEFAULT_SEED):
    """Closures of split algebras K^n have the injective-map count
    n(n-1)...(n-m+1) as dimension."""
    out = []
    k = algebra_from_presentation(parse_presentation("Q[x]/(x)"))
    power = k
    for n in range(2, 6):
        power = algebra_product(power, k)
        dims = _closure_dims(power, n)
        for m in range(0, n + 1):
            expected = etale_closure_dim(n, m)
            _check(out, f"K^{n} at m={m}: dimension {expected}",
                   dims[m] == expected, f"got {dims[m]}")
    _check(out, "injective-map count vanishes for m > n",
           etale_closure_dim(4, 5) == 0)
    _check(out, "injective-map count at m=0 is 1", etale_closure_dim(7, 0) == 1)
    return out


def suite_naive(seed=DEFAULT_SEED):
    """The element-only variant fails to commute with base change while the
    true closure does not.

    Over F2 the defining ideal is the span of the 15 tensor cubes a x a x a
    with a in the maximal ideal; those cubes sum to zero (each entry counts
    a coset of even size), so the span has rank 14 and the naive closure has
    dimension 111.  The published example prints 110; see the README.
    """
    out = []
    pres2 = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    a2 = algebra_from_presentation(pres2)
    n2 = naive_closure(a2, 3)
    _check(out, "naive 3-closure over F2 has dimension 111 (rank-14 cube span)",
           n2.dim == 111, f"got {n2.dim}")
    pres4 = base_change_presentation(pres2, GF(2, 2))
    a4 = algebra_from_presentation(pres4)
    n4 = naive_closure(a4, 3)
    _check(out, "naive 3-closure over F4 has dimension 105", n4.dim == 105,
           f"got {n4.dim}")
    _check(out, "naive closure does not commute with the base change F2 -> F4",
           n2.dim != n4.dim, f"{n2.dim} vs {n4.dim}")
    t2 = m_closure(a2, 3)
    t4 = m_closure(a4, 3)
    _check(out, "true 3-closure dimension is stable under F2 -> F4",
           t2.dim == t4.dim == 105, f"{t2.dim} vs {t4.dim}")
    _check(out, "naive and true closures differ over F2", n2.dim != t2.dim,
           f"naive {n2.dim}, true {t2.dim}")
    r1 = naive_closure(a2, 1)
    _check(out, "naive closure at m=1 is the algebra itself", r1.dim == a2.dim)
    return out


def suite_transform(seed=DEFAULT_SEED):
    """The monic transform (Z - a_i) -> (Z - g(a_i)): multiplicativity on
    random inputs, the explicit cubic coefficient identity, and identity g."""
    out = []
    rng = random.Random(seed)
    f101 = GF(101)
    ok_mult = True
    detail = ""
    for _ in range(CASES):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = [f101.random_element(rng) for _ in range(d1)] + [f101.one]
        h = [f101.random_element(rng) for _ in range(d2)] + [f101.one]
        g = [f101.random_element(rng) for _ in range(rng.randint(1, 3) + 1)]
        lhs = transform_monic(upoly_mul(f101, f, h), g, f101)
        rhs = upoly_mul(f101, transform_monic(f, g, f101),
                        transform_monic(h, g, f101))
        if lhs != rhs:
            ok_mult = False
            detail = f"f={f} h={h} g={g}"
            break
    _check(out, f"transform is multiplicative on {CASES} random cases", ok_mult, detail)

    q = QQ()
    rng2 = random.Random(seed + 1)
    ok_cubic = True
    for _ in range(25):
        r1, r2, r3 = (rng2.randint(-9, 9) for _ in range(3))
        f = [-r3, r2, -r1, 1]
        got = transform_monic(f, [0, 0, 1], q)
        want = [-r3 * r3, r2 * r2 - 2 * r1 * r3, -(r1 * r1 - 2 * r2), 1]
        if got != want:
            ok_cubic = False
            break
    _check(out, "cubic transform under g=X^2 matches the coefficient identity", ok_cubic)

    f = [-6, 11, -6, 1]  # roots 1,2,3
    got = transform_monic(f, [0, 0, 1], q)
    _check(out, "squaring the roots 1,2,3 gives Z^3-14Z^2+49Z-36",
           got == [-36, 49, -14, 1])
    got_id = transform_monic(f, [0, 1], q)
    _check(out, "g = X is the identity transform", got_id == f)
    return out


def suite_family(seed=DEFAULT_SEED):
    """Two proved dimension families: the n^2 - 3 sequence and the
    square-zero case where the closure is the whole tensor power."""
    out = []
    for n in range(3, 9):
        if n % 2 == 0:
            text = f"Q[x,y]/(x^{n // 2 + 1}, y^{n // 2}, xy)"
        else:
            text = f"Q[x,y]/(x^{(n + 1) // 2}, y^{(n + 1) // 2}, xy)"
        a = algebra_from_presentation(parse_presentation(text))
        got = m_closure(a, 2).dim
        _check(out, f"n={n}: 2-closure of the two-variable family has dimension n^2-3",
               a.dim == n and got == n * n - 3, f"dim {a.dim}, got {got}")
    # square-zero maximal ideal with n - t*m >= 0 forces the full tensor power
    a = algebra_from_presentation(parse_presentation("Q[x,y,z,w]/((x,y,z,w)^2)"))
    _check(out, "square-zero n=5: 2-closure is the whole 25-dimensional square",
           m_closure(a, 2).dim == 25)
    b = algebra_from_presentation(parse_presentation("Q[x,y,z,w,v]/((x,y,z,w,v)^2)"))
    dims = _closure_dims(b, 3)
    _check(out, "square-zero n=6: 2- and 3-closures fill the tensor powers",
           dims[2] == 36 and dims[3] == 216)
    return out


def suite_primes(seed=DEFAULT_SEED):
    """One-prime modular closure dimensions, upper bounds for the exact
    ones, equal them on the dimension-up-to-5 catalog and at m = 2 on
    non-local inputs: two that one point closes, and one it cannot."""
    cases = [(e.name, e.presentation(), sorted({2, min(3, max(e.expected))}))
             for e in table1_entries()]
    cases += [(text, parse_presentation(text), [2])
              for text in ("Q[x]/(x^3-x-1)", "Q[x,y]/(x^2-x, y^3)",
                           "Q[x,y,z]/(x^2-x, y^2, z^2)")]
    out = []
    for name, pres, ms in cases:
        # ascending m: each call resumes the run of the one before
        modular, exact = ([closure_from_presentation(pres, m, flag)
                           for m in ms] for flag in (False, True))
        for m, (u, mode), (v, _) in zip(ms, modular, exact):
            _check(out, f"{name} m={m}: modular ({mode}) matches exact",
                   u.dim == v.dim, f"{u.dim} vs {v.dim}")
    return out


SUITES = {
    "trivial": suite_trivial,
    "product": suite_product,
    "monogenic": suite_monogenic,
    "etale": suite_etale,
    "naive": suite_naive,
    "transform": suite_transform,
    "family": suite_family,
    "primes": suite_primes,
}


def run_suites(names, seed=DEFAULT_SEED):
    """Run the named suites, or every suite for "all" or ["all"]; returns
    (all_ok, list of (suite, name, ok, detail)).  An unknown name raises
    ValueError, listing the known ones, before any suite runs."""
    if names == ["all"] or names == "all":
        names = list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {', '.join(map(repr, unknown))}; "
                         f"known suites: {', '.join(SUITES)}")
    results = []
    for name in names:
        for item in SUITES[name](seed):
            results.append((name,) + item)
    all_ok = all(ok for _, _, ok, _ in results)
    return all_ok, results
