import itertools
import random
from fractions import Fraction

import pytest

from closurelab.arith import GF, QQ
from closurelab.catalog import load_manifest
from closurelab.errors import (ParseError, RingMismatch, UnknownVariable,
                               UnsupportedField)
from closurelab.finalg import monomial_algebra
from closurelab.multipoly import (PolyRing, grevlex_key, parse_poly,
                                  parse_presentation, parse_univariate)


def test_parse_table_row():
    p = parse_presentation("Q[x,y]/(x^2, y^2)")
    assert p.field.kind == "rationals"
    assert p.variables == ("x", "y")
    assert len(p.relations) == 2


def test_parse_ideal_power_sugar():
    p = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    assert len(p.relations) == 10          # all quadratic monomials in 4 vars
    assert all(r.total_degree() == 2 and len(r.terms) == 1 for r in p.relations)
    # a repeated name adds no relation: (x,x)^2 is (x)^2
    for text, expected in (("Q[x]/((x,x)^2)", "Q[x]/((x)^2)"),
                           ("Q[x,y]/((x,y,x)^2)", "Q[x,y]/((y,x)^2)")):
        assert parse_presentation(text) == parse_presentation(expected)
    assert [str(r) for r in parse_presentation("Q[x,y]/((x,y,x)^2)").relations] \
        == ["x^2", "x*y", "y^2"]


def test_parse_empty_relations():
    p = parse_presentation("Q[x]/()")
    assert p.relations == ()


def test_round_trip():
    texts = ["Q[x,y]/(x^2, y^2)", "Q[x,y]/(x^2 + y^3, xy)",
             "F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)",
             "GF(2,2)[x,y]/(x^2 + t*y, xy)",
             "Q[x,y,z]/(xy, z^2, xz - yz, x^2 + y^2 - xz)"]
    presentations = [parse_presentation(text) for text in texts]
    for manifest in ("table1.json", "table2.json"):
        presentations += [e.presentation() for e in load_manifest(manifest)]
    for p in presentations:
        assert parse_presentation(str(p)) == p


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_presentation("Q[x,y]/(x^2 + ?)")
    assert err.value.position is not None
    with pytest.raises(UnknownVariable):
        parse_presentation("Q[x]/(x*w)")
    with pytest.raises(UnsupportedField):
        parse_presentation("F6[x]/(x^2)")
    # `*` stands only between two factors
    for text, pos in (("Q[x]/(x**2)", 7), ("Q[x]/(x*)", 7), ("Q[x]/(*x)", 6),
                      ("Q[x]/(x*-1)", 7)):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.position == pos


def test_zero_denominator_is_a_parse_error():
    # the position is the denominator's; a denominator that is a multiple
    # of the characteristic is zero in the field too
    for text, pos in (("Q[x]/(x^2-1/0)", 12), ("F5[x]/(x^2-1/5)", 13),
                      ("F4[x]/(x^2+t*1/2)", 15)):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.position == pos
    with pytest.raises(ParseError):
        parse_univariate("Z^2-1/0", QQ())
    assert parse_univariate("Z^2-1/2", GF(5))[0] == [2, 0, 1]


def test_poly_mul_examples():
    ring = PolyRing(QQ(), ("x", "y"))
    a = parse_poly("x+y", ring)
    b = parse_poly("x-y", ring)
    assert a * b == parse_poly("x^2 - y^2", ring)
    ring2 = PolyRing(GF(2), ("x", "y"))
    s = parse_poly("x+y", ring2)
    assert s * s == parse_poly("x^2 + y^2", ring2)


def test_homogeneous_flag_propagates():
    def degrees(p):
        return {sum(mono) for mono in p.terms}

    ring = PolyRing(QQ(), ("x", "y"))
    a = parse_poly("x^2 + x*y", ring)          # degree 2, homogeneous
    b = parse_poly("x^3 - y^3", ring)          # degree 3, homogeneous
    assert degrees(a) == {2} and degrees(b) == {3}
    prod = a * b
    assert degrees(prod) == {5} and prod.total_degree() == 5
    assert degrees(a + ring.one()) == {0, 2}


@pytest.mark.parametrize("field", [QQ(), GF(7), GF(2, 2)])
def test_ring_axioms(field):
    rng = random.Random(42)
    ring = PolyRing(field, ("a", "b", "c", "d"))

    def rand_poly():
        out = ring.zero()
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 5) for _ in range(4))
            out = out + ring.monomial(exps, field.random_element(rng))
        return out

    for _ in range(500):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + (-p) == ring.zero()


def test_ring_mismatch():
    a = parse_poly("x", PolyRing(QQ(), ("x",)))
    b = parse_poly("x", PolyRing(GF(7), ("x",)))
    with pytest.raises(RingMismatch):
        a * b


def test_grevlex_order():
    # degree first; within a degree the last nonzero of the difference decides
    x2, xy, y2 = (2, 0), (1, 1), (0, 2)
    assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(y2)
    assert grevlex_key((1, 0)) < grevlex_key(y2)


def test_parse_univariate():
    coeffs, var = parse_univariate("Z^3-6Z^2+11Z-6", QQ())
    assert var == "Z"
    assert coeffs == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    coeffs2, _ = parse_univariate("X^2", QQ())
    assert coeffs2 == [Fraction(0), Fraction(0), Fraction(1)]
    with pytest.raises(ParseError):
        parse_univariate("X^2 + Y", QQ())


def test_parse_univariate_reads_t_as_the_generator():
    # over GF(4) `t` is the field generator, as in a presentation
    f4 = GF(2, 2)
    t = f4.gen
    coeffs, var = parse_univariate("x^2 + t*x + 1", f4)
    assert var == "x" and coeffs == [f4.one, t, f4.one]
    assert parse_univariate("t^2", f4) == ([f4.mul(t, t)], "Z")
    # elsewhere it is an ordinary variable name
    assert parse_univariate("t^2 + 1", QQ()) == ([1, 0, 1], "t")
    pres = parse_presentation("F7[t]/(t^2 + 1)")
    assert pres.relations[0].terms == {(2,): 1, (0,): 1}
    with pytest.raises(ParseError, match="two variables"):
        parse_univariate("x^2 + t", QQ())


def test_univariate_runs_with_the_generator_read_as_in_a_presentation():
    # over GF(7^3) a run such as `tx`, `xt` or `txt` is t times x, in a
    # univariate polynomial as in a relation of GF(7,3)[x]
    f343 = GF(7, 3)
    for text in ("x^3 + tx + 1", "x^3 + xt + 1", "tx^2 + txt + t^2xt",
                 "xt^2 + t^2x^3 - 3t", "tt + x"):
        coeffs, var = parse_univariate(text, f343)
        relation = parse_presentation(f"GF(7,3)[x]/({text})").relations[0]
        assert var == "x", text
        assert {(e,): c for e, c in enumerate(coeffs) if c} == relation.terms
    # only the letters between the t's name the variable
    with pytest.raises(ParseError, match="two variables 'x' and 'y'"):
        parse_univariate("x^2 + tyt", f343)
    # over a prime field `t` is a letter like any other, so a run of two
    # distinct letters names two variables
    with pytest.raises(ParseError, match="two variables 't' and 'x'"):
        parse_univariate("tx^2 + 1", QQ())


def test_generator_powers_fold_into_the_coefficient():
    # t^k is the generator to the k, t^0 = 1 included
    f4 = GF(2, 2)
    t = f4.gen
    pres = parse_presentation("GF(2,2)[x]/(x^2 + t^0*x + t^2, t^1x^3 + xt^0)")
    assert [r.terms for r in pres.relations] == [
        {(2,): 1, (1,): 1, (0,): f4.mul(t, t)}, {(3,): t, (1,): 1}]
    assert parse_univariate("Z^2 + t^0*Z + t^3", f4) == ([1, 1, 1], "Z")
    # a ring variable named `t` takes precedence over the generator
    ring = PolyRing(f4, ("t",))
    assert parse_poly("t^0 + t", ring).terms == {(0,): 1, (1,): 1}


def test_labels_and_polynomials_print_monomials_alike():
    # the basis of GF(4)[x,y,z]/(x^2, y^3, z^2): exponents 0, 1 and 2
    f4 = GF(2, 2)
    t = f4.gen
    ring = PolyRing(f4, ("x", "y", "z"))
    basis = sorted(itertools.product(range(2), range(3), range(2)),
                   key=grevlex_key)
    algebra = monomial_algebra(
        ring, basis, lambda mono: {mono: f4.one} if mono in basis else {})
    labels = [algebra.label_str(i) for i in range(algebra.dim)]
    assert labels[:3] == ["1", "z", "y"]
    assert labels[-1] == "x*y^2*z"
    plus = f4.add(t, f4.one)
    for mono, label in zip(basis, labels):
        if any(mono):
            assert str(ring.monomial(mono)) == label
            assert str(ring.monomial(mono, t)) == f"t*{label}"
            assert str(ring.monomial(mono, plus)) == f"(t+1)*{label}"
        else:
            # the constant monomial: the bare coefficient in a polynomial
            assert str(ring.monomial(mono)) == "1"
            assert str(ring.monomial(mono, plus)) == "(t+1)"
    assert str(ring.monomial((1, 2, 1), plus) + ring.monomial((0, 0, 0), t)) \
        == "(t+1)*x*y^2*z + t"
