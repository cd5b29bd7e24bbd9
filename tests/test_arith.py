import random
from fractions import Fraction

import pytest

from closurelab import arith
from closurelab.arith import (GF, QQ, default_modulus, field_from_order,
                              is_irreducible, is_prime, next_prime)
from closurelab.errors import (DivisionByZero, NotPrime, ParseError,
                               UnknownVariable, UnsupportedField)
from closurelab.multipoly import (PolyRing, parse_field, parse_poly,
                                  parse_presentation)


def parse_scalar(field, text):
    return parse_poly(text, PolyRing(field, ())).terms.get((), field.zero)


def is_canonical_rational(x):
    """An integral rational is an int; a Fraction is never integral."""
    return type(x) is int or x.denominator > 1


def test_prime_field_basics():
    f7 = GF(7)
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.add(4, 5) == 2
    assert f7.format_scalar(f7.neg(1)) == "6"


def test_rationals():
    q = QQ()
    assert q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(q.add(Fraction(1, 3), Fraction(2, 3))) is int
    assert type(q.mul(Fraction(3), Fraction(1, 3))) is int
    assert q.zero == 0 and q.one == 1 and type(q.one) is int
    with pytest.raises(DivisionByZero):
        q.inv(Fraction(0))


def test_gf4():
    f4 = GF(2, 2)
    t = f4.gen
    assert f4.mul(t, t) == f4.add(t, 1)          # t^2 = t + 1
    assert f4.inv(t) == f4.add(t, 1)             # t(t+1) = 1
    assert f4.format_scalar(f4.mul(t, t)) == "t+1"
    assert parse_scalar(f4, "t+1") == f4.add(t, 1)


def test_field_errors():
    with pytest.raises(NotPrime):
        GF(15)
    with pytest.raises(UnsupportedField):
        field_from_order(12)


def test_field_checks_precede_the_modulus_search(monkeypatch):
    # the search for a degree-200 modulus takes minutes; every check that
    # needs no modulus must fail first, with its own reason
    def no_search(p, k):
        raise AssertionError(f"modulus search for GF({p}^{k})")

    monkeypatch.setattr(arith, "default_modulus", no_search)
    for text, error, message in (
            ("GF(2,200)[x]/(x^2)", UnsupportedField, "field size 2^200 exceeds 2^61"),
            ("GF(7,0)[x]/(x)", UnsupportedField, "degree must be at least 1"),
            ("GF(15,2)[x]/(x)", NotPrime, "15 is not prime"),
            ("F4611686018427387904[x]/(x)", UnsupportedField, "exceeds 2^61"),
            ("F12[x]/(x)", UnsupportedField, "12 is not a prime power")):
        with pytest.raises(error) as info:
            parse_presentation(text)
        assert message in str(info.value), text


def test_fields_are_cached_and_compare_by_identity():
    # p and k fix the field, so each has one object, and equal is identical
    assert GF(7) is GF(7, 1) is field_from_order(7) and QQ() is QQ()
    assert parse_presentation("F7[x]/(x)").field is GF(7)
    assert parse_field("F4") is GF(2, 2) != GF(2)
    # str(field) is part of str(presentation), which the modular prime hashes
    assert [str(f) for f in (QQ(), GF(7), GF(2, 2))] == ["Q", "F7", "GF(2,2)"]


def test_large_prime_fields_parse_exactly():
    # primes above 2^53 lose their low bits as floats
    big = 2305843009213693951                     # 2^61 - 1
    assert parse_presentation(f"F{big}[x]/(x)").field is GF(big)
    above = next_prime(2 ** 53)
    assert parse_field(f"F{above}") is GF(above)
    square = next_prime(2 ** 30) ** 2             # above 2^60
    assert field_from_order(square) is GF(next_prime(2 ** 30), 2)
    with pytest.raises(UnsupportedField):
        field_from_order(above + 1)


def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2147483629)
    assert is_prime(2147483587)
    assert not is_prime(1) and not is_prime(2147483629 * 3)
    # strong pseudoprime to several bases
    assert not is_prime(3215031751)


def test_fixed_moduli_and_search():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(3, 2) == (2, 2, 1)
    found = default_modulus(5, 2)
    assert is_irreducible(list(found), 5) and len(found) == 3
    # the search checks what it returns; the fixed table, which no field
    # checks, is checked here, and each field takes its default modulus
    for (p, k), modulus in arith._FIXED_MODULI.items():
        assert len(modulus) == k + 1 and modulus[-1] == 1, (p, k)
        assert is_irreducible(list(modulus), p), (p, k)
    for p, k in list(arith._FIXED_MODULI) + [(2, 2), (2, 3), (5, 2), (7, 3)]:
        assert GF(p, k).modulus == default_modulus(p, k), (p, k)


@pytest.mark.parametrize("field", [QQ(), GF(7), GF(2, 2), GF(3, 2), GF(101)])
def test_field_axioms(field):
    rng = random.Random(20260808)
    one = field.one
    for _ in range(1000):
        a, b, c = (field.random_element(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == one
        if field == QQ():
            ops = [(field.add, b), (field.sub, b), (field.mul, b), (field.neg,)]
            if a:
                ops.append((field.inv,))
            results = [op(a, *rest) for op, *rest in ops]
            assert all(map(is_canonical_rational, results + [
                a, field.from_int(a.numerator), parse_scalar(field, str(a))]))
            # the same value as a Fraction, even Fraction(3): equal results
            assert [op(Fraction(a), *rest) for op, *rest in ops] == results


def test_extension_restricts_to_prime_field():
    f4, f2 = GF(2, 2), GF(2)
    for a in range(2):
        for b in range(2):
            assert f4.add(f4.from_int(a), f4.from_int(b)) == f2.add(a, b)
            assert f4.mul(a, b) == f2.mul(a, b)
    f9, f3 = GF(3, 2), GF(3)
    for a in range(3):
        for b in range(3):
            assert f9.add(a, b) == f3.add(a, b)
            assert f9.mul(a, b) == f3.mul(a, b)


def test_scalar_text_round_trip():
    f4 = GF(2, 2)
    for a in f4.elements():
        assert parse_scalar(f4, f4.format_scalar(a)) == a
    q = QQ()
    assert parse_scalar(q, "-7/3") == Fraction(-7, 3)
    assert type(parse_scalar(q, " 6/3 ")) is int and parse_scalar(q, "6/3") == 2
    assert parse_scalar(GF(7), "1/3") == 5 and parse_scalar(GF(7), "-2") == 5


@pytest.mark.parametrize("field, text, error, position", [
    (QQ(), "1/0", ParseError, 2),
    (QQ(), "1.5", ParseError, 1),
    (QQ(), "x", UnknownVariable, 0),
    (GF(7), "x", UnknownVariable, 0),
    (GF(7), "2/14", ParseError, 2),
    (GF(7), "3)", ParseError, 1),
    (GF(2, 2), "", ParseError, 0),
])
def test_parse_scalar_errors_have_a_position(field, text, error, position):
    with pytest.raises(error) as info:
        parse_scalar(field, text)
    assert info.value.position == position


def test_large_extension_field_without_tables():
    # order 343 is above the lookup-table limit; digit arithmetic path
    f = GF(7, 3)
    assert f.order == 343 and f._mul_table is None
    rng = random.Random(3)
    for _ in range(200):
        a, b = f.random_element(rng), f.random_element(rng)
        assert f.mul(a, b) == f.mul(b, a)
        if a:
            assert f.mul(a, f.inv(a)) == f.one
    t = f.gen
    # t^343 = t (Frobenius fixed points of the full field)
    assert f.pow(t, 343) == t


def schoolbook_mul(field, a, b):
    """Product in GF(p^k) by the schoolbook loop on base-p digits, an
    oracle independent of `arith`'s polynomial routines."""
    p, k, modulus = field.p, field.k, field.modulus
    da, db = [], []
    for _ in range(k):
        da.append(a % p)
        db.append(b % p)
        a //= p
        b //= p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    v = 0
    for d in reversed(prod[:k]):
        v = v * p + d
    return v


def schoolbook_logs(field):
    """Powers of a primitive element g, and the log to base g of each
    nonzero element, from the schoolbook product."""
    for g in range(2, field.order):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = schoolbook_mul(field, x, g)
        if len(powers) == field.order - 1:
            return powers, {v: i for i, v in enumerate(powers)}


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                  (3, 2), (3, 3), (5, 2), (7, 2)])
def test_extension_tables_match_the_schoolbook_product(p, k):
    f = GF(p, k)
    q = f.order
    table = [[schoolbook_mul(f, a, b) for b in range(q)] for a in range(q)]
    assert f._mul_table == table
    assert f._inv_table == [0] + [row.index(1) for row in table[1:]]


@pytest.mark.parametrize("p, k", [(2, 8), (7, 3), (2, 10)])
def test_extension_arithmetic_matches_the_schoolbook_product(p, k):
    # GF(2^8) is the largest tabled field; GF(7^3) and GF(2^10) have no tables
    f = GF(p, k)
    assert (f._mul_table is None) == (f.order > 256)
    powers, log = schoolbook_logs(f)
    assert all(f.inv(a) == powers[-i % len(powers)] for a, i in log.items())
    rng = random.Random(f.order)
    for _ in range(2000):
        a, b, e = (rng.randrange(1, f.order), rng.randrange(f.order),
                   rng.randrange(f.order))
        assert f.mul(a, b) == schoolbook_mul(f, a, b)
        assert f.pow(a, e) == powers[log[a] * e % len(powers)]
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


def test_poly_remmod_trims_its_input():
    # zero high coefficients must not count as degree
    assert arith._poly_remmod([5, 3, 0, 0], (1, 1, 1), 7) == [5, 3]
    assert arith._poly_remmod([1, 0, 0], (1, 1, 1), 2) == [1]
