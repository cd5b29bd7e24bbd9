import pytest

from closurelab import groebner as groebner_module
from closurelab.errors import BudgetExceeded, NotZeroDimensional
from closurelab.groebner import (buchberger, normal_form, standard_monomials)
from closurelab.multipoly import parse_poly, parse_presentation


def gb_of(text):
    return buchberger(parse_presentation(text))


def test_monomial_ideal_is_its_own_basis():
    gb = gb_of("Q[x,y]/(x^2, y^2, xy)")
    assert sorted(str(g) for g in gb) == ["x*y", "x^2", "y^2"]
    assert standard_monomials(gb) == [(0, 0), (0, 1), (1, 0)]


def test_s_polynomial_closure():
    # under grevlex the leading term of x^2 + y^3 is y^3; the completed
    # basis gains x^3, and y^4 lies in the ideal
    gb = gb_of("Q[x,y]/(x^2 + y^3, xy)")
    assert sorted(str(g) for g in gb) == ["x*y", "x^3", "y^3 + x^2"]
    y4 = parse_poly("y^4", gb.ring)
    assert normal_form(y4, gb).is_zero()
    assert len(standard_monomials(gb)) == 5


def test_empty_relation_list():
    gb = gb_of("Q[x]/()")
    assert len(gb) == 0
    with pytest.raises(NotZeroDimensional):
        standard_monomials(gb)


def test_normal_form_examples():
    gb = gb_of("Q[x]/(x^2)")
    assert normal_form(parse_poly("x^3", gb.ring), gb).is_zero()
    gb2 = gb_of("Q[x,y]/((x,y)^2)")
    assert normal_form(parse_poly("x^2 + 2*x*y + y^2", gb2.ring), gb2).is_zero()
    gb3 = gb_of("Q[x,y]/(x^2 + y^3, xy)")
    assert normal_form(parse_poly("x^2*y", gb3.ring), gb3).is_zero()


def test_standard_monomials_dimensions():
    assert len(standard_monomials(gb_of("Q[x,y]/(x^2, y^2)"))) == 4
    assert standard_monomials(gb_of("Q[x]/(x^6)")) == [(e,) for e in range(6)]
    # 1 comes first, then ascending grevlex
    std = standard_monomials(gb_of("Q[x,y]/((x,y)^3)"))
    assert std[0] == (0, 0) and len(std) == 6
    # the unit ideal, seen or not, has the zero quotient
    for text in ("Q[x]/(1)", "Q[x]/(x^2, x - 1)", "F5[x]/(x^2, 5*x + 1)",
                 "Q[x,y]/(x*y - 1, x)"):
        assert standard_monomials(gb_of(text)) == []
    with pytest.raises(NotZeroDimensional):
        standard_monomials(gb_of("Q[x,y]/(x^2)"))


def test_generators_reduce_to_zero():
    for text in ("Q[x,y]/(x^2 + y^3, xy)", "Q[x,y,z]/(xy, z^2, xz - yz, x^2 + y^2 - xz)",
                 "Q[x,y]/(xy, x^3 + y^3)"):
        pres = parse_presentation(text)
        gb = buchberger(pres)
        for rel in pres.relations:
            assert normal_form(rel, gb).is_zero()


def test_normal_form_idempotent_and_linear():
    pres = parse_presentation("Q[x,y]/(x^2 + y^3, xy)")
    gb = buchberger(pres)
    import random
    rng = random.Random(7)
    ring = gb.ring
    from fractions import Fraction

    def rand_poly():
        out = ring.zero()
        for _ in range(5):
            exps = (rng.randint(0, 4), rng.randint(0, 4))
            out = out + ring.monomial(exps, Fraction(rng.randint(-5, 5)))
        return out

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        np_ = normal_form(p, gb)
        assert normal_form(np_, gb) == np_
        assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)


def test_dimension_matches_multiplication_action():
    # |standard monomials| equals the dimension of the span of 1 under
    # repeated multiplication by the variables, reduced by normal form
    for text in ("Q[x,y]/(x^2, y^2)", "Q[x,y]/(xy, x^3 + y^3)",
                 "Q[x,y,z]/((x,y,z)^2)", "Q[x,y]/(x^2 + y^3, xy)"):
        gb = buchberger(parse_presentation(text))
        ring = gb.ring
        std = standard_monomials(gb)
        basis_monos = {(0,) * ring.nvars}
        frontier = [(0,) * ring.nvars]
        while frontier:
            mono = frontier.pop()
            for v in range(ring.nvars):
                with_v = tuple(e + (1 if i == v else 0)
                               for i, e in enumerate(mono))
                reduced = normal_form(ring.monomial(with_v), gb)
                for mo in reduced.terms:
                    if mo not in basis_monos:
                        basis_monos.add(mo)
                        frontier.append(mo)
        assert len(basis_monos) == len(std)


def test_pair_budget_counts_popped_pairs(monkeypatch):
    # ten pairs are popped, coprime ones included, before the basis is
    # complete; one fewer allowed pair must stop the run
    text = "Q[x,y,z]/(x^2 - y*z, y^2 - x*z, z^2 - x*y, x^3)"
    full = len(gb_of(text))
    monkeypatch.setattr(groebner_module, "DEFAULT_PAIR_BUDGET", 10)
    assert len(gb_of(text)) == full
    monkeypatch.setattr(groebner_module, "DEFAULT_PAIR_BUDGET", 9)
    with pytest.raises(BudgetExceeded):
        gb_of(text)
