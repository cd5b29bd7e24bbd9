import contextlib
import copy
import functools
import gc
import hashlib
import io
import itertools
import math
import random
import time
import weakref
from fractions import Fraction as Fr

import pytest

from closurelab import closure as closure_module
from closurelab import finalg as finalg_module
from closurelab.arith import GF, QQ, is_prime, next_prime
from closurelab.catalog import table1_entries, table2_entries
from closurelab.closure import (ClosureResult, base_change_presentation,
                                closure_from_presentation, divides_check,
                                etale_closure_dim, galois_factor_count,
                                generic_char_poly, m_closure, modular_prime,
                                monogenic_algebra, monogenic_tower,
                                naive_closure, product_formula_dim,
                                reconstructed_last_map,
                                reduce_mod_prime, transform_monic)
from closurelab.errors import (BudgetExceeded, CertificateFailure,
                               DegreeTooSmall, InfiniteFieldUnsupported,
                               LengthMismatch, NotPrime,
                               UnsupportedField)
from closurelab.finalg import (AlgebraMap, LiftedMap, RowSpace,
                               algebra_from_presentation,
                               algebra_product, char_poly, vec_add_into)
from closurelab.multipoly import (PolyRing, parse_poly, parse_presentation,
                                  parse_univariate)
from closurelab.verify import upoly_mul
from flat_oracle import (_xp_gamma_mult, flat_closure, ideal_subspace_dim,
                         is_local_nilpotent, is_ring_morphism_pairwise,
                         j_generators, local_generators, mult_vec,
                         multiplier, tensor_power, tower_algebra)


# the rows of Table 1 that one element generates
TABLE1_MONOGENIC = ("(x^3)", "(x^4)", "(x^5)")

# Non-local inputs for the shift identity: étale, mixed, and over F2, F3.
SHIFT_INPUTS = ("Q[x]/(x^3 - x - 1)", "Q[x,y]/(x^2 - x, y^2)",
                "F2[x,y]/(x^2 + x, y^2)", "F3[x]/(x^3 - x - 1)")


def alg(text):
    return algebra_from_presentation(parse_presentation(text))


def sparse(coords):
    return {i: c for i, c in enumerate(coords) if c}


def power(a, vec, e):
    out = a.unit()
    for _ in range(e):
        out = mult_vec(a, out, vec)
    return out


def vec_sum(fieldh, *vecs):
    out = {}
    for vec in vecs:
        vec_add_into(fieldh, out, vec)
    return out


# -- generic characteristic polynomial


def test_generic_char_poly_square_zero():
    a = alg("Q[x,y]/((x,y)^2)")
    g = generic_char_poly(a)
    # (Z - X1)^3: coefficients -X1^3, 3X1^2, -3X1, 1
    assert [str(c) for c in g.coeffs] == ["-X1^3", "3*X1^2", "-3*X1", "1"]


def test_generic_char_poly_trace():
    a = alg("Q[x]/(x^3)")
    g = generic_char_poly(a)
    assert str(g.coeffs[2]) == "-3*X1"


def test_generic_char_poly_specialization_oracle():
    rng = random.Random(20260808)
    k = alg("Q[x]/(x)")
    kk = algebra_product(k, k)
    for a in (alg("Q[x,y]/(xy, x^3 + y^3)"), kk, alg("Q[x,y]/(x^2, y^2)")):
        g = generic_char_poly(a)
        for _ in range(10):
            point = [Fr(rng.randint(-5, 5)) for _ in range(a.dim)]
            assert ([c.evaluate(point) for c in g.coeffs]
                    == char_poly(a, sparse(point)))


def test_unit_free_char_poly_is_p_at_x1_zero():
    # P'(Z) = P(Z + X1) is free of X1, so it is P with X1 = 0; over Q, F2,
    # F4 and a 30-bit GF(p) of the default modular mode
    over_q = [parse_presentation(t) for t in
              ("Q[x]/(x^5 - x - 1)", "Q[x,y]/(x^2 - x, y^3)",
               "Q[x,y]/(xy, x^3 + y^3)")]
    over_f2 = [parse_presentation(t) for t in
               ("F2[x,y]/(x^2 + x + 1, y^2)", "F2[x]/(x^4 + x + 1)")]
    presentations = over_q + over_f2
    presentations += [base_change_presentation(p, GF(2, 2)) for p in over_f2]
    presentations += [base_change_presentation(p, GF(1073741789))
                      for p in over_q]
    kinds = set()
    for pres in presentations:
        a = algebra_from_presentation(pres)
        kinds.add(a.field)
        full = generic_char_poly(a).coeffs
        free = generic_char_poly(a, unit_free=True).coeffs
        assert len(full) == len(free) == a.dim + 1
        for f, g in zip(full, free):
            assert g.terms == {mono: c for mono, c in f.terms.items()
                               if mono[0] == 0}
        assert any(len(f.terms) > len(g.terms) for f, g in zip(full, free))
    assert len(kinds) == 4


def _berkowitz_unit_free(monkeypatch, a):
    """P' by Berkowitz, with the nilpotent shortcut switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(closure_module, "_nilpotent", lambda a, i: False)
        return generic_char_poly(a, unit_free=True).coeffs


def test_unit_free_char_poly_of_a_local_algebra_is_z_to_the_n(monkeypatch):
    # every Table 1 and Table 2 input is local, so P' = Z^n comes without
    # Berkowitz; the non-local SHIFT_INPUTS run it.  Over Q, a 30-bit
    # GF(p) and GF(4), P' agrees with Berkowitz's
    texts = [entry.presentation() for entry in table1_entries() + table2_entries()]
    texts += [parse_presentation(t) for t in SHIFT_INPUTS]
    shortcuts = 0
    for pres in texts:
        fields = [pres.field]
        if pres.field == QQ():
            fields += [GF(1073741789), GF(2, 2)]
        elif pres.field == GF(2):
            fields += [GF(2, 2)]
        for fieldh in fields:
            a = algebra_from_presentation(
                base_change_presentation(pres, fieldh)
                if fieldh != pres.field else pres)
            free = generic_char_poly(a, unit_free=True).coeffs
            assert free == _berkowitz_unit_free(monkeypatch, a)
            shortcuts += free[:-1] == [free[0].ring.zero()] * a.dim
    assert shortcuts == 3 * (len(table1_entries()) + len(table2_entries()))


def _slot_remainders(fieldh, zcoeffs, times, slot_mults):
    """The remainders of the chain of divisions of `zcoeffs` by
    (Z - gamma_1), (Z - gamma_2), ..., where times(slot_mults[s]) multiplies
    by gamma_s."""
    rems = []
    for mults in slot_mults:
        zcoeffs, rem = closure_module._synthetic_divide(fieldh, zcoeffs,
                                                        times(mults))
        rems.append(rem)
    return rems


@pytest.mark.parametrize(
    "pres", [entry.presentation() for entry in table1_entries()]
    + [parse_presentation(text) for text in SHIFT_INPUTS], ids=str)
def test_gamma_and_gamma_prime_leave_the_same_slot_remainders(pres):
    # the shift identity behind the production seed: dividing P by the
    # (Z - gamma_s) and P' by the (Z - gamma'_s), gamma' = gamma - X_1,
    # leaves the same remainders in the tensor cube of A (square for
    # n = 2).  The gamma chain is the flat oracle's, one operator per basis
    # element; the gamma' chain is the seed's, along A's generator tree
    a = algebra_from_presentation(pres)
    one, n = a.field.one, a.dim
    strides = [n ** s for s in reversed(range(min(n, 3)))]
    full = _slot_remainders(
        a.field, closure_module._lift_scalar_coeffs(generic_char_poly(a).coeffs),
        lambda mults: functools.partial(_xp_gamma_mult, mults),
        [[finalg_module.stride_multiplier(a, {i: one}, stride)
          for i in range(n)] for stride in strides])
    seed = closure_module._generic_seed(a)
    shifted = _slot_remainders(
        a.field, seed.coeffs, seed.times,
        [[finalg_module.stride_multiplier(a, x, stride) for x in seed.elements]
         for stride in strides])
    assert full == shifted


@pytest.mark.parametrize("text", ["Q[x,y]/(x^2 - x, y^2)", "Q[x]/(x^3 - x - 1)"])
def test_the_nilpotent_shortcut_needs_every_basis_element_nilpotent(
        monkeypatch, text):
    # an idempotent x, or a field: Berkowitz runs, and P' is not Z^n
    calls = []
    real = closure_module.berkowitz_charpoly
    monkeypatch.setattr(closure_module, "berkowitz_charpoly",
                        lambda *args: calls.append(1) or real(*args))
    a = alg(text)
    free = generic_char_poly(a, unit_free=True).coeffs
    assert calls == [1]
    assert any(c.terms for c in free[:-1])


# -- generator schedules


def test_j_generators_dual_numbers():
    a = alg("Q[x]/(x^2)")
    tensor, gens = j_generators(a, 2)
    nonzero = [g for g in gens if g]
    # slot 1 vanishes by Cayley-Hamilton; slot 2 leaves x(x)1 + 1(x)x
    assert len(nonzero) == 1
    dim, _ = ideal_subspace_dim(tensor, nonzero)
    assert dim == 2


def test_j_generators_slot_one_is_cayley_hamilton():
    for text in ("Q[x]/(x^3)", "Q[x,y]/((x,y)^2)"):
        a = alg(text)
        _, gens = j_generators(a, 1)
        assert not any(gens)


def test_j_generators_square_zero_plane():
    a = alg("Q[x,y]/((x,y)^2)")
    tensor, gens = j_generators(a, 2)
    dim, _ = ideal_subspace_dim(tensor, gens)
    assert dim == 3                       # closure dimension 9 - 3 = 6
    assert m_closure(a, 2).dim == 6


def test_local_generators_match_general_schedule():
    for text, m in (("Q[x]/(x^3)", 2), ("Q[x,y]/(x^2, y^2)", 2),
                    ("Q[x,y]/(x^2, y^2)", 3), ("Q[x,y,z]/((x,y,z)^2)", 3)):
        a = alg(text)
        dj, _ = ideal_subspace_dim(*j_generators(a, m))
        dl, _ = ideal_subspace_dim(*local_generators(a, m))
        assert dj == dl


def test_local_generators_require_local():
    k = alg("Q[x]/(x)")
    kk = algebra_product(k, k)
    with pytest.raises(ValueError, match="not local"):
        local_generators(kk, 2)


def test_local_generators_f2_cube_structure():
    # square-zero over F2: the slot-3 relations collapse to symmetrized cubes
    a = alg("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    tensor, gens = local_generators(a, 3)
    dim, _ = ideal_subspace_dim(tensor, gens)
    assert dim == 20                     # one per degree-3 monomial in 4 vars
    assert m_closure(a, 3).dim == 105


# -- closures: special cases and small tables


def test_trivial_cases():
    zero = alg("Q[x]/(x^2, x - 1)")     # the unit ideal
    assert zero.dim == 0
    assert [m_closure(zero, m).dim for m in (0, 1, 2)] == [1, 0, 0]
    a = alg("Q[x,y]/(x^2, y^2)")
    assert m_closure(a, 0).dim == 1
    r1 = m_closure(a, 1)
    assert r1.dim == 4
    assert all(r1.maps[0].rows[i] == {i: Fr(1)} for i in range(4))
    assert m_closure(a, 5).dim == 0
    assert m_closure(a, 7).dim == 0


def test_maps_past_the_budget_are_refused(monkeypatch):
    # m > n gives m zero maps of n rows each; the zero algebra (n = 0) still
    # gets m maps.  Both are refused before any is built.
    start = time.perf_counter()
    for text in ("Q[x]/(x^2)", "Q[x]/(1)"):
        with pytest.raises(BudgetExceeded):
            m_closure(alg(text), 10 ** 12)
    assert time.perf_counter() - start < 1
    monkeypatch.setenv("CLOSURELAB_BUDGET", "12")
    for text, n in (("Q[x]/(x^2)", 2), ("Q[x]/(1)", 0)):
        a = alg(text)
        last = 12 // max(n, 1)
        assert len(m_closure(a, last).maps) == last
        with pytest.raises(BudgetExceeded):
            m_closure(a, last + 1)


@pytest.mark.parametrize("text,m,expected", [
    ("Q[x]/(x^3)", 2, 6),
    ("Q[x,y]/((x,y)^2)", 2, 6),
    ("Q[x]/(x^4)", 3, 24),
    ("Q[x,y]/(x^2, y^2)", 2, 13),
    ("Q[x,y]/(x^2, y^2)", 3, 26),
    ("Q[x,y,z]/((x,y,z)^2)", 2, 16),
    ("Q[x,y,z]/((x,y,z)^2)", 3, 32),
    ("Q[x]/(x^5)", 3, 60),
    ("Q[x,y,z,w]/((x,y,z,w)^2)", 2, 25),
    ("Q[x,y]/(xy, x^3 + y^3)", 3, 138),
])
def test_small_table_dimensions(text, m, expected):
    assert m_closure(alg(text), m).dim == expected


def test_char2_deviation():
    a = alg("F2[x,y]/(x^2,y^2)")
    assert m_closure(a, 2).dim == 16
    assert m_closure(a, 3).dim == 32


def assert_same_closure(result, flat):
    """Dimension, rank, canonical basis labels and map rows all agree."""
    assert result.dim == flat.dim
    assert result.rank == flat.rank
    labels = [result.closure.label_str(i) for i in range(result.dim)]
    assert labels == [flat.closure.label_str(i) for i in range(flat.dim)]
    assert [mp.rows for mp in result.maps] == [mp.rows for mp in flat.maps]


def test_flat_and_staged_agree():
    for text, m in (("Q[x,y]/(x^2, y^2)", 3), ("Q[x]/(x^5)", 3),
                    ("Q[x,y,z]/((x,y,z)^2)", 4), ("Q[x,y]/(x^3, y^2, xy)", 3)):
        a = alg(text)
        staged = m_closure(a, m)
        assert staged.strategy == "staged" and len(staged.stage_dims) == m
        assert_same_closure(staged, flat_closure(a, m))
        assert staged.rank == a.dim ** m - staged.dim


def test_flat_maps_factor_through_the_projection():
    # each structural map of the flat oracle is the slot embedding composed
    # with the quotient projection of the tensor power
    a = alg("Q[x,y]/(x^2, y^2)")
    result = flat_closure(a, 2)
    _, embeddings = tensor_power(a, 2)
    quot = result.closure
    for emb, mp in zip(embeddings, result.maps):
        assert [quot.project(row) for row in emb.rows] == mp.rows


def test_production_matches_flat_oracle():
    # every Table 1 cell with m <= 3, also against the oracle's local
    # shortcut on every local row, and the naive counterexample over F2
    # and F4
    for entry in table1_entries():
        a = entry.algebra()
        local = is_local_nilpotent(a)
        for m in range(2, min(3, a.dim) + 1):
            staged = m_closure(a, m)
            assert_same_closure(staged, flat_closure(a, m))
            if local:
                assert_same_closure(staged, flat_closure(a, m, "local-shortcut"))
    pres = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    for p, dim in ((pres, 111), (base_change_presentation(pres, GF(2, 2)), 105)):
        a = algebra_from_presentation(p)
        naive = naive_closure(a, 3)
        assert naive.dim == dim and naive.strategy == "staged"
        assert_same_closure(naive, flat_closure(a, 3, "naive"))


# Non-local inputs: production divides by gamma - X1, the flat oracle by
# gamma, so agreement checks the shift identity where P' is not Z^n.
NONLOCAL_ORACLE_INPUTS = ("Q[x]/(x^5-x-1)", "Q[x]/(x^3-x^2)", "F3[x]/(x^3-x-1)")


def test_production_matches_flat_oracle_on_nonlocal_inputs():
    for text in NONLOCAL_ORACLE_INPUTS:
        a = alg(text)
        assert not is_local_nilpotent(a)
        for m in (2, 3):
            assert_same_closure(m_closure(a, m), flat_closure(a, m))


# Table 1 rows of dimension 5 whose flat 5-fold tensor power closes in
# under a second; the other n = 5 rows take longer and add no new shape.
LAST_STAGE_N5_ROWS = ("(x^3, y^3, xy)", "(x, y, z, w)^2")


def test_last_stage_matches_flat_oracle():
    # the m = n stage is the kernel of the trace map, inserted without the
    # closure loop; the flat oracle closes the whole tensor power instead
    for entry in table1_entries():
        a = entry.algebra()
        if a.dim <= 4 or entry.name in LAST_STAGE_N5_ROWS:
            assert_same_closure(m_closure(a, a.dim), flat_closure(a, a.dim))
    for text in ("F2[x,y]/(x^2, y^2)", "F2[x1,x2,x3]/((x1,x2,x3)^2)"):
        a = alg(text)
        n = a.dim
        staged = m_closure(a, n)
        assert_same_closure(staged, flat_closure(a, n))
        assert_same_closure(staged, flat_closure(a, n, "local-shortcut"))
        assert_same_closure(naive_closure(a, n), flat_closure(a, n, "naive"))


def test_last_stage_rejects_a_wrong_last_map(monkeypatch):
    # without its trace term the last map is not unital, so not a ring
    # morphism; map_1 is a ring morphism, but the slot-n seeds lie outside
    # its kernel.  Either way the stage must fail, not return a result.
    def without_trace(a, closure, maps):
        minus_one = a.field.neg(a.field.one)
        rows = []
        for j in range(a.dim):
            row = {}
            for mp in maps:
                vec_add_into(a.field, row, mp.rows[j], minus_one)
            rows.append(row)
        return AlgebraMap(a, closure, rows)

    def first_map(a, closure, maps):
        return maps[0]

    # trace(1) = n is nonzero in each field, so dropping it changes the map;
    # the idempotent x of the last input also has a nonzero trace
    for wrong in (without_trace, first_map):
        monkeypatch.setattr(closure_module, "reconstructed_last_map", wrong)
        for text in ("Q[x]/(x^3)", "Q[x,y]/(x^2, y^2)", "F3[x,y]/(x^2, y^2)",
                     "Q[x,y]/(x^2 - x, y^2)"):
            a = alg(text)
            with pytest.raises(CertificateFailure):
                m_closure(a, a.dim)
            assert m_closure(a, a.dim - 1).dim > 0     # earlier stages unaffected


def test_last_stage_rejects_a_seed_outside_the_trace_kernel(monkeypatch):
    # 1 x x, column 1 of C x A, goes to last(x) != 0 under c x a -> c*last(a)
    checked = closure_module._last_map

    def with_mutant(pair, maps, seeds):
        return checked(pair, maps, seeds + [{1: pair.field.one}])

    monkeypatch.setattr(closure_module, "_last_map", with_mutant)
    for text in ("Q[x]/(x^2)", "Q[x]/(x^3)", "F3[x,y]/(x^2, y^2)",
                 "Q[x,y]/(x^2 - x, y^2)"):
        a = alg(text)
        with pytest.raises(CertificateFailure, match="outside the trace kernel"):
            m_closure(a, a.dim)


def _record_quotients(monkeypatch):
    """The widths of the algebras that the pipeline builds quotients of."""
    widths = []

    class Recorded(closure_module.QuotientAlgebra):
        def __init__(self, parent, span):
            widths.append(parent.dim)
            super().__init__(parent, span)

    monkeypatch.setattr(closure_module, "QuotientAlgebra", Recorded)
    return widths


@pytest.mark.parametrize("text", ["Q[x]/(x^2)", "Q[x]/(x^3)",
                                  "Q[x,y]/(x^2, y^2)", "F2[x,y]/(x^2, y^2)",
                                  "Q[x]/(x^3-x-1)"])
def test_last_stage_builds_the_canonical_quotient_once_when_read(monkeypatch, text):
    widths = _record_quotients(monkeypatch)
    a = alg(text)
    n = a.dim
    result = m_closure(a, n)
    # stage s quotients a pair of width stage_dims[s - 2] * n
    pair_widths = [d * n for d in result.stage_dims[:-1]]
    assert widths == pair_widths[:-1]
    assert result.dim == result.stage_dims[-1] == result.stage_dims[-2]
    assert result.rank == n ** n - result.dim
    assert result.generator_count == sum(st.generators for st in result.stages)
    assert divides_check(result)["certified"]
    assert widths == pair_widths[:-1]
    closure, maps = result.closure, result.maps
    assert widths == pair_widths
    assert result.closure is closure and result.maps is maps
    assert widths == pair_widths
    assert closure.dim == result.dim and len(maps) == n
    assert divides_check(result)["certified"]


def test_m_equals_n_records_build_no_canonical_quotient(monkeypatch, capsys):
    from closurelab.catalog import load_manifest
    from closurelab.cli import main
    widths = _record_quotients(monkeypatch)
    # every Table 1 row runs to m = n: stages 2 .. n - 1 build quotients,
    # except on a monogenic row, whose one quotient is the one-point
    # 2-closure
    assert main(["table", "--manifest", "table1.json", "--json"]) == 0
    assert len(widths) == sum(
        1 if e.name in TABLE1_MONOGENIC else e.algebra().dim - 2
        for e in load_manifest("table1.json"))
    del widths[:]
    close = ["close", "--algebra", "Q[x,y]/(x^2, y^2)", "--m", "4"]
    capsys.readouterr()
    assert main(close) == 0 and capsys.readouterr().out == "dim = 26\n"
    assert widths == [16, 52]
    # the second close resumes the first's run at its last stage: only the
    # canonical quotient, which --emit full reads, is new
    assert main(close + ["--emit", "full"]) == 0
    assert widths == [16, 52, 104]


def test_last_map_is_trace_minus_the_others():
    a = alg("Q[x,y]/(x^2, y^2 - x)")
    res = m_closure(a, a.dim - 1)
    last = reconstructed_last_map(a, res.closure, res.maps)
    for j in range(a.dim):
        total = dict(last.rows[j])
        for mp in res.maps:
            for k, v in mp.rows[j].items():
                total[k] = total.get(k, 0) + v
        trace = -char_poly(a, {j: Fr(1)})[a.dim - 1]
        assert {k: v for k, v in total.items() if v} == ({0: trace} if trace else {})
    assert last.is_ring_morphism()


def test_local_shortcut_stages_past_the_tensor_power():
    # (x^6) at m=5 would need a 7776-wide tensor power flat
    a = alg("Q[x]/(x^6)")
    local = m_closure(a, 5)
    assert local.dim == 720 and local.stage_dims == (6, 30, 120, 360, 720)
    assert local.strategy == "staged"


def test_maps_are_ring_morphisms_and_certified():
    for text, m in (("Q[x]/(x^4)", 3), ("Q[x,y]/(x^2, y^2)", 2),
                    ("F2[x,y]/(x^2,y^2)", 2)):
        result = m_closure(alg(text), m)
        for mp in result.maps:
            assert mp.is_ring_morphism()
        cert = divides_check(result)
        assert cert["certified"]


def test_divides_check_requires_unital_maps():
    # the certificate divides by map_s(gamma - X1), which stands for
    # map_s(gamma) only when map_s(1) = 1
    a = alg("Q[x,y]/(x^2 - x, y^2)")
    result = m_closure(a, 2)
    assert divides_check(result)["certified"]
    scaled = AlgebraMap(a, result.closure,
                        [{k: 2 * v for k, v in row.items()}
                         for row in result.maps[1].rows])
    result.maps[1] = scaled
    with pytest.raises(CertificateFailure, match="map 2 is not unital"):
        divides_check(result)


@pytest.mark.parametrize("text", ["Q[x]/(x^2)", "F7[x]/(x^3)"])
def test_divides_check_rejects_a_repeated_map(text):
    # two equal slots: the slot-2 quotient evaluated at gamma'_1 is
    # n * gamma'_1^(n-1), nonzero in the closure
    result = m_closure(alg(text), 2)
    assert divides_check(result)["certified"]
    result.maps[1] = result.maps[0]
    with pytest.raises(CertificateFailure,
                       match="slot 2 remainder is nonzero in the closure"):
        divides_check(result)


def test_divides_check_vacuous_cases():
    a = alg("Q[x]/(x^2)")
    assert divides_check(m_closure(a, 0))["mode"] == "vacuous"
    assert divides_check(m_closure(a, 3))["mode"] == "vacuous"
    assert divides_check(m_closure(a, 1))["certified"]


def test_divides_check_certifies_a_large_closure():
    result = m_closure(alg("Q[x]/(x^6)"), 5)
    assert result.dim == 720
    assert divides_check(result) == {"certified": True, "mode": "recomputed"}


def _break_last_map(monkeypatch, a):
    """Make `_quotient_maps` send x^2 to 0 under its last map, whose
    operators stay those of the map it replaces: unital and linear, but x*x
    goes to the square of x's image, which is not 0.  The pairwise oracle
    rejects it too."""
    quotient_maps = closure_module._quotient_maps

    def broken(quot, maps, ident):
        out = quotient_maps(quot, maps, ident)
        bad = copy.copy(out[-1])
        bad.rows = [quot.unit(), out[-1].rows[1], {}]
        assert not is_ring_morphism_pairwise(bad)
        return out[:-1] + [bad]

    monkeypatch.setattr(closure_module, "_quotient_maps", broken)


@pytest.mark.parametrize("text", ["Q[x]/(x^3)", "F7[x]/(x^3)"])
def test_map_check_rejects_a_unital_map_that_is_not_multiplicative(
        text, monkeypatch):
    # each stage's maps are checked where the stage makes them
    a = alg(text)
    assert all(mp.is_ring_morphism() and is_ring_morphism_pairwise(mp)
               for mp in m_closure(a, 2).maps)
    _break_last_map(monkeypatch, a)
    with pytest.raises(CertificateFailure,
                       match="structural map 2 is not a ring morphism"):
        m_closure(a, 2)


def test_first_read_checks_the_canonical_maps(monkeypatch):
    # at m = n the first read builds the canonical pair and checks its maps
    a = alg("Q[x]/(x^3)")
    # read on a run of its own: `result` is first read once the map breaks
    assert all(is_ring_morphism_pairwise(mp) for mp in m_closure(a, 3).maps)
    result = m_closure(a, 3)
    _break_last_map(monkeypatch, a)
    with pytest.raises(CertificateFailure,
                       match="structural map 3 is not a ring morphism"):
        result.closure


def test_each_map_is_checked_once(monkeypatch):
    # a tower record's first read builds the closure from its point, whose
    # maps were checked where they were made; at m = n the canonical maps
    # too
    checked = []
    is_ring_morphism = AlgebraMap.is_ring_morphism

    def recorded(mp):
        checked.append(mp)
        return is_ring_morphism(mp)

    monkeypatch.setattr(AlgebraMap, "is_ring_morphism", recorded)
    for text in ("Q[x]/(x^6)", "Q[x]/(x^5)"):
        checked.clear()
        result, _ = closure_from_presentation(parse_presentation(text), 5)
        assert result.method == "tower"
        maps = result.maps
        assert len({id(mp) for mp in checked}) == len(checked)
        assert all(any(mp is seen for seen in checked) for mp in maps)
    # ascending calls on one presentation resume one run, whose stage maps
    # are checked by the first result that hands them out: a tower call at
    # m >= 3 reads the 2-closure again, but checks none of its maps
    for text, top in (("Q[x]/(x^6)", 5), ("Q[x]/(x^5)", 5),
                      ("Q[x,y]/(x^2, y^2)", 4)):
        checked.clear()
        pres = parse_presentation(text)
        for m in range(2, top + 1):
            maps = closure_from_presentation(pres, m)[0].maps
            assert all(any(mp is seen for seen in checked) for mp in maps)
        assert len({id(mp) for mp in checked}) == len(checked), text


def test_rank_two_involution():
    # the 2-closure of a rank-2 algebra is the algebra with a -> tr(a) - a
    a = alg("Q[x]/(x^2)")
    result = m_closure(a, 2)
    assert result.dim == 2
    alpha2 = result.maps[1]
    image_of_x = alpha2.rows[1]
    alpha1 = result.maps[0]
    # alpha1(x) + alpha2(x) = trace(x) = 0 in the closure
    total = dict(alpha1.rows[1])
    for k, v in image_of_x.items():
        total[k] = total.get(k, Fr(0)) + v
    assert not any(total.values())


# -- naive closure


def test_naive_closure_counterexample():
    pres = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
    a2 = algebra_from_presentation(pres)
    assert naive_closure(a2, 3).dim == 111   # the 15 cube tensors have rank 14
    a4 = algebra_from_presentation(
        base_change_presentation(pres, GF(2, 2)))
    assert naive_closure(a4, 3).dim == 105
    assert m_closure(a2, 3).dim == m_closure(a4, 3).dim == 105


def test_naive_closure_m1_and_infinite_field():
    # m = 0, 1 and m > n give K, A and 0, as m_closure does, the zero
    # algebra included; a negative m is rejected by every seed alike
    for text in ("F2[x,y]/(x^2,y^2)", "F2[x]/(1)"):
        a = alg(text)
        for m in (0, 1, a.dim + 1):
            assert naive_closure(a, m).dim == m_closure(a, m).dim, (text, m)
    assert naive_closure(a, 0).dim == 1 and naive_closure(a, 1).dim == 0
    for closure in (naive_closure, m_closure):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            closure(alg("F2[x]/(x^2)"), -1)
    with pytest.raises(InfiniteFieldUnsupported):
        naive_closure(alg("Q[x]/(x^2)"), 2)


def test_naive_equals_true_closure_on_small_field_case():
    a = alg("F2[x,y]/(x^2,y^2)")
    assert naive_closure(a, 2).dim == m_closure(a, 2).dim == 16


def test_naive_closure_checks_its_maps(monkeypatch):
    # m < n, so no last-stage trace check runs first: the map certificate
    # that general closures get is what raises
    monkeypatch.setattr(AlgebraMap, "is_ring_morphism", lambda self: False)
    with pytest.raises(CertificateFailure, match="structural map 1 is not"):
        naive_closure(alg("F2[x,y]/(x^2,y^2)"), 2)


def test_naive_closure_checks_cayley_hamilton(monkeypatch):
    # P_a + 1 is not annihilated by a, so the naive slot-1 remainders are
    # nonzero; the general pipeline divides its own generic P and is
    # untouched
    original = finalg_module.berkowitz_charpoly

    def shifted(matrix, ops):
        coeffs = original(matrix, ops)
        return [ops.add(coeffs[0], ops.one)] + coeffs[1:]

    monkeypatch.setattr(finalg_module, "berkowitz_charpoly", shifted)
    a = alg("F2[x,y]/(x^2,y^2)")
    with pytest.raises(CertificateFailure,
                       match="Cayley-Hamilton remainder is nonzero"):
        naive_closure(a, 2)
    assert m_closure(a, 2).dim == 16


def test_naive_enumeration_budget():
    from closurelab.errors import BudgetExceeded
    a = alg("F101[x,y,z]/((x,y,z)^2)")         # 101^3 coset representatives
    with pytest.raises(BudgetExceeded):
        naive_closure(a, 2)


def test_modular_mode_rejects_vanishing_denominators(monkeypatch):
    # a prime that divides a denominator has no image of the input; the
    # modular mode takes the next prime instead
    monkeypatch.setenv("CLOSURELAB_PRIMES", "2147483629")
    pres = parse_presentation("Q[x]/(x^2 - 1/2147483629)")
    res, mode = closure_from_presentation(pres, 2)
    exact, _ = closure_from_presentation(pres, 2, exact=True)
    assert res.dim == exact.dim == 2
    assert mode == f"mod {next_prime(2147483630)}"


# -- monogenic towers and the transform


def test_monogenic_tower_dimensions():
    q = QQ()
    t = monogenic_tower([Fr(0), Fr(0), Fr(0), Fr(1)], 2, q)   # Z^3
    assert t.dim == 6
    t2 = monogenic_tower([Fr(-1), Fr(0), Fr(0), Fr(0), Fr(0), Fr(1)], 5, q)
    assert t2.dim == 120
    with pytest.raises(DegreeTooSmall):
        monogenic_tower([Fr(1), Fr(1), Fr(1)], 3, q)


def test_monogenic_tower_over_integers():
    for f in ([Fr(1), Fr(0), Fr(0), Fr(0), Fr(1)],             # Z^4 + 1
              [5, -3, 0, 1]):                                  # Z^3 - 3Z + 5
        n = len(f) - 1
        t = monogenic_tower(f, 2, None)
        assert t.base == "Z" and t.dim == n * (n - 1)
        assert len(t.relations) == 2
        # the oracle over Z is the tower over Q, whose structure constants
        # are integers
        a, _ = tower_algebra(f, 2, None)
        q, _ = tower_algebra(f, 2, QQ())
        assert a.field == q.field == QQ() and a.labels == q.labels
        table = [a.basis_product(i, j) for i in range(a.dim) for j in range(a.dim)]
        assert table == [q.basis_product(i, j)
                         for i in range(q.dim) for j in range(q.dim)]
        assert all(c.denominator == 1 for vec in table for c in vec.values())
    with pytest.raises(ValueError, match="monic"):
        monogenic_tower([1, 0, 2], 1, None)                     # 2Z^2 + 1


def test_integer_tower_rejects_fractional_coefficients():
    with pytest.raises(ValueError, match="integer coefficients"):
        monogenic_tower([Fr(1, 2), 0, 1], 2, None)              # Z^2 + 1/2
    # the checks on f come before the one on m, as in the command line
    with pytest.raises(ValueError, match="integer coefficients"):
        monogenic_tower([Fr(1, 2), 0, 1], 3, None)
    with pytest.raises(ValueError, match="monic"):
        monogenic_tower([1, 0, 2], 3, None)


def test_tower_relations_are_the_division_remainders():
    t = monogenic_tower([-2, 0, 0, 1], 3, None)                 # Z^3 - 2
    assert t.relations == ("x1^3 - 2", "x1^2 + x1*x2 + x2^2", "x1 + x2 + x3")


@pytest.mark.parametrize("fieldh", [QQ(), GF(7)], ids=["Q", "F7"])
def test_tower_with_lower_terms(fieldh):
    # Z^3 + Z + 1 = (Z - x1)(Z^2 + x1 Z + x1^2 + 1), and the quadratic
    # factor is (Z - x2)(Z + x1 + x2) once x2 is a root
    one = fieldh.one
    t = monogenic_tower([one, one, fieldh.zero, one], 3, fieldh)
    assert t.relations == ("x1^3 + x1 + 1", "x1^2 + x1*x2 + x2^2 + 1",
                           "x1 + x2 + x3")
    a, maps = tower_algebra([one, one, fieldh.zero, one], 3, fieldh)
    assert t.dim == a.dim == 6
    # map i sends x to x_(i+1), the images satisfy the relations, and the
    # monomials x1^e1 x2^e2 with e1 < 3, e2 < 2 are a basis: the tower is
    # free on them
    assert all(mp.is_ring_morphism() for mp in maps)
    x1, x2, x3 = (mp.rows[1] for mp in maps)
    mul = a.mult_vec
    assert vec_sum(fieldh, power(a, x1, 3), x1, a.unit()) == {}
    assert vec_sum(fieldh, mul(x1, x1), mul(x1, x2), mul(x2, x2), a.unit()) == {}
    assert vec_sum(fieldh, x1, x2, x3) == {}
    monomials = RowSpace(fieldh)
    for e1, e2 in itertools.product(range(3), range(2)):
        monomials.add(mul(power(a, x1, e1), power(a, x2, e2)))
    assert monomials.rank == 6
    if fieldh.char == 7:
        q, _ = tower_algebra([1, 1, 0, 1], 3, QQ())
        reduced = reduce_mod_prime(q, 7)
        assert reduced.field == fieldh and reduced.labels == a.labels
        assert all(reduced.basis_product(i, j) == a.basis_product(i, j)
                   for i in range(6) for j in range(6))


TOWER_CASES = [("Z^4+1", 3, QQ(), 24), ("Z^3+Z+1", 3, GF(7), 6),
               ("x^3+t^2x^2+t", 2, GF(7, 3), 6), ("Z^3-3Z+5", 2, None, 6)]


@pytest.mark.parametrize("text,m,fieldh,dim", TOWER_CASES,
                         ids=["Q", "F7", "GF343", "Z"])
def test_tower_oracle_has_the_tower_dim(text, m, fieldh, dim):
    f, _ = parse_univariate(text, fieldh or QQ())
    algebra, maps = tower_algebra(f, m, fieldh)
    assert algebra.dim == monogenic_tower(f, m, fieldh).dim == dim
    assert len(maps) == m and all(mp.is_ring_morphism() for mp in maps)


def relation_value(closure, roots, relation):
    """A polynomial in x1..xm evaluated at the roots in the closure."""
    fieldh = closure.field
    out = {}
    for mono, c in relation.terms.items():
        term = closure.unit()
        for root, e in zip(roots, mono):
            term = mult_vec(closure, term, power(closure, root, e))
        vec_add_into(fieldh, out, term, c)
    return out


@pytest.mark.parametrize("text,m,exact", [
    ("Q[x]/(x^4+1)", 3, True), ("F7[x]/(x^3+x+1)", 3, False),
    ("GF(7,3)[x]/(x^3 + t^2x^2 + t)", 2, False)])
def test_point_closure_satisfies_the_printed_relations(text, m, exact):
    pres = parse_presentation(text)
    result, _ = closure_from_presentation(pres, m, exact)
    a = result.input_algebra
    assert a.generator_elements()[0][1] == {1: a.field.one}    # x is e_1
    f = char_poly(a, {1: a.field.one})
    tower = monogenic_tower(f, m, a.field)
    closure, maps = result.closure, result.maps
    assert result.dim == closure.dim == tower.dim
    roots = [mp.rows[1] for mp in maps]
    ring = PolyRing(a.field, tuple(f"x{i + 1}" for i in range(m)))
    for relation in tower.relations:
        assert relation_value(closure, roots, parse_poly(relation, ring)) == {}, \
            relation


def test_tower_agrees_with_pipeline():
    rng = random.Random(20260808)
    f7 = GF(7)
    for _ in range(8):
        deg = rng.randint(2, 4)
        coeffs = [f7.random_element(rng) for _ in range(deg)] + [f7.one]
        m = rng.randint(1, min(3, deg))
        tower = monogenic_tower(coeffs, m, f7)
        oracle, maps = tower_algebra(coeffs, m, f7)
        a = monogenic_algebra(f7, coeffs)
        assert m_closure(a, m).dim == oracle.dim == tower.dim
        assert all(mp.is_ring_morphism() for mp in maps)


def test_transform_examples():
    q = QQ()
    f = [Fr(-6), Fr(11), Fr(-6), Fr(1)]                 # roots 1, 2, 3
    sq = transform_monic(f, [Fr(0), Fr(0), Fr(1)], q)
    assert sq == [Fr(-36), Fr(49), Fr(-14), Fr(1)]      # roots 1, 4, 9
    assert transform_monic(f, [Fr(0), Fr(1)], q) == f   # identity transform
    # generic cubic identity, constant term is -r3^2 (no Z factor)
    r1, r2, r3 = Fr(2), Fr(-3), Fr(5)
    got = transform_monic([-r3, r2, -r1, Fr(1)], [Fr(0), Fr(0), Fr(1)], q)
    assert got == [-r3 * r3, r2 * r2 - 2 * r1 * r3, -(r1 * r1 - 2 * r2), Fr(1)]


def test_transform_multiplicative():
    rng = random.Random(5)
    f101 = GF(101)
    for _ in range(60):
        f = [f101.random_element(rng) for _ in range(rng.randint(1, 3))] + [1]
        h = [f101.random_element(rng) for _ in range(rng.randint(1, 3))] + [1]
        g = [f101.random_element(rng) for _ in range(rng.randint(2, 4))]
        left = transform_monic(upoly_mul(f101, f, h), g, f101)
        right = upoly_mul(f101, transform_monic(f, g, f101),
                          transform_monic(h, g, f101))
        assert left == right


# -- closed-form dimension helpers


def test_etale_dims():
    assert etale_closure_dim(3, 2) == 6
    assert etale_closure_dim(5, 0) == 1
    assert etale_closure_dim(4, 5) == 0
    k = alg("Q[x]/(x)")
    kk = algebra_product(k, k)
    kkk = algebra_product(kk, k)
    assert m_closure(kkk, 2).dim == 6


def test_product_formula():
    # K x K at m=2
    assert product_formula_dim([1, 1, 0], [1, 1, 0], 2) == 2
    # K[x]/(x^3) x K at m=3: C(3,2)*6*1 + C(3,3)*6*1 = 24, and the direct
    # closure of the product algebra must agree.  (This product is not
    # isomorphic to the local algebra (x^3, y^2, xy) of the same dimension.)
    dims_a = [1, 3, 6, 6]
    dims_b = [1, 1, 0, 0]
    assert product_formula_dim(dims_a, dims_b, 3) == 24
    a = alg("Q[x]/(x^3)")
    k = alg("Q[x]/(x)")
    prod = algebra_product(a, k)
    assert m_closure(prod, 3).dim == 24
    with pytest.raises(LengthMismatch):
        product_formula_dim([1, 1], [1, 1, 0], 2)
    assert galois_factor_count([1, 1, 1]) == 6
    assert galois_factor_count([2, 3]) == 10


def _compositions(n):
    """Every tuple of positive parts summing to n."""
    if not n:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_closed_forms_count_by_brute_force():
    for n in range(7):
        for m in range(8):
            assert etale_closure_dim(n, m) == \
                sum(1 for _ in itertools.permutations(range(n), m)), (n, m)
    for n in range(7):
        compositions = list(_compositions(n))
        assert len(compositions) == (2 ** (n - 1) if n else 1)
        for parts in compositions:
            assert sum(parts) == n and all(parts)
            word = [i for i, size in enumerate(parts) for _ in range(size)]
            assert galois_factor_count(parts) == \
                len(set(itertools.permutations(word))), parts


# -- modular orchestration


def test_modular_vs_exact():
    pres = parse_presentation("Q[x,y]/(x^2, y^2)")
    modular, mode = closure_from_presentation(pres, 3)
    exact, mode2 = closure_from_presentation(pres, 3, exact=True)
    assert modular.dim == exact.dim == 26
    assert mode.startswith("mod ") and mode2 == "exact"
    # every exact scalar is canonical: an int when integral, else a Fraction
    scalars = [c for mp in exact.maps for row in mp.rows for c in row.values()]
    scalars += [c for row in exact.closure.span.rows.values() for c in row.values()]
    kinds = {type(c) for c in scalars}
    assert kinds == {int, Fr}
    assert all(c.denominator > 1 for c in scalars if type(c) is Fr)


def test_presentation_mod_p():
    pres = parse_presentation("Q[x,y]/(x^2 + y^3, xy)")
    reduced = base_change_presentation(pres, GF(7))
    assert str(reduced.field) == "F7"
    assert algebra_from_presentation(reduced).dim == 5


def test_modular_primes_env(monkeypatch):
    pres = parse_presentation("Q[x]/(x^2)")
    monkeypatch.setenv("CLOSURELAB_PRIMES", " 1000003 ")
    assert modular_prime(pres) == 1000003
    for primes in ("7,7", "3,5,7", "1000003, 1000033"):
        monkeypatch.setenv("CLOSURELAB_PRIMES", primes)
        with pytest.raises(UnsupportedField, match="must name one prime"):
            modular_prime(pres)
    monkeypatch.setenv("CLOSURELAB_PRIMES", "4")
    with pytest.raises(NotPrime, match="4 is not prime"):
        closure_from_presentation(pres, 2)
    # the least prime above 2^61
    monkeypatch.setenv("CLOSURELAB_PRIMES", "2305843009213693967")
    with pytest.raises(UnsupportedField, match="exceeds 2\\^61"):
        closure_from_presentation(pres, 2)
    monkeypatch.delenv("CLOSURELAB_PRIMES")
    # without the variable: the next prime at or above 2^29 + a hash of the
    # presentation text below 2^29
    digest = hashlib.sha256(str(pres).encode()).digest()
    start = (1 << 29) + int.from_bytes(digest, "big") % (1 << 29)
    p = modular_prime(pres)
    assert p == next_prime(start) and (1 << 29) <= p < (1 << 30)
    assert modular_prime(parse_presentation("Q[x]/(x^3)")) != p


# -- one prime per input

# Coefficients or denominators divisible by 3, 5, 7 or 11.
BAD_PRIME_INPUTS = (
    "Q[x,y]/(x^2, y^2 - 7*x)", "Q[x]/(5*x^2 - x)", "Q[x,y]/(x^2 - 3*y, y^2)",
    "Q[x]/(x^3 - 1/11)", "Q[x,y]/(x^2, y^2 - 15*x)", "Q[x]/(x^2 - 35)",
    "Q[x,y]/(x^2 - 7*y - 1, y^2 - 11*x)")


def _count_m_closure_calls(monkeypatch):
    calls = []
    real = closure_module.m_closure

    def counting(a, *args, **kwargs):
        calls.append(a.field)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(closure_module, "m_closure", counting)
    return calls


def _constant_numbers(a):
    """Numerators and denominators of A's structure constants and generator
    coordinates."""
    vecs = [a.basis_product(i, j) for i in range(a.dim) for j in range(i, a.dim)]
    vecs += [g for _, g in a.generator_elements()]
    return {abs(x) for vec in vecs for c in vec.values()
            for x in (c.numerator, c.denominator)}


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_one_prime_run_bounds_exact(monkeypatch, prime):
    # the run reduces A over Q mod the first prime >= `prime` that divides
    # none of its constants; its dims bound the exact ones from above, and
    # on these inputs they are equal at every prime >= 5
    monkeypatch.setenv("CLOSURELAB_PRIMES", str(prime))
    presentations = [e.presentation() for e in table1_entries()]
    presentations += [parse_presentation(t) for t in BAD_PRIME_INPUTS]
    skipped = set()
    for pres in presentations:
        numbers = _constant_numbers(algebra_from_presentation(pres))
        for m in (2, 3):
            res, mode = closure_from_presentation(pres, m)
            exact, _ = closure_from_presentation(pres, m, exact=True)
            p = res.field.p
            assert mode == f"mod {p}" and is_prime(p) and p >= prime
            assert all(x % p for x in numbers)
            assert all(any(x % q == 0 for x in numbers)
                       for q in range(prime, p) if is_prime(q))
            skipped.add(p != prime)
            assert res.dim >= exact.dim, (str(pres), m)
            if p >= 5:
                assert (res.dim, res.rank) == (exact.dim, exact.rank), (str(pres), m)
    assert skipped == {True, False}


def test_bad_prime_is_skipped(monkeypatch):
    # a prime that divides a coefficient or a denominator reads the input as
    # another algebra, (x^2, y^2) of dim 13 at m = 2 instead of Q[y]/(y^4)
    # of dim 12; it is skipped for the next prime
    for text in ("Q[x,y]/(x^2, y^2 - {p}*x)", "Q[x,y]/(x^2, y^2 - 1/{p}*x)"):
        for p in (7, 1073741789):
            monkeypatch.setenv("CLOSURELAB_PRIMES", str(p))
            res, mode = closure_from_presentation(
                parse_presentation(text.format(p=p)), 2)
            assert (res.dim, mode) == (12, f"mod {next_prime(p + 1)}")
    monkeypatch.delenv("CLOSURELAB_PRIMES")
    # the product of the two primes of the former two-prime mode
    res, mode = closure_from_presentation(
        parse_presentation("Q[x,y]/(x^2, y^2 - 4611685846628697223*x)"), 2)
    assert res.dim == 12 and mode.startswith("mod ")


def test_modular_prime_is_pinned(monkeypatch):
    # the hash reads str(pres), field name included; a change there would
    # move the "mod <p>" of every report
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    entries = {entry.name: entry.presentation()
               for entry in table1_entries() + table2_entries()}
    assert str(entries["(x^2 + y^4, xy)"]) == "Q[x,y]/(y^4 + x^2, x*y)"
    assert modular_prime(entries["(x^2, y^2)"]) == 837474611
    assert modular_prime(entries["(x^2 + y^4, xy)"]) == 911201129


def test_reduce_mod_prime_is_the_special_fiber():
    a = alg("Q[x,y]/(x^2 - 1/3*y, y^2 - 6*x)")
    a7 = reduce_mod_prime(a, 7)
    assert a7.field == GF(7) and a7.labels == a.labels
    for i in range(a.dim):
        for j in range(a.dim):
            assert a7.basis_product(i, j) == {
                k: c.numerator * pow(c.denominator, -1, 7) % 7
                for k, c in a.basis_product(i, j).items()}
    # 2 and 3 divide a constant, 5 does not
    assert reduce_mod_prime(a, 2).field == GF(5)


def test_default_mode_runs_the_pipeline_once(monkeypatch):
    # a monogenic row runs it no time at m >= 2: one point closes m = 2,
    # and the tower gives every larger m
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    calls = _count_m_closure_calls(monkeypatch)
    for entry in table1_entries():
        pres = entry.presentation()
        for m in range(4):
            calls.clear()
            res, mode = closure_from_presentation(pres, m)
            p = modular_prime(pres)
            tower = m >= 2 and entry.name in TABLE1_MONOGENIC
            assert calls == ([] if tower else [GF(p)]) and mode == f"mod {p}"
            assert res.dim == entry.expected[m]


def test_budget_overrun_is_not_repeated(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    monkeypatch.setenv("CLOSURELAB_BUDGET", "1000")
    pres = parse_presentation("Q[x,y]/(x^2, y^5, xy)")
    calls = _count_m_closure_calls(monkeypatch)
    with pytest.raises(BudgetExceeded,
                       match="^stage 5 width 2358 exceeds the budget 1000$"):
        closure_from_presentation(pres, 5)
    assert len(calls) == 1 and calls[0].kind == "prime"


# -- point seeds at m = 2, and the tower at m >= 3, for monogenic inputs

# Non-local inputs: two fields, a product of local algebras and two mixed
# ones (a product of a field factor and a local one).
POINT_SEED_INPUTS = ("Q[x,y,z]/(x^2-2, y^2-3, z^2-5)", "Q[x]/(x^6-x-1)",
                     "Q[x,y]/(x^2-1, y^2)", "Q[x,y]/(x^2-x, y^3)",
                     "Q[x,y]/(x^3-x, y^2)")


def _modular_algebra(pres):
    return reduce_mod_prime(algebra_from_presentation(pres), modular_prime(pres))


@pytest.mark.parametrize("d", [9, 10])
def test_point_seeds_give_the_etale_dims(monkeypatch, d):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    res, mode = closure_from_presentation(parse_presentation(f"Q[x]/(x^{d}-x-1)"), 2)
    p = res.field.p
    assert mode == f"mod {p}" and res.method == "points"
    assert res.dim == etale_closure_dim(d, 2)
    assert res.generator_count == 1
    assert [st.generators for st in res.stages] == [0, 1]


@pytest.mark.parametrize("text", POINT_SEED_INPUTS)
def test_point_seeds_match_the_symbolic_seeds(monkeypatch, text):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation(text)
    res, _ = closure_from_presentation(pres, 2)
    assert res.method == "points"
    assert_same_closure(res, m_closure(_modular_algebra(pres), 2))


def test_point_seeds_only_at_m_2(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    # two copies of K[y]/(y^3), and three of K[y]/(y^2): at m = 3 the tower
    # gives the dim, which the product formula confirms, and no stage past
    # the 2-closure takes a seed
    cube, square = [1, 3, 6, 6], [1, 2, 2, 0]
    two_squares = [product_formula_dim(square, square, m) for m in range(4)]
    for text, dim in (("Q[x,y]/(x^2-x, y^3)", product_formula_dim(cube, cube, 3)),
                      ("Q[x,y]/(x^3-x, y^2)",
                       product_formula_dim(two_squares, square, 3))):
        res, _ = closure_from_presentation(parse_presentation(text), 3)
        assert (res.method, res.dim) == ("tower", dim)
        assert [st.generators for st in res.stages] == [0, 1, 0]
    # a local monogenic input takes one point too, and so do --exact and
    # finite fields
    for text, exact, dim in (("Q[x]/(x^4)", False, 12), ("Q[x]/(x^3-x)", True, 6),
                             ("F101[x]/(x^3-x)", False, 6)):
        res, _ = closure_from_presentation(parse_presentation(text), 2, exact)
        assert (res.method, res.dim) == ("points", dim)
    # a local non-monogenic input keeps the symbolic seed at m = 2
    res, _ = closure_from_presentation(parse_presentation("Q[x,y]/(x^2, y^3)"), 2)
    assert res.method == "general"


def test_explicit_zero_coordinate_in_a_point():
    # an explicit 0 coefficient once became a stored zero entry of the GF(p)
    # multiplier, and the point's Cayley-Hamilton remainder looked nonzero
    a = alg("F7[x]/(x^3-2)")
    times = finalg_module.stride_multiplier(a, {1: 0, 2: 1}, 1)
    assert times({0: 1}) == {2: 1}
    for point in ({1: 0, 2: 1}, {2: 1}):
        res = closure_module._closure(
            a, 2, "points", functools.partial(closure_module._point_seed,
                                              points=[point]))
        assert res.dim == 6


def _at_point(fieldh, xp, point):
    """An X-polynomial with vector coefficients evaluated at X = point."""
    out = {}
    for mono, vec in xp.items():
        c = fieldh.one
        for i, e in enumerate(mono):
            for _ in range(e):
                c = fieldh.mul(c, point.get(i, fieldh.zero))
        if c:
            vec_add_into(fieldh, out, vec, c)
    return out


@pytest.mark.parametrize("text", ["Q[x]/(x^3-x-1)", "Q[x,y]/(x^2-x, y^3)",
                                  "F7[x,y]/(x^2, y^2)", "GF(2,2)[x]/(x^3+t*x+1)",
                                  "Q[x,y]/(x^2, y^3)", "F101[x]/(x^4-2)"])
def test_point_remainders_are_the_generic_ones_at_the_points(text):
    # what the point seed rests on: the chain run on the characteristic
    # polynomial of q leaves the generic chain's remainders at X = q.  The
    # slots are those of A x A: slot 1 on the left digit (stride n), slot 2
    # on the right one (stride 1).
    a = alg(text)
    fieldh, n = a.field, a.dim
    rng = random.Random(3)
    points = [sparse([fieldh.random_element(rng) for _ in range(n)])
              for _ in range(3)]

    def remainders(seed):
        slots = [[finalg_module.stride_multiplier(a, x, stride)
                  for x in seed.elements] for stride in (n, 1)]
        return _slot_remainders(fieldh, seed.coeffs, seed.times, slots)

    generic = remainders(closure_module._generic_seed(a))
    at_points = remainders(closure_module._point_seed(a, points))
    assert not any(generic[0].values()) and not any(at_points[0].values())
    for j, q in enumerate(points):
        assert at_points[1].get(j, {}) == _at_point(fieldh, generic[1], q)


# Non-local, and not monogenic: its local factor K[y,z]/(y^2, z^2) needs two
# generators.
NOT_MONOGENIC = "Q[x,y,z]/(x^2-x, y^2, z^2)"


def test_point_seeds_follow_monogenicity_not_locality(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation(NOT_MONOGENIC)
    algebra = _modular_algebra(pres)
    assert not is_local_nilpotent(algebra)
    assert closure_module._generating_point(algebra) is None
    res, _ = closure_from_presentation(pres, 2)
    assert (res.method, res.dim) == ("general", 58)
    assert_same_closure(res, m_closure(algebra, 2))


def test_non_generating_point_falls_back_to_the_symbolic_seed(monkeypatch):
    # mutant: no generating point is found, as if K[x] were not A
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation("Q[x]/(x^8-x-1)")
    drawn, _ = closure_from_presentation(pres, 2)
    monkeypatch.setattr(closure_module, "_generating_point", lambda a: None)
    closure_module._last = None     # no resume: search again, patched
    res, _ = closure_from_presentation(pres, 2)
    assert (drawn.method, res.method) == ("points", "general")
    assert res.dim == drawn.dim == 56
    assert_same_closure(res, drawn)


def _sum_of_generators(a):
    return {k: 1 for _, g in a.generator_elements() for k in g}


def test_forced_generation_trips_the_dimension_guard(monkeypatch):
    # mutant: x + y + z is taken to generate a non-monogenic A; its one
    # remainder leaves dimension 60, where the closure has 58 and a
    # monogenic A of dimension 8 would have 8 * 7 = 56
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    monkeypatch.setattr(closure_module, "_generating_point", _sum_of_generators)
    with pytest.raises(CertificateFailure,
                       match="^a generating point gives dimension 60, not 56$"):
        closure_from_presentation(parse_presentation(NOT_MONOGENIC), 2)


def test_generates_asks_for_n_independent_powers():
    # K[y]/(y^2) x K[y]/(y^2), basis 1, y, x, xy: y and xy are nilpotent,
    # x is idempotent, and x + y has minimal polynomial Z^2 (Z - 1)^2
    a = alg("Q[x,y]/(x^2-x, y^2)")
    points = [{}, {1: 1}, {2: 1}, {3: 1}, {1: 1, 2: 1}]
    assert [closure_module._generates(a, x) for x in points] == \
        [False, False, False, False, True]
    a = alg("Q[x]/(x^3-x-1)")
    assert [closure_module._generates(a, x) for x in ({}, {1: 1}, {2: 1})] == \
        [False, True, True]


def test_generating_point_is_a_generator_or_one_combination():
    # x itself; then x + y when neither variable generates; then c*x + d*y,
    # c and d nonzero, when x + y does not either; F2 x F2 x F2 x F2 has no
    # generating point, since every element takes at most two values, and
    # keeps the symbolic seed
    assert closure_module._generating_point(alg("Q[x]/(x^3-x-1)")) == {1: 1}
    for text in ("Q[x,y]/(x^2-x, y^2)", "F7[x,y]/(x^2-x, y^2)"):
        assert closure_module._generating_point(alg(text)) == {1: 1, 2: 1}
    # on Q^4 = Q[x,y]/(x^2-1, y^2-1), x + y takes the value 0 twice
    for text in ("Q[x,y]/(x^2-1, y^2-1)", "F7[x,y]/(x^2-1, y^2-1)"):
        point = closure_module._generating_point(alg(text))
        assert sorted(point) == [1, 2] and point[1] != point[2]
    text = "F2[x,y]/(x^2+x, y^2+y)"
    assert closure_module._generating_point(alg(text)) is None
    res, mode = closure_from_presentation(parse_presentation(text), 2)
    assert (res.method, res.dim, mode) == ("general", 12, "F2")


def test_a_local_algebra_with_two_generators_skips_the_point_search(monkeypatch):
    # with x = c + y, y in the maximal ideal m, K[x] = A gives m = yA, so no
    # point generates a local A with dim m/m^2 >= 2.  Over one Table 1
    # pass only the (x^k) rows test a point, x itself, once per row: the
    # calls at m = 3 .. n resume the m = 2 call's entry, which holds the
    # point.  3 tests, in the modular mode and with --exact
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    tested, real = [], closure_module._generates
    monkeypatch.setattr(closure_module, "_generates",
                        lambda a, x: tested.append(x) or real(a, x))
    for exact in (False, True):
        del tested[:]
        for entry in table1_entries():
            for m in sorted(entry.expected):
                closure_from_presentation(entry.presentation(), m, exact)
        assert len(tested) == 3 and all(x == {1: 1} for x in tested)
    del tested[:]
    assert closure_module._generating_point(alg("Q[x,y]/(x^2, y^3)")) is None
    assert tested == []


@pytest.mark.parametrize("text", ["Q[x]/(x^3)", "Q[x]/(x^6)", "Q[x]/(x^8-x-1)",
                                  *SHIFT_INPUTS, NOT_MONOGENIC])
def test_inputs_with_a_generating_point_still_find_it(monkeypatch, text):
    # a local A with one generator, fields and mixed products take the
    # point and the tower; a product with a two-generator factor does not
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    methods = ["general"] * 2 if text == NOT_MONOGENIC else ["points", "tower"]
    for exact in (False, True):
        assert [closure_from_presentation(parse_presentation(text), m, exact)[0]
                .method for m in (2, 3)] == methods


# Monogenic inputs: the (x^k) rows of Tables 1 and 2, a field, and two
# products of local algebras.
MONOGENIC_INPUTS = ("Q[x]/(x^3)", "Q[x]/(x^4)", "Q[x]/(x^5)", "Q[x]/(x^6)",
                    "Q[x]/(x^5-x-1)", "Q[x,y]/(x^2-x, y^3)",
                    "Q[x,y]/(x^2-1, y^2)")


@pytest.mark.parametrize("text", MONOGENIC_INPUTS)
def test_tower_dims_match_the_pipeline(monkeypatch, text):
    # the theorem against the staged pipeline on the same reduced algebra
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation(text)
    algebra = _modular_algebra(pres)
    for m in (2, 3, 4):
        res, _ = closure_from_presentation(pres, m)
        expected = m_closure(algebra, m)
        assert res.dim == expected.dim and res.rank == expected.rank
        if 3 <= m <= algebra.dim:
            assert res.method == "tower"
            assert res.stage_dims == tuple(math.perm(algebra.dim, s)
                                           for s in range(1, m + 1))


def _count_charpoly_calls(monkeypatch):
    calls = []
    real = closure_module.generic_char_poly

    def counting(a, *args, **kwargs):
        calls.append(a.field)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(closure_module, "generic_char_poly", counting)
    return calls


# -- products in a closure: the operators the maps hand out


# a staged run over GF(p), over Q and over GF(4), each below m = n
LIFTED_RUNS = (("Q[x,y]/(x^2, y^5, x*y)", 4, False),
               ("Q[x,y]/(x^2, y^2)", 3, True),
               ("GF(2,2)[x,y]/(x^2+t*x*y, y^2+x*y)", 3, False))


def _map_chain(maps):
    """The maps and every map they were lifted from, down to A's
    identity."""
    seen = {}
    todo = list(maps)
    while todo:
        mp = todo.pop()
        if id(mp) not in seen:
            seen[id(mp)] = mp
            if isinstance(mp, LiftedMap):
                todo.append(mp.parent)
    return list(seen.values())


def _assert_operators_are_the_products(mp, elements):
    """Each operator by the image of an element, on the target itself and
    on the target's digit of a pair with A, against the oracle's product on
    every basis vector."""
    target, n = mp.target, mp.source.dim
    one = target.field.one
    for x in elements:
        image = mp.apply_dict(x)
        for stride, width in ((1, target.dim), (n, target.dim * n)):
            op, oracle = mp.operator(x, stride), multiplier(target, image, stride)
            for i in range(width):
                assert op({i: one}) == oracle({i: one}), (mp, x, stride, i)


@pytest.mark.parametrize("text, m, exact", LIFTED_RUNS)
def test_lifted_multipliers_are_the_products(monkeypatch, text, m, exact):
    # a map into a quotient lifts its operators from the map it came from,
    # and the trace map at m = n takes them from the other maps: by the
    # images of A's generators and of its basis elements, at strides 1 and
    # n, each must agree with the product in its target on every basis
    # vector
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation(text)
    result, _ = closure_from_presentation(pres, m, exact)
    a = result.input_algebra
    assert result.method == "general" and m < a.dim
    elements = ([g for _, g in a.generator_elements()]
                + [{i: a.field.one} for i in range(a.dim)])
    chain = _map_chain(result.maps)
    # A's identity, then each stage's maps: 1 + 2 + ... + m
    assert len(chain) == 1 + sum(range(2, m + 1))
    for mp in chain:
        _assert_operators_are_the_products(mp, elements)
    if a.dim == 4:
        # the trace map on the (n-1)-closure, then the canonical maps
        full, _ = closure_from_presentation(pres, a.dim, exact)
        last = full.stored_maps[-1]
        assert isinstance(last, closure_module._TraceMap)
        _assert_operators_are_the_products(last, elements)
        for mp in full.maps:
            _assert_operators_are_the_products(mp, elements)


@pytest.mark.parametrize("text, m, exact", LIFTED_RUNS)
def test_staged_run_reads_only_the_closure_products(monkeypatch, text, m, exact):
    # no pair or quotient has a product table: the stages, the map checks,
    # the m = n read, a table row and the certificate read only the input
    # algebra's products (and, in the modular mode, those of the algebra
    # over Q that it reduces)
    from closurelab import cli as cli_module
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    for cls in (finalg_module.QuotientAlgebra, finalg_module.TensorPairAlgebra):
        assert not hasattr(cls, "basis_product") and not hasattr(cls, "mult_vec")
    inputs, read = {}, {}
    real_product = finalg_module.TableAlgebra.basis_product

    def product(algebra, i, j):
        read[id(algebra)] = algebra
        return real_product(algebra, i, j)

    def recording(build):
        def recorded(*args):
            algebra = build(*args)
            inputs[id(algebra)] = algebra
            return algebra
        return recorded

    monkeypatch.setattr(finalg_module.TableAlgebra, "basis_product", product)
    for module in (closure_module, cli_module):
        monkeypatch.setattr(module, "algebra_from_presentation",
                            recording(module.algebra_from_presentation))
    monkeypatch.setattr(closure_module, "reduce_mod_prime",
                        recording(closure_module.reduce_mod_prime))
    pres = parse_presentation(text)
    flags = ["--exact"] if exact else []
    n = closure_from_presentation(pres, 1, exact)[0].dim
    for top in (m, n):
        argv = ["close", "--algebra", text, "--m", str(top), "--emit", "full",
                "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_module.main(argv + flags) == 0
        result, _ = closure_from_presentation(pres, top, exact)
        assert result.method == "general"
        assert divides_check(result)["certified"]
        result.closure
        assert divides_check(result)["certified"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_module.main(["table", "--manifest", "table1.json", "--rows",
                                "(x^2, y^2)", "--json"] + flags) == 0
    assert read and set(read) <= set(inputs)


@pytest.mark.parametrize("field", [QQ(), GF(7), GF(2, 2)], ids=str)
def test_a_wrong_lifted_column_fails_the_check_or_the_certificate(
        monkeypatch, field):
    # one wrong entry in one column of one operator that the map checks,
    # the trace map or the certificate multiply by (stride 1): 6 at each m,
    # by the images of x and y under 3 maps (at m = 4 the trace map
    # multiplies through the other 3 maps').  A wrong stage multiplier
    # (stride n) can instead grow a stage's span to an ideal of its own,
    # whose smaller quotient both checks accept
    a = algebra_from_presentation(base_change_presentation(
        parse_presentation("Q[x,y]/(x^2, y^2)"), field))
    real = LiftedMap._multiplier
    one = field.one

    def mutated(k, shift):
        built = []

        def multiplier(mp, x, stride):
            op = real(mp, x, stride)
            if stride != 1:
                return op
            built.append(op)
            if len(built) != k + 1:
                return op
            wrong = []

            def column(c):
                col = op({c: one})
                if not wrong:
                    t = (c + shift) % mp.target.dim
                    wrong.append(t)
                    col = vec_add_into(field, col, {t: one})
                return col

            return finalg_module.digit_operator(field, column, 1, mp.target.dim)

        return multiplier, built

    caught = 0
    for m in (3, 4):
        counting, built = mutated(-1, 0)
        monkeypatch.setattr(LiftedMap, "_multiplier", counting)
        divides_check(m_closure(a, m))
        assert len(built) == 6
        for k in range(len(built)):
            for shift in (0, 1):
                multiplier, _ = mutated(k, shift)
                monkeypatch.setattr(LiftedMap, "_multiplier", multiplier)
                with pytest.raises(CertificateFailure):
                    result = m_closure(a, m)
                    divides_check(result)
                caught += 1
    assert caught == 24


def test_a_wrong_generator_column_that_only_a_product_reads_fails_the_certificate(
        monkeypatch):
    # the certificate multiplies by x^2 as x times x: the second product
    # reads columns of the operator by x that neither the map check nor the
    # products by x alone fill.  One wrong entry there lets the closure
    # pass its checks, and the certificate must fail
    a = alg("Q[x,y]/(x^3, y^2, x^2*y)")
    field, one = a.field, a.field.one
    x = a.generator_elements()[0][1]
    tree = closure_module._generator_tree(a)
    square = next(t for t, (_, j, g) in enumerate(tree) if g == x == {j: one})
    real, real_products = LiftedMap._multiplier, closure_module._tree_products

    def operators(wrong):
        """Operators by x at stride 1, with their filled columns and where
        each was first filled; `wrong` maps (operator number, column) to
        the extra entry added there."""
        built = []

        def multiplier(mp, y, stride):
            op = real(mp, y, stride)
            if stride != 1 or y != x:
                return op
            k, filled = len(built), {}

            def column(c):
                filled[c] = phase[0]
                col = op({c: one})
                if (k, c) in wrong:
                    col = vec_add_into(field, col, {wrong[k, c]: one})
                return col

            built.append((filled, finalg_module.digit_operator(
                field, column, 1, mp.target.dim)))
            return built[-1][1]

        monkeypatch.setattr(LiftedMap, "_multiplier", multiplier)
        return built

    phase = ["closure"]
    built = operators({})
    result = m_closure(a, 4)
    reads = {}              # operator id -> columns read alone, and as x^2

    def products(tree, ops, vec):
        out = real_products(tree, ops, vec)
        for t, ((_, j, _), op) in enumerate(zip(tree, ops)):
            alone, squared = reads.setdefault(id(op), (set(), set()))
            (squared if t == square else alone).update(out[j])
        return out

    monkeypatch.setattr(closure_module, "_tree_products", products)
    phase[0] = "certificate"
    divides_check(result)
    monkeypatch.setattr(closure_module, "_tree_products", real_products)
    targets = []
    for k, (filled, op) in enumerate(built):
        alone, squared = reads.get(id(op), (set(), set()))
        only = {c for c in squared - alone if filled[c] == "certificate"}
        if only:
            targets.append((k, min(only)))
    assert len(targets) == 3
    for k, c in targets:
        for shift in (0, 1):
            operators({(k, c): (c + shift) % result.dim})
            mutant = m_closure(a, 4)
            with pytest.raises(CertificateFailure, match="remainder is nonzero"):
                divides_check(mutant)


def _record_operators(monkeypatch):
    """(map class, x's terms, stride) of each operator a map builds."""
    built = []
    real = AlgebraMap.operator

    def operator(mp, x, stride):
        before = len(mp._operators)
        op = real(mp, x, stride)
        if len(mp._operators) > before:
            built.append((type(mp).__name__, tuple(sorted(x.items())), stride))
        return op

    monkeypatch.setattr(AlgebraMap, "operator", operator)
    return built


@pytest.mark.parametrize("text", ["Q[x,y]/(x^3, y^2, x^2*y)",
                                  "Q[x,y,z]/(x^2, y^2, z^2, x*y, x*z)"])
def test_the_certificate_builds_operators_by_generators_only(monkeypatch, text):
    # standard monomials are products of generators along A's tree, so a
    # slot's stride-1 operators are those by the generators, which the map
    # checks (and at m = n the trace map) build before the certificate
    a = alg(text)
    generators = {tuple(sorted(g.items())) for _, g in a.generator_elements()}
    tree = closure_module._generator_tree(a)
    assert len(tree) == a.dim - 1
    assert all(tuple(sorted(x.items())) in generators for _, _, x in tree)
    built = _record_operators(monkeypatch)
    for m in range(2, a.dim + 1):
        del built[:]
        result = m_closure(a, m)
        run = len(built)
        assert divides_check(result)["certified"]
        assert len(built) == run
        lifted = [x for kind, x, stride in built
                  if kind == "LiftedMap" and stride == 1]
        assert set(lifted) == generators
        assert len(lifted) == min(m, a.dim - 1) * len(generators)


@pytest.mark.parametrize("text", ["Q[x,y]/(x^3, y^2, x^2*y)",
                                  "Q[x,y,z]/(x^2, y^2, z^2, x*y, x*z)",
                                  "Q[x]/(x^3-x-1)"])
def test_the_stage_loop_builds_operators_by_tree_elements_only(monkeypatch, text):
    # the generic seed multiplies by gamma' along A's generator tree, so the
    # stage loop's operators on A are those by the tree's elements, one
    # each, shared with the new digit; nothing else builds one on A
    a = alg(text)
    elements = {tuple(sorted(x.items()))
                for _, _, x in closure_module._generator_tree(a)}
    built = _record_operators(monkeypatch)
    for m in range(2, a.dim + 1):
        del built[:]
        assert divides_check(m_closure(a, m))["certified"]
        assert {x for _, x, _ in built} <= elements
        on_a = [x for kind, x, stride in built
                if kind == "AlgebraMap" and stride == 1]
        assert len(on_a) == len(set(on_a)) == len(elements)


def test_the_gamma_prime_product_leaves_its_input_as_it_is():
    # each product lands in an operator's output, never in the input
    # coefficient.  The product is the flat oracle's, one operator per
    # basis element, with the unit's left out
    a = alg("Q[x,y]/(x^3, y^2, x^2*y)")
    one, n = a.field.one, a.dim
    tree = closure_module._generator_tree(a)
    products = functools.partial(
        closure_module._tree_products, tree,
        [finalg_module.stride_multiplier(a, x, 1) for _, _, x in tree])
    xp = {(0, 1, 0, 0, 0): {0: one, 3: Fr(2)}, (1, 0, 0, 0, 0): {0: one}}
    before = copy.deepcopy(xp)
    shifted = closure_module._xp_tree_mult(a.field, products, xp)
    assert xp == before and shifted[1, 1, 0, 0, 0] == {1: one}
    assert shifted == _xp_gamma_mult(
        [lambda vec, acc: acc] + [finalg_module.stride_multiplier(a, {i: one}, 1)
                                  for i in range(1, n)], xp)


def _with_a_fallback(fieldh):
    """K[x]/(x^3) on the basis 1, x, x^2 + x: x * x = e_2 - e_1, so e_2 is
    no basis element times the generator x."""
    one = fieldh.one
    square = {1: fieldh.neg(one), 2: one}
    return finalg_module.TableAlgebra(
        fieldh, ["1", "x", "x^2+x"],
        {(1, 1): square, (1, 2): square, (2, 2): square},
        generators=[("x", {1: one})])


@pytest.mark.parametrize("fieldh", [QQ(), GF(7)])
def test_a_basis_element_off_the_generator_tree_takes_its_own_operator(
        monkeypatch, fieldh):
    a = _with_a_fallback(fieldh)
    one = fieldh.one
    assert closure_module._generator_tree(a) == [(1, 0, {1: one}),
                                                 (2, 0, {2: one})]
    built = _record_operators(monkeypatch)
    for m in (2, 3):
        result = m_closure(a, m)
        assert result.dim == 6
        del built[:]
        assert divides_check(result) == {"certified": True, "mode": "recomputed"}
        # at m < n each slot builds the operator by e_2 in the certificate;
        # at m = n the trace map built them for the slot-n seed test
        assert {x for _, x, _ in built} <= {((2, one),)}
        assert len([k for k, _, s in built if k == "LiftedMap" and s == 1]) == (
            m if m < a.dim else 0)
    # the canonical n-closure, whose rows c * t_2 use the fallback too
    assert all(is_ring_morphism_pairwise(mp) for mp in result.maps)
    assert result.closure.dim == 6


# a monogenic input in the default modular mode, with --exact, and over a
# finite field
TOWER_MODES = (("Q[x]/({})", False), ("Q[x]/({})", True), ("F7[x]/({})", False))


def test_stages_hold_one_record_per_stage(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    # a staged run: stage s is the s-closure, with its seed rows and the
    # seconds the call spent on it
    a = alg("Q[x,y]/(x^2, y^2)")
    start = time.perf_counter()
    res = m_closure(a, 3)
    end = time.perf_counter()
    assert all(isinstance(st, closure_module.Stage) for st in res.stages)
    assert [st[:2] for st in res.stages] == [(4, 0), (13, 3), (26, 6)]
    assert res.stage_dims == (4, 13, 26) and res.generator_count == 9
    seconds = [st.seconds for st in res.stages]
    assert all(t > 0 for t in seconds) and sum(seconds) < end - start
    # a tower record extends its 2-closure's stages with the falling
    # factorials, no seed rows and no time
    tower, _ = closure_from_presentation(parse_presentation("Q[x]/(x^5-x-1)"), 4)
    assert tower.method == "tower" and tower.strategy == "staged"
    assert [st[:2] for st in tower.stages] == [(5, 0), (20, 1), (60, 0), (120, 0)]
    assert tower.stage_dims == (5, 20, 60, 120) and tower.generator_count == 1
    assert tower.stages[1].seconds > 0
    assert tower.stages[2].seconds == tower.stages[3].seconds == 0
    # m = 0, 1 and m > n run no stage
    for m in (0, 1, 5):
        trivial = m_closure(a, m)
        assert trivial.stages == () and trivial.stage_dims == ()
        assert trivial.strategy == "trivial" and trivial.generator_count == 0


def test_tower_runs_no_pipeline_until_read(monkeypatch):
    # neither the record nor its first read takes the symbolic seed: the
    # point builds the closure; the certificate divides P, by design
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    calls = _count_charpoly_calls(monkeypatch)
    for text, exact in TOWER_MODES:
        calls.clear()
        pres = parse_presentation(text.format("x^6"))
        res, _ = closure_from_presentation(pres, 5, exact)
        assert (res.method, res.dim, res.bound, calls) == ("tower", 720, "exact", [])
        assert res.stage_dims == (6, 30, 120, 360, 720)
        assert [st.generators for st in res.stages] == [0, 1, 0, 0, 0]
        closure, maps = res.closure, res.maps
        assert calls == [] and closure.dim == 720 and len(maps) == 5
        assert res.closure is closure and calls == []
        assert divides_check(res)["certified"] and calls == [res.field]


def test_certificate_builds_a_tower_first(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    calls = _count_charpoly_calls(monkeypatch)
    for text, exact in TOWER_MODES:
        calls.clear()
        pres = parse_presentation(text.format("x^4-x-1"))
        res, _ = closure_from_presentation(pres, 3, exact)
        assert res.method == "tower" and calls == []
        assert divides_check(res)["certified"] and len(calls) == 1
        assert res.closure.dim == 24 and len(calls) == 1


def test_certificate_reads_the_stored_pair_of_a_tower(monkeypatch):
    # at m = n a tower takes over the (n-1)-closure and the trace map that
    # its point's result stores, which the certificate reads as it does
    # m_closure's; the canonical quotient of C x A waits for `closure`
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    built = []
    real = closure_module._last_stage_span
    monkeypatch.setattr(closure_module, "_last_stage_span",
                        lambda *args: built.append(args) or real(*args))
    for text, exact in TOWER_MODES:
        built.clear()
        pres = parse_presentation(text.format("x^4"))
        res, _ = closure_from_presentation(pres, 4, exact)
        assert res.method == "tower" and res.stored_closure is None
        assert divides_check(res)["certified"] and built == []
        assert res.stored_closure.dim == 24 and len(res.stored_maps) == 4
        fresh, _ = closure_from_presentation(pres, 4, exact)
        assert res.closure.labels == fresh.closure.labels and len(built) == 2
        assert [mp.rows for mp in res.maps] == [mp.rows for mp in fresh.maps]


def test_forced_generation_trips_the_guard_before_the_tower(monkeypatch):
    # mutant: as in the m = 2 case, the one-point 2-closure runs first at
    # m = 3 and refuses the non-monogenic A before any tower is returned
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    monkeypatch.setattr(closure_module, "_generating_point", _sum_of_generators)
    with pytest.raises(CertificateFailure,
                       match="^a generating point gives dimension 60, not 56$"):
        closure_from_presentation(parse_presentation(NOT_MONOGENIC), 3)


def test_tower_build_checks_its_dimension(monkeypatch):
    # mutant: once the tower reports 24, the build seeds its closure from
    # the point 0, which imposes no relation; the first read refuses the
    # 4^3-dimensional closure
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    real = closure_module._point_seed
    for text, exact in TOWER_MODES:
        res, _ = closure_from_presentation(parse_presentation(text.format("x^4")),
                                           3, exact)
        assert (res.method, res.dim) == ("tower", 24)
        with monkeypatch.context() as patch:
            patch.setattr(closure_module, "_point_seed",
                          lambda a, points: real(a, [{}]))
            # no resume: the build seeds a new run, patched
            patch.setattr(closure_module, "_last", None)
            with pytest.raises(CertificateFailure, match=(
                    "^a generating point gives dimension 64, not 24$")):
                res.closure


def test_tower_keeps_the_map_budget(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    monkeypatch.setenv("CLOSURELAB_BUDGET", "23")
    with pytest.raises(BudgetExceeded,
                       match="^3 maps of a dimension-8 algebra exceed the budget 23$"):
        closure_from_presentation(parse_presentation("Q[x]/(x^8-x-1)"), 3)


def test_base_change_presentation():
    pres = parse_presentation("F2[x,y]/(x^2,y^2)")
    over_f4 = base_change_presentation(pres, GF(2, 2))
    a = algebra_from_presentation(over_f4)
    assert a.dim == 4 and a.field.order == 4
    assert m_closure(a, 2).dim == 16


def test_theorem_last_two_closures_agree():
    for text in ("Q[x]/(x^4)", "Q[x,y]/(x^3, y^2, xy)", "Q[x,y]/((x,y)^2)"):
        a = alg(text)
        n = a.dim
        assert m_closure(a, n - 1).dim == m_closure(a, n).dim


# -- one presentation at rising m resumes its run

RESUME_MODES = (("modular", lambda pres: pres, False),
                ("exact", lambda pres: pres, True),
                ("F7", lambda pres: base_change_presentation(pres, GF(7)), False))


def _outcome(result):
    """Everything a result prints or certifies, read as the CLI reads it."""
    closure, maps = result.closure, result.maps
    return (result.method, result.dim, result.stage_dims,
            [st.generators for st in result.stages], result.generator_count,
            getattr(closure, "basis_cols", None), closure.labels,
            [mp.rows for mp in maps], divides_check(result))


def _fresh(pres, m, exact):
    closure_module._last = None
    return closure_from_presentation(pres, m, exact)


@pytest.mark.parametrize("mode, source, exact", RESUME_MODES,
                         ids=[mode for mode, _, _ in RESUME_MODES])
def test_ascending_calls_resume_one_run_and_match_fresh_calls(
        monkeypatch, mode, source, exact):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    for entry in table1_entries():
        pres = source(entry.presentation())
        n = max(entry.expected)
        resumed, entries = [], []
        for m in range(n + 1):
            result, got = closure_from_presentation(pres, m, exact)
            entries.append(closure_module._last)
            # read and certified before the next call, as exact-q does
            resumed.append((_outcome(result), got))
        assert all(e is entries[0] for e in entries), entry.name
        fresh = [_fresh(pres, m, exact) for m in range(n + 1)]
        fresh = [(_outcome(result), got) for result, got in fresh]
        assert resumed == fresh, (entry.name, mode)
        if mode != "F7":
            assert [outcome[1] for outcome, _ in resumed] == [
                entry.expected[m] for m in range(n + 1)]


def test_results_at_rising_m_share_their_lower_stages(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation("Q[x,y]/(x^2, y^2)")
    two, _ = closure_from_presentation(pres, 2)
    three, _ = closure_from_presentation(pres, 3)
    assert three.input_algebra is two.input_algebra
    assert three.closure.parent.left is two.closure
    # the call at m = 3 built stage 3 only
    assert three.stages[:2] == tuple(st._replace(seconds=0.0)
                                     for st in two.stages)
    assert three.stages[2].seconds > 0
    # each result has its own list of maps: a caller that replaces one
    # leaves the run as it is
    three.maps[1] = three.maps[0]
    four, _ = closure_from_presentation(pres, 4)
    assert four.input_algebra is two.input_algebra
    assert _outcome(four) == _outcome(_fresh(pres, 4, False)[0])


def _certified(monkeypatch):
    """divides_check that also returns how many slots it divided: a
    tower's stages, which its first read builds, are built first."""
    calls = []
    real = closure_module._synthetic_divide
    monkeypatch.setattr(closure_module, "_synthetic_divide",
                        lambda *args: calls.append(1) or real(*args))

    def certify(result):
        result._stored()
        calls.clear()
        return divides_check(result), len(calls)

    return certify


@pytest.mark.parametrize("exact", [False, True], ids=["modular", "exact"])
def test_ascending_certificates_resume_their_chain(monkeypatch, exact):
    # certified after each call, as exact-q runs them: the certificate at
    # m = n divides the trace map's slot only, after m = n - 1's chain, and
    # each verdict is a fresh certificate's
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    certify = _certified(monkeypatch)
    methods = set()
    for entry in table1_entries():
        pres = entry.presentation()
        n = max(entry.expected)
        for m in range(n + 1):
            result, _ = closure_from_presentation(pres, m, exact)
            verdict, slots = certify(result)
            kept, closure_module._chain = closure_module._chain, None
            assert (verdict, slots) == (
                divides_check(result), 1 if m == n else m), (entry.name, m)
            closure_module._chain = kept
        methods.add(result.method)
    assert methods == {"general", "tower"}


def test_a_certificate_resumes_only_its_own_closure_and_maps(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    certify = _certified(monkeypatch)
    pres = parse_presentation("Q[x,y]/(x^2, y^2)")
    recomputed = {"certified": True, "mode": "recomputed"}
    below, _ = closure_from_presentation(pres, 3)
    top, _ = closure_from_presentation(pres, 4)
    assert certify(below) == (recomputed, 3)
    assert certify(top) == (recomputed, 1)
    # the very maps with another closure, the canonical quotient that
    # reading `closure` at m = n builds, and then its own maps
    stored = top.stored_maps
    other = ClosureResult(top.input_algebra, 4, "general", top.closure, stored)
    assert certify(other) == (recomputed, 4)
    assert certify(top) == (recomputed, 4)
    # a replaced map, on the closure of the kept chain
    assert certify(below) == (recomputed, 3)
    below.maps[1] = below.maps[0]
    with pytest.raises(CertificateFailure,
                       match="slot 3 remainder is nonzero in the closure"):
        divides_check(below)


def test_the_kept_chain_keeps_no_closure_alive():
    result = m_closure(alg("Q[x,y]/(x^2, y^2)"), 3)
    assert divides_check(result)["certified"] and closure_module._chain
    refs = [weakref.ref(x) for x in [result.closure] + result.maps]
    del result
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def _entry_after(pres, m, exact=False):
    closure_from_presentation(pres, m, exact)
    return closure_module._last


def test_descending_interleaved_and_reprimed_calls_start_fresh(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    a, b = (parse_presentation(t) for t in ("Q[x,y]/(x^2, y^2)", "Q[x]/(x^3)"))
    first = _entry_after(a, 3)
    assert _entry_after(a, 3) is first and _entry_after(a, 4) is first
    # below the run's last stage
    lower = _entry_after(a, 2)
    assert lower is not first and lower.algebra is not first.algebra
    assert _entry_after(a, 0) is not lower
    # another presentation between two calls on one
    before = _entry_after(a, 2)
    _entry_after(b, 2)
    assert _entry_after(a, 3) is not before
    # the exact flag and the modular prime are part of the key
    before = _entry_after(a, 3)
    assert _entry_after(a, 3, exact=True) is not before
    before = _entry_after(a, 2)
    monkeypatch.setenv("CLOSURELAB_PRIMES", "1000003")
    res, mode = closure_from_presentation(a, 3)
    assert closure_module._last is not before and mode == "mod 1000003"
    assert (res.dim, res.stage_dims) == (_fresh(a, 3, False)[0].dim,
                                         (4, 13, 26))


def test_a_lowered_budget_stops_a_resumed_run_where_a_fresh_one_stops(
        monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation("Q[x,y]/(x^2, y^5, xy)")
    resumed, _ = closure_from_presentation(pres, 4)
    n = resumed.input_algebra.dim
    widths = [d * n for d in resumed.stage_dims]
    # below stage 3's width, above the map budget at m = 5
    budget = widths[1] - 1
    assert 5 * n <= budget < widths[1] < widths[2]
    monkeypatch.setenv("CLOSURELAB_BUDGET", str(budget))
    message = f"^stage 3 width {widths[1]} exceeds the budget {budget}$"
    with pytest.raises(BudgetExceeded, match=message):
        closure_from_presentation(pres, 5)
    assert closure_module._last is None
    with pytest.raises(BudgetExceeded, match=message):
        _fresh(pres, 5, False)
    monkeypatch.delenv("CLOSURELAB_BUDGET")
    assert _outcome(closure_from_presentation(pres, 5)[0]) == _outcome(
        _fresh(pres, 5, False)[0])


def test_a_raise_inside_a_stage_leaves_no_half_built_entry(monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    pres = parse_presentation("Q[x,y]/(x^2, y^2)")
    closure_from_presentation(pres, 2)
    run = closure_module._last.run
    close_under = RowSpace.close_under

    def interrupted(*args):
        raise KeyboardInterrupt

    # stage 3 stops in its span, after its division
    monkeypatch.setattr(RowSpace, "close_under", interrupted)
    with pytest.raises(KeyboardInterrupt):
        closure_from_presentation(pres, 3)
    assert closure_module._last is None
    assert len(run.stages) == len(run.pairs) == 2
    monkeypatch.setattr(RowSpace, "close_under", close_under)
    res, _ = closure_from_presentation(pres, 3)
    assert closure_module._last.run is not run
    assert _outcome(res) == _outcome(_fresh(pres, 3, False)[0])
    # the run itself still extends from its last whole stage
    assert run.result(4, 10 ** 6).stage_dims == (4, 13, 26, 26)
