"""Exact computation of intermediate closures of finite commutative algebras.

The m-closure of an algebra A of dimension n is the universal algebra with
m maps from A whose linear factors divide every characteristic polynomial,
after arbitrary base change.  This package computes them exactly over the
rationals and over finite fields, together with the naive element-only
variant, monogenic towers, and the monic-polynomial transform.
"""

from .arith import GF, QQ, Field, field_from_order, is_prime, next_prime
from .catalog import (ManifestEntry, load_manifest, manifest_path,
                      table1_entries, table2_entries)
from .closure import (ClosureResult, GenericCharData,
                      base_change_presentation, closure_from_presentation,
                      divides_check, etale_closure_dim, galois_factor_count,
                      generic_char_poly, m_closure, modular_prime,
                      monogenic_algebra, monogenic_tower, naive_closure,
                      product_formula_dim, reduce_mod_prime, transform_monic)
from .finalg import (AlgebraMap, QuotientAlgebra, RowSpace,
                     StructureAlgebra, TableAlgebra, TensorPairAlgebra,
                     algebra_from_presentation, algebra_product,
                     berkowitz_charpoly, char_poly, mult_matrix)
from .groebner import GroebnerBasis, buchberger, normal_form, standard_monomials
from .multipoly import (AlgebraPresentation, Monomial, MultiPoly, PolyRing,
                        parse_poly, parse_presentation, parse_univariate)

__version__ = "0.1.0"
