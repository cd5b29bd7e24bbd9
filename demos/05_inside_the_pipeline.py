"""A look inside the construction.

The generic element gamma = sum e_i X_i packages every element of every
base change at once.  Its characteristic polynomial is divided by one
linear factor per slot; the X-coefficients of the remainders generate the
defining ideal, and the quotient carries the structural maps.  The closure
is built one slot at a time: stage s quotients (closure after s-1 slots)
tensor A by the slot-s relations.
"""

from closurelab import (algebra_from_presentation, divides_check,
                        generic_char_poly, m_closure, parse_presentation)
from closurelab.multipoly import format_univariate

a = algebra_from_presentation(parse_presentation("Q[x,y]/((x,y)^2)"))
g = generic_char_poly(a)
print("generic characteristic polynomial of (x, y)^2  (a local algebra,")
print("so it collapses to a perfect power of Z - X1):")
for d in range(len(g.coeffs) - 1, -1, -1):
    print(f"  Z^{d} coefficient: {g.coeffs[d]}")

# evaluating X at the coordinates of an element recovers its char poly
point = (2, 1, -1)
print("\nspecialized at (2, 1, -1):",
      format_univariate([c.evaluate(point) for c in g.coeffs], a.field))

# slot 1 contributes nothing (Cayley-Hamilton); slot 2 carries relations,
# quotiented out of the 9-dimensional A tensor A
result = m_closure(a, 2)
print("\nstage dimensions:", result.stage_dims)
print(f"remainder rows: {result.generator_count} nonzero, "
      f"ideal rank {result.rank} = {a.dim}^2 - {result.dim}")
print("basis:", ", ".join(result.closure.label_str(i)
                          for i in range(result.dim)))
x = {a.labels.index("x"): 1}
print("x under the two maps:",
      " | ".join(result.closure.format_vec(mp.apply_dict(x))
                 for mp in result.maps))
print("certificate:", divides_check(result))

# each stage works inside (previous closure) tensor A, never inside the
# full tensor power: for (x^6) at m=5 that power would be 7776-wide
big = algebra_from_presentation(parse_presentation("Q[x]/(x^6)"))
r = m_closure(big, 5)
print("\n(x^6) at m=5, stage by stage:")
print("stage dimensions:", r.stage_dims, "-> final", r.dim)
print("widest stage:", max(r.stage_dims[:-1]) * big.dim, "columns")
