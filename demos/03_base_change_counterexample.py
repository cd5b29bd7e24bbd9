"""Why the closure quantifies over base changes.

Imposing the divisibility only for elements of A itself (the "naive"
construction) looks equivalent but is not: over F2 the algebra
F2[x1..x4]/(m^2) has naive 3-closure of dimension 111, yet after extending
scalars to F4 the same construction gives 105.  The true closure is 105
over both fields.

A side note on the 111: the naive ideal here is the span of the fifteen
tensor cubes a x a x a with a in the maximal ideal.  Those cubes sum to
zero over F2 (each coordinate counts a coset of even size), so the span has
rank 14, one less than a count of the vectors would suggest.
"""

from closurelab import (GF, algebra_from_presentation,
                        base_change_presentation, m_closure, naive_closure,
                        parse_presentation)

pres = parse_presentation("F2[x1,x2,x3,x4]/((x1,x2,x3,x4)^2)")
a2 = algebra_from_presentation(pres)
a4 = algebra_from_presentation(base_change_presentation(pres, GF(2, 2)))

naive2 = naive_closure(a2, 3)
naive4 = naive_closure(a4, 3)
print("naive 3-closure over F2:", naive2.dim,
      f"(ideal rank {naive2.rank} from {naive2.generator_count} remainders)")
print("naive 3-closure over F4:", naive4.dim,
      f"(ideal rank {naive4.rank})")
print("base change changed the answer:", naive2.dim != naive4.dim)

true2 = m_closure(a2, 3)
true4 = m_closure(a4, 3)
print("\ntrue 3-closure over F2:", true2.dim)
print("true 3-closure over F4:", true4.dim)
print("the true closure is stable:", true2.dim == true4.dim)
