"""Reproducing the published dimension tables.

Every bundled manifest row carries its expected dimensions; running a row
recomputes them from scratch.  Char-0 rows run in one-prime modular mode by
default, whose dimensions are proved upper bounds for the ones over Q (and
equal them on every row here), with exact rationals one flag away.
"""

import time

from closurelab import closure_from_presentation, table1_entries

print(f"{'ideal':34s} {'n':>2s}  dims for m = 2..n")
t0 = time.time()
for entry in table1_entries():
    pres = entry.presentation()
    n = max(entry.expected)
    dims = []
    for m in range(2, n + 1):
        result, mode = closure_from_presentation(pres, m)
        dims.append(result.dim)
        assert result.dim == entry.expected[m], (entry.name, m)
    print(f"{entry.name:34s} {n:>2d}  {dims}")
print(f"all rows match in {time.time() - t0:.1f}s ({mode})")

# the product formula reduces products to their factors
from closurelab import (algebra_from_presentation, algebra_product,
                        m_closure, parse_presentation, product_formula_dim)

a = algebra_from_presentation(parse_presentation("Q[x]/(x^3)"))
k = algebra_from_presentation(parse_presentation("Q[x]/(x)"))
prod = algebra_product(a, k)
dims_a = [m_closure(a, m).dim for m in range(4)]
dims_k = [m_closure(k, m).dim for m in range(4)]
direct = m_closure(prod, 3).dim
formula = product_formula_dim(dims_a, dims_k, 3)
print(f"\nK[x]/(x^3) x K at m=3: direct {direct}, product formula {formula}")
