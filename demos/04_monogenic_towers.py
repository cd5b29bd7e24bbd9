"""Monogenic algebras: splitting off one root at a time.

For A = K[x]/(f) the m-closure is a tower: adjoin a root, divide it out,
repeat.  `monogenic_tower` gives the tower's dimension, the falling
factorial n(n-1)...(n-m+1), and the relation each division leaves; the
dimension agrees with the generic pipeline run on the same algebra.
"""

import random

from closurelab import (GF, QQ, m_closure, monogenic_algebra, monogenic_tower,
                        parse_univariate, transform_monic)
from closurelab.multipoly import format_univariate

q = QQ()
f, _ = parse_univariate("Z^4+1", q)
tower = monogenic_tower(f, 3, q)
print("tower of Z^4 + 1, three roots split off:")
for i, rel in enumerate(tower.relations, start=1):
    print(f"  stage {i}: {rel} = 0")
print("dimension:", tower.dim, "(= 4*3*2)")

# towers also make sense over the integers; division by a monic linear
# factor never leaves the integers
zt = monogenic_tower(f, 2, None)
print("\nsame tower over Z: dimension", zt.dim, "relations", list(zt.relations))

# the tower and the generic pipeline agree over a finite field
rng = random.Random(0)
f7 = GF(7)
coeffs = [f7.random_element(rng) for _ in range(4)] + [f7.one]
alg = monogenic_algebra(f7, coeffs)
for m in (1, 2, 3):
    t = monogenic_tower(coeffs, m, f7)
    p = m_closure(alg, m)
    print(f"deg 4 over GF(7), m={m}: tower {t.dim}, pipeline {p.dim}")

# the transform sends prod (Z - a_i) to prod (Z - g(a_i)) with no root
# finding: squaring the roots 1, 2, 3
g, _ = parse_univariate("X^2", q)
f3, _ = parse_univariate("Z^3-6Z^2+11Z-6", q)
out = transform_monic(f3, g, q)
print("\nroots 1,2,3 squared:", format_univariate(out, q))
