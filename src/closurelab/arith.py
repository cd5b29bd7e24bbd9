"""Exact scalar arithmetic over Q, GF(p) and small extension fields GF(p^k).

Scalars are plain Python values so that hot loops stay cheap:

* rationals      -> int when integral, otherwise fractions.Fraction in
                    lowest terms with denominator > 1.  Integer arithmetic
                    skips the Fraction constructor and its gcds, and Q
                    results always come back in this form.
* GF(p)          -> int in [0, p)
* GF(p^k)        -> int in [0, p^k); base-p digits are the coefficients of
                    1, t, ..., t^(k-1) where t is the extension generator.

In every case the zero element is falsy, so sparse containers can drop
entries with a bare truth test.  Field handles carry the operations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NotPrime, ReducibleModulus, UnsupportedField

MAX_FIELD_SIZE = 1 << 61

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime >= n."""
    while not is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# dense univariate arithmetic over GF(p): coefficient lists, lowest first.
# It searches moduli, and GF(p^k) = GF(p)[t]/(g) multiplies and takes
# powers with it.


def _digits(v, p, k):
    """The k base-p digits of v, lowest first."""
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(f, g, mod, p):
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                prod[j] += a * b
    return _poly_remmod(prod, mod, p)


def _poly_remmod(f, mod, p):
    """The remainder of f by `mod`, reduced mod p and trimmed.  The
    coefficients of f may be any ints, and zero high ones are allowed."""
    f = list(f)
    dm = len(mod) - 1
    inv_lead = 1 if mod[-1] == 1 else pow(mod[-1], -1, p)
    for top in range(len(f) - 1, dm - 1, -1):
        c = f[top] * inv_lead % p
        if c:
            for i, m in enumerate(mod, top - dm):
                f[i] -= c * m
    del f[dm:]
    for i, c in enumerate(f):
        f[i] = c % p
    return _poly_trim(f)


def _poly_gcd(f, g, p):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f, g = g, _poly_remmod(f, g, p)
    return f


def _poly_powmod(f, e, mod, p):
    """f^e reduced mod `mod`, by square-and-multiply."""
    acc = [1]
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, f, mod, p)
        e >>= 1
        if e:
            f = _poly_mulmod(f, f, mod, p)
    return acc


def _frobenius_power(i, mod, p):
    """X^(p^i) reduced mod `mod`, via repeated X -> X^p."""
    x = _poly_remmod([0, 1], mod, p)
    for _ in range(i):
        x = _poly_powmod(x, p, mod, p)
    return x


def is_irreducible(modulus, p: int) -> bool:
    """Check a monic polynomial over GF(p):  gcd(X^(p^i) - X, f) = 1 for
    i < deg f, and X^(p^k) = X mod f."""
    k = len(modulus) - 1
    if k < 1:
        return False

    def frobenius_minus_x(i):
        xi = _frobenius_power(i, modulus, p) + [0, 0]
        xi[1] -= 1
        return _poly_trim([c % p for c in xi])

    return (all(len(_poly_gcd(modulus, frobenius_minus_x(i), p)) == 1
                for i in range(1, k))
            and not frobenius_minus_x(k))


# Moduli that differ from the search's choice.  GF(9) keeps t^2 + 2t + 2,
# where the search finds t^2 + 1, so that its outputs stay as they were.
_FIXED_MODULI = {
    (3, 2): (2, 2, 1),
}


def default_modulus(p: int, k: int) -> tuple:
    """Fixed table entry when available, otherwise the first monic
    irreducible of degree k >= 2 in lexicographic order of the low digits.
    A root at 0 (constant digit 0) or at 1 (digit sum 0 mod p) is a linear
    factor, so those candidates skip the full test."""
    if (p, k) in _FIXED_MODULI:
        return _FIXED_MODULI[(p, k)]
    for low in range(p ** k):
        cand = tuple(_digits(low, p, k)) + (1,)
        if cand[0] == 0 or sum(cand) % p == 0:
            continue
        if is_irreducible(list(cand), p):
            return cand
    raise ReducibleModulus(f"no irreducible modulus found for GF({p}^{k})")


# ---------------------------------------------------------------------------


class Field:
    """One of the supported exact fields, with arithmetic on raw scalar
    values: each concrete field provides add, sub, mul, neg, inv,
    from_int, random_element and format_scalar.  Build fields with QQ(),
    GF() or field_from_order(), which return one object per field, so two
    fields are equal when they are the same object."""

    kind: str            # "rationals" | "prime" | "extension"
    char: int
    order: int | None    # None means infinite (the rationals)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """Iterate all field elements (finite fields only)."""
        raise UnsupportedField("field is not finite")

    def __repr__(self):
        return f"Field({self})"


def _rational(x):
    """The canonical form of a rational: an int when x is integral."""
    if x.__class__ is int or x.denominator != 1:
        return x
    return x.numerator


class RationalField(Field):
    kind = "rationals"

    def __init__(self):
        self.char = 0
        self.order = None
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return _rational(1 / Fraction(a))

    def from_int(self, n):
        return n

    def random_element(self, rng):
        return _rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def format_scalar(self, a):
        return str(a)

    def __str__(self):
        return "Q"


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def random_element(self, rng):
        return rng.randrange(self.p)

    def format_scalar(self, a):
        return str(a % self.p)

    def __str__(self):
        return f"F{self.p}"


class ExtensionField(Field):
    """GF(p^k) with elements packed as integers in [0, p^k).

    Base-p digit i of an element is the coefficient of t^i.  Products and
    powers are those of the digit polynomials mod `default_modulus(p, k)`;
    for small orders the multiplication and inverse tables are precomputed.
    """

    kind = "extension"
    _TABLE_LIMIT = 256

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = default_modulus(p, k)
        self.char = p
        self.order = p ** k
        self.zero = 0
        self.one = 1
        self.gen = p                    # the element t
        self._mul_table = None
        self._inv_table = None
        if self.order <= self._TABLE_LIMIT:
            self._build_tables()

    # -- digit helpers

    def _pack(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _build_tables(self):
        q = self.order
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                table[a][b] = table[b][a] = self._mul_raw(a, b)
        self._mul_table = table
        self._inv_table = [0] + [table[a].index(1) for a in range(1, q)]

    def _mul_raw(self, a, b):
        p, k = self.p, self.k
        return self._pack(_poly_mulmod(_digits(a, p, k), _digits(b, p, k),
                                       self.modulus, p))

    # -- field ops

    def add(self, a, b):
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        return self._pack(_poly_powmod(_digits(a, self.p, self.k), e,
                                       self.modulus, self.p))

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.order)

    def random_element(self, rng):
        return rng.randrange(self.order)

    def format_scalar(self, a):
        digits = _digits(a, self.p, self.k)
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = digits[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
        return "+".join(parts) if parts else "0"

    def __str__(self):
        return f"GF({self.p},{self.k})"


_FIELDS: dict = {}     # "Q" or (p, k) -> Field


def QQ() -> Field:
    """The rationals."""
    field = _FIELDS.get("Q")
    if field is None:
        field = _FIELDS["Q"] = RationalField()
    return field


def GF(p: int, k: int = 1) -> Field:
    """GF(p^k).  For k >= 2 the elements are polynomials in t modulo
    `default_modulus(p, k)`.  The size checks come before the modulus
    search, which takes minutes at large k."""
    key = (p, k)
    field = _FIELDS.get(key)
    if field is None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise UnsupportedField(f"GF({p},{k}): the degree must be at least 1")
        if k >= 61 or p ** k >= MAX_FIELD_SIZE:      # p^k >= 2^k
            size = p if k == 1 else f"{p}^{k}"
            raise UnsupportedField(f"field size {size} exceeds 2^61")
        field = _FIELDS[key] = PrimeField(p) if k == 1 else ExtensionField(p, k)
    return field


def field_from_order(q: int) -> Field:
    """GF(q) for a prime power q, or raise."""
    if q >= MAX_FIELD_SIZE:
        raise UnsupportedField(f"field size {q} exceeds 2^61")
    if is_prime(q):
        return GF(q)
    # for k >= 2 the root is below 2^31, where a float root rounds exactly
    for k in range(2, q.bit_length()):
        p = round(q ** (1 / k))
        if p ** k == q and is_prime(p):
            return GF(p, k)
    raise UnsupportedField(f"{q} is not a prime power")
