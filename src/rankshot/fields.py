"""Finite field arithmetic: prime fields and polynomial extension fields.

Elements are plain Python ints.  A prime field F_q uses the residues
0..q-1.  An extension field of degree M over a base field of size s
stores the element with polynomial-basis coordinates (c_0, ..., c_{M-1})
as the integer sum(c_j * s**j); that integer is also the canonical
serialized form used on the wire.  Towers are supported: the base of an
ExtensionField may itself be an ExtensionField.

Moduli are monic irreducible polynomials kept as low-degree-first
coefficient tuples.  When no modulus is given, the lexicographically
smallest irreducible monic polynomial of the requested degree is used
(coefficients compared low-degree-first).  Irreducibility is Rabin's
test on bit-packed ints over F_2, where a product mod f is shifts and
XORs on one int; over larger fields it is a root test for quadratics
and Rabin's test on coefficient lists otherwise.  Each is polynomial in
the degree and in log q: no field element is enumerated, so a large q
costs no more than its bit length.

Fields of size at most _TABLE_LIMIT build exp/log tables at construction;
larger fields keep polynomial arithmetic.  Over F_2 that arithmetic
runs on the element ints themselves, shifts and XORs modulo the modulus
held as one int (_mulmod_bits, the product F_2's Rabin test uses), and
over other base fields on coordinate lists.  That size test and that
base-field test are the only places the paths are chosen, both in
ExtensionField's constructor.  The table format is private: the exp
table is doubled, so a product reads exp[log a + log b] with no modulo,
and zero's log points past it into a run of zeros, so a product with a
zero factor needs no branch either.  frobenius reads the log table with
the precomputed exponents p^j mod (size - 1), whose period is
log_p(size), the degree over the prime field, not the degree over the
immediate base, so tower fields keep the right period.

Both field classes offer three row primitives, scale_row(f, row) =
f * row and sub_scaled_row(row, f, top) = row - f * top, entry by
entry, and dot(u, v), the sum of the products u[c] * v[c]; in
characteristic 2 a table field computes the last two as fused XORs of
table products.  linalg.rref_field (and so rref over PrimeField(q),
kernel_field and solve_field) and poly_divmod do their row work through
the first two, and matvec takes one dot a row.  Field objects are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import Q_GUARD, json_int

_TABLE_LIMIT = 1 << 12


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n by trial division, ascending; [] for n < 2."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """The field of integers modulo a prime q."""

    def __init__(self, q: int):
        # checked first: it also bounds the trial division of _is_prime
        if q >= Q_GUARD:
            raise ValueError(f"prime field size must be below {Q_GUARD}, got {q}")
        if not _is_prime(q):
            raise ValueError(f"prime field size must be prime, got {q}")
        self.q = q
        self.size = q
        self.characteristic = q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.q - 2, self.q)

    def scale_row(self, f: int, row) -> list:
        """f * row, entry by entry."""
        q = self.q
        return [f * x % q for x in row]

    def sub_scaled_row(self, row, f: int, top) -> list:
        """row - f * top, entry by entry."""
        q = self.q
        return [(x - f * y) % q for x, y in zip(row, top)]

    def dot(self, u, v) -> int:
        """sum of u[c] * v[c]."""
        return sum(a * b for a, b in zip(u, v)) % self.q

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        return pow(a % self.q, e, self.q)

    def elements(self):
        return range(self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


# ---------------------------------------------------------------------------
# dense polynomials over an arbitrary field object
# (coefficient lists, low degree first, int entries)

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_sub(field, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim([field.sub(x, y) for x, y in zip(a, b)])


def poly_mul(field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(out)


def poly_divmod(field, a, b):
    """Return (quotient, remainder) of a / b; b must be nonzero."""
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.inv(b[-1])
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        coef = field.mul(rem[-1], lead_inv)
        shift = len(rem) - len(b)
        quot[shift] = coef
        rem[shift:] = field.sub_scaled_row(rem[shift:], coef, b)
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), rem


def _poly_mulmod(field, a, b, mod):
    return poly_divmod(field, poly_mul(field, a, b), mod)[1]


def _poly_gcd(field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return a


def _quadratic_irreducible(field, f) -> bool:
    """Whether a x^2 + b x + c, f = [c, b, a], has no root in F_Q.

    In characteristic 2 it has one iff b = 0 (every element is a square)
    or Tr(ac / b^2) = 0, Tr the absolute trace a + a^2 + ... +
    a^(2^(k-1)), Q = 2^k.  In odd characteristic it has one iff its
    discriminant b^2 - 4ac is a square, by Euler's criterion: zero, or
    its (Q-1)/2-th power is 1.  About log2(Q) multiplications either way.
    """
    c, b, a = f
    ac = field.mul(a, c)
    if field.characteristic == 2:
        if not b:
            return False
        s = trace = field.div(ac, field.mul(b, b))
        for _ in range(field.size.bit_length() - 2):
            s = field.mul(s, s)
            trace = field.add(trace, s)
        return trace == 1
    ac2 = field.add(ac, ac)
    disc = field.sub(field.mul(b, b), field.add(ac2, ac2))
    return disc != 0 and field.pow(disc, (field.size - 1) // 2) != 1


def _mulmod_bits(a: int, b: int, f: int, n: int) -> int:
    """a * b mod f over F_2, each polynomial an int with bit j the
    coefficient of x^j, f of degree n and a of degree below n: b's bits
    pick shifted copies of a, each kept below degree n by one XOR of f."""
    top, out = 1 << n, 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return out


def _binary_irreducible(f: int, n: int) -> bool:
    """Rabin's test over F_2 for f of degree n >= 1 held as an int, bit j
    the coefficient of x^j: a product mod f is shifts and XORs on one
    int (_mulmod_bits), and x^(2^k) mod f is k squarings of x."""
    x = 2 ^ f if n == 1 else 2           # x mod f
    frobenius = [x]                      # frobenius[k] = x^(2^k) mod f
    for _ in range(n):
        frobenius.append(_mulmod_bits(frobenius[-1], frobenius[-1], f, n))
    if frobenius[n] != x:
        return False
    for p in _prime_factors(n):
        a, b = f, frobenius[n // p] ^ x  # gcd(f, x^(2^(n/p)) - x)
        while b:
            while a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        if a != 1:
            return False
    return True


def is_irreducible(field, coeffs) -> bool:
    """Whether a polynomial f of degree n >= 1 over F_Q, Q = field.size, is
    irreducible.

    Over F_2 every degree runs Rabin's test on bit-packed ints
    (_binary_irreducible).  Otherwise a quadratic is irreducible iff it
    has no root (_quadratic_irreducible), and any other degree runs
    Rabin's test on coefficient lists: f is irreducible iff it divides
    x^(Q^n) - x and shares no factor with x^(Q^(n/p)) - x for any prime
    p dividing n.  The powers come from n Q-th powerings mod f, each
    log2(Q) squarings.  Both are polynomial in n and log Q, and no field
    element is enumerated.
    """
    f = poly_trim(coeffs)
    n = len(f) - 1
    if n < 1:
        return False
    if field.size == 2:
        return _binary_irreducible(sum(c << j for j, c in enumerate(f)), n)
    if n == 2:
        return _quadratic_irreducible(field, f)
    return _rabin_irreducible(field, f, n)


def _rabin_irreducible(field, f, n: int) -> bool:
    """Rabin's test on coefficient lists over any field; see is_irreducible."""
    x = poly_divmod(field, [0, 1], f)[1]
    frobenius = [x]                   # frobenius[k] = x^(Q^k) mod f
    for _ in range(n):
        e, base, out = field.size, frobenius[-1], [1]
        while e:
            if e & 1:
                out = _poly_mulmod(field, out, base, f)
            base = _poly_mulmod(field, base, base, f)
            e >>= 1
        frobenius.append(out)
    if poly_sub(field, frobenius[n], x):
        return False
    return all(len(_poly_gcd(field, f, poly_sub(field, frobenius[n // p], x))) == 1
               for p in _prime_factors(n))


def default_modulus(field, degree: int) -> tuple:
    """Lexicographically smallest monic irreducible polynomial of the
    given degree (coefficients compared low-degree-first).

    Candidates are counted off as base-|field| numerals, c_0 the most
    significant digit, so the base field is never materialised.  Above
    degree 1 every candidate with c_0 = 0 is divisible by x, and the
    count starts at c_0 = 1.
    """
    if degree < 1:
        raise ValueError("extension degree must be >= 1")
    size = field.size
    for idx in itertools.count(0 if degree == 1 else size ** (degree - 1)):
        cand = [idx // size ** (degree - 1 - t) % size for t in range(degree)] + [1]
        if is_irreducible(field, cand):
            return tuple(cand)


class ExtensionField:
    """Degree-M polynomial extension of a base field.

    Elements are ints in [0, size); the coordinate tuple of an element in
    the polynomial basis (1, x, x^2, ...) is its base-|base| digit
    expansion, low digit first.  A modulus and a degree given together
    must agree.
    """

    def __init__(self, base, modulus=None, degree: int | None = None):
        self.base = base
        if modulus is None:
            if degree is None:
                raise ValueError("give either a modulus or a degree")
            modulus = default_modulus(base, degree)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if degree is not None and degree != len(modulus) - 1:
            raise ValueError(f"modulus has degree {len(modulus) - 1}, not the given {degree}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if any(c < 0 or c >= base.size for c in modulus):
            raise ValueError("modulus coefficients out of base-field range")
        if not is_irreducible(base, modulus):
            raise ValueError(f"modulus {modulus} is reducible")
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.size = base.size ** self.degree
        self.characteristic = base.characteristic
        self._place = base.size ** np.arange(self.degree, dtype=np.int64)
        # the class of x, used as the canonical generator for evaluation points
        self.gen = base.size if self.degree >= 2 else base.neg(modulus[0])
        # over F_2 an element int is its coefficient bits: the modulus as one int
        self._bits = sum(c << j for j, c in enumerate(modulus)) if base.size == 2 else None
        self._exp = None
        self._log = None
        self._frobenius_e = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    # -- coordinates ------------------------------------------------------

    def coords(self, a: int) -> tuple:
        if a < 0 or a >= self.size:
            raise ValueError(f"element {a} out of range for field of size {self.size}")
        s = self.base.size
        out = []
        for _ in range(self.degree):
            a, r = divmod(a, s)
            out.append(r)
        return tuple(out)

    def from_coords(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        s = self.base.size
        a = 0
        for c in reversed(cs):
            c = int(c)
            if c < 0 or c >= s:
                raise ValueError(f"coordinate {c} out of base-field range")
            a = a * s + c
        return a

    def elements(self):
        return range(self.size)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        ca, cb = self.coords(a), self.coords(b)
        return self.from_coords([self.base.add(x, y) for x, y in zip(ca, cb)])

    def sub(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        ca, cb = self.coords(a), self.coords(b)
        return self.from_coords([self.base.sub(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        if self.characteristic == 2:
            return a
        return self.from_coords([self.base.neg(x) for x in self.coords(a)])

    def _mul_poly(self, a: int, b: int) -> int:
        if self._bits is not None:
            return _mulmod_bits(a, b, self._bits, self.degree)
        if a == 0 or b == 0:
            return 0
        base, m = self.base, self.degree
        cb = self.coords(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.coords(a)):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        # c x^t = -c x^(t-m) (f - x^m) for the monic modulus f, top term first
        for t in range(2 * m - 2, m - 1, -1):
            c = prod[t]
            if c:
                for k, f in enumerate(self.modulus[:-1]):
                    if f:
                        prod[t - m + k] = base.sub(prod[t - m + k], base.mul(c, f))
        return self.from_coords(prod[:m])

    def _pow_poly(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_poly(out, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return out

    def _build_tables(self):
        order = self.size - 1
        factors = _prime_factors(order) if order > 1 else []
        g = 1
        for cand in range(1, self.size):
            if all(self._pow_poly(cand, order // p) != 1 for p in factors):
                g = cand
                break
        exp = [1]
        for _ in range(order - 1):
            exp.append(self._mul_poly(exp[-1], g))
        log = [0] * self.size
        for i, v in enumerate(exp):
            log[v] = i
        # the sum of two logs of nonzero elements stays below 2 * order;
        # zero's log, 2 * order, puts any sum with it in the zero run
        log[0] = 2 * order
        self._exp = exp * 2 + [0] * (2 * order + 1)
        self._log, self._order = log, order
        p, digits = self.characteristic, 0
        while p ** digits < self.size:
            digits += 1
        self._frobenius_e = tuple(pow(p, j, order) for j in range(digits))

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def scale_row(self, f: int, row) -> list:
        """f * row, entry by entry."""
        exp = self._exp
        if exp is None:
            return [self._mul_poly(f, x) for x in row]
        log = self._log
        lf = log[f]
        return [exp[lf + log[x]] for x in row]

    def sub_scaled_row(self, row, f: int, top) -> list:
        """row - f * top, entry by entry: one XOR comprehension for a
        characteristic-2 table field."""
        exp = self._exp
        if exp is None or self.characteristic != 2:
            return [self.sub(x, self.mul(f, y)) for x, y in zip(row, top)]
        log = self._log
        lf = log[f]
        return [x ^ exp[lf + log[y]] for x, y in zip(row, top)]

    def dot(self, u, v) -> int:
        """sum of u[c] * v[c]: one XOR loop over table products for a
        characteristic-2 table field."""
        exp = self._exp
        acc = 0
        if exp is None or self.characteristic != 2:
            for a, b in zip(u, v):
                acc = self.add(acc, self.mul(a, b))
            return acc
        log = self._log
        for a, b in zip(u, v):
            acc ^= exp[log[a] + log[b]]
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self._order - self._log[a]]
        # extended Euclid on the coordinate polynomials: s_i a = r_i mod
        # the modulus, which is irreducible, so r ends at a nonzero constant
        base = self.base
        r0, r1 = list(self.modulus), poly_trim(self.coords(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quot, rem = poly_divmod(base, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(base, s0, poly_mul(base, quot, s1))
        return self.from_coords(base.scale_row(base.inv(r1[0]), s1))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        if a == 0:
            return 0 if e else 1
        order = self.size - 1
        e %= order
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % order]
        return self._pow_poly(a, e)

    def frobenius(self, a: int, j: int) -> int:
        """a raised to the power p^j, p the field characteristic."""
        if a == 0:
            return 0
        es = self._frobenius_e
        if es is not None:
            return self._exp[self._log[a] * es[j % len(es)] % self._order]
        return self._pow_poly(a, pow(self.characteristic, j, self.size - 1))

    # -- words and their coordinate matrices ------------------------------

    def underline(self, words) -> np.ndarray:
        """Coordinate matrix of a word, or stack of them for an array of words.

        Entry [..., i, j] of the result is coordinate j of words[..., i]:
        row i of a word's matrix is the coordinate tuple of its i-th
        element, and a stack of words gives a stack of matrices.
        """
        arr = np.asarray(words, dtype=np.int64)
        if arr.ndim == 1:
            # a plain comparison loop is faster than numpy on one short word
            bad = not all(0 <= a < self.size for a in words)
        else:
            bad = arr.size and (arr.min() < 0 or arr.max() >= self.size)
        if bad:
            raise ValueError(f"word has an element out of range for field of size {self.size}")
        out = arr[..., None] // self._place
        out %= self.base.size
        return out

    def overline(self, mat) -> tuple:
        """Inverse of underline: rows of coordinates back to elements."""
        return tuple(self.from_coords([int(v) for v in row]) for row in mat)

    def vec_add(self, u, v) -> tuple:
        if len(u) != len(v):
            raise ValueError("length mismatch")
        if self.characteristic == 2:
            return tuple(a ^ b for a, b in zip(u, v))
        return tuple(self.add(a, b) for a, b in zip(u, v))

    def vec_sub(self, u, v) -> tuple:
        if len(u) != len(v):
            raise ValueError("length mismatch")
        if self.characteristic == 2:
            return tuple(a ^ b for a, b in zip(u, v))
        return tuple(self.sub(a, b) for a, b in zip(u, v))

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))

    def __repr__(self):
        return f"ExtensionField({self.base!r}, modulus={self.modulus})"


def check_word(field, word) -> None:
    """Refuse a word with an element that is not an int in [0, field.size).

    Decoders call it before any arithmetic: a table read takes -1 for the
    last entry and fails with IndexError past the end, and numpy
    truncates 1.5 to 1.  A bool is refused, as json_int refuses it.
    """
    size = field.size
    for a in word:
        if type(a) is not int:
            if isinstance(a, bool) or not hasattr(type(a), "__index__"):
                raise ValueError(f"word element {a!r} is not an integer")
            a = operator.index(a)
        if not 0 <= a < size:
            raise ValueError(f"word element {a} out of range for field of size {size}")


def matvec(field, rows, vec) -> tuple:
    """Multiply a matrix (sequence of row sequences over *field*) by a
    vector: one field.dot a row."""
    width = len(vec)
    out = []
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix/vector size mismatch")
        out.append(field.dot(row, vec))
    return tuple(out)


def field_from_json(doc: dict) -> ExtensionField:
    q = json_int(doc["q"], "field q")
    m = json_int(doc["M"], "field M")
    modulus = doc.get("modulus")
    if modulus is not None:
        modulus = [json_int(c, "modulus coefficient") for c in modulus]
    return ExtensionField(PrimeField(q), modulus=modulus, degree=m)


def field_to_json(field: ExtensionField) -> dict:
    return {
        "q": field.base.size,
        "M": field.degree,
        "modulus": list(field.modulus),
    }
