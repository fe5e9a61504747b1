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
test, polynomial in the degree and in log q: no field element is
enumerated, so a large q costs no more than its bit length.

Fields of size at most _TABLE_LIMIT build exp/log tables at construction;
larger fields keep polynomial arithmetic, and that size test is the only
place the two paths are chosen.  The table format is private: the exp
table is doubled, so a product reads exp[log a + log b] with no modulo,
and zero's log points past it into a run of zeros, so a product with a
zero factor needs no branch either.  frobenius reads the log table with
the precomputed exponents p^j mod (size - 1), whose period is
log_p(size), the degree over the prime field, not the degree over the
immediate base, so tower fields keep the right period.

Both field classes offer two row primitives, scale_row(f, row) = f * row
and sub_scaled_row(row, f, top) = row - f * top, entry by entry; in
characteristic 2 a table field computes the second as one fused XOR
comprehension.  linalg.rref_field (and so rref over PrimeField(q),
kernel_field and solve_field), matvec and poly_divmod do their row work
through them.  Field objects are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import itertools

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


def poly_eval(field, a, x):
    acc = 0
    for c in reversed(poly_trim(a)):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _poly_mulmod(field, a, b, mod):
    return poly_divmod(field, poly_mul(field, a, b), mod)[1]


def _poly_gcd(field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return a


def is_irreducible(field, coeffs) -> bool:
    """Rabin's test of a polynomial f of degree n >= 1 over F_Q, Q = field.size.

    f is irreducible iff it divides x^(Q^n) - x and shares no factor
    with x^(Q^(n/p)) - x for any prime p dividing n.  The powers come
    from n Q-th powerings mod f, each log2(Q) squarings: polynomial in
    n and log Q, and no field element is enumerated.
    """
    f = poly_trim(coeffs)
    n = len(f) - 1
    if n < 1:
        return False
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
    expansion, low digit first.
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
        # reduction rows: coordinates of x^(degree+t) mod modulus
        head = [base.neg(c) for c in modulus[:-1]]
        self._xpow = [tuple(head)]
        cur = list(head)
        for _ in range(self.degree - 2):
            cur = [0] + cur
            hi = cur.pop()
            if hi:
                cur = [base.add(cv, base.mul(hi, hv)) for cv, hv in zip(cur, head)]
            self._xpow.append(tuple(cur))
        # the class of x, used as the canonical generator for evaluation points
        self.gen = base.size if self.degree >= 2 else base.neg(modulus[0])
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
        if a == 0 or b == 0:
            return 0
        base = self.base
        ca, cb = self.coords(a), self.coords(b)
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                if y == 0:
                    continue
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        for t in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[t]
            if c == 0:
                continue
            prod[t] = 0
            for k, rv in enumerate(self._xpow[t - self.degree]):
                if rv:
                    prod[k] = base.add(prod[k], base.mul(c, rv))
        return self.from_coords(prod[: self.degree])

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

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self._order - self._log[a]]
        return self._pow_poly(a, self.size - 2)

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


def matvec(field, rows, vec) -> tuple:
    """Multiply a matrix (sequence of row sequences over *field*) by a vector.

    The product is the sum of vec[c] times column c: one sub_scaled_row
    call per nonzero entry of vec whose column is not zero.
    """
    width = len(vec)
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix/vector size mismatch")
    out = [0] * len(rows)
    for x, col in zip(vec, zip(*rows)):
        if x and any(col):
            out = field.sub_scaled_row(out, field.neg(x), col)
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
