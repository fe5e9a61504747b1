"""Base/extension field arithmetic and the coordinate-matrix maps."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from rankshot.channel import ChannelConfig, lift
from rankshot.cosets import PartitionChain
from rankshot.errors import Q_GUARD, ConfigError
from rankshot.fields import (
    _TABLE_LIMIT,
    ExtensionField,
    PrimeField,
    _is_prime,
    _mulmod_bits,
    _prime_factors,
    _rabin_irreducible,
    default_modulus,
    field_from_json,
    field_to_json,
    is_irreducible,
    matvec,
    poly_divmod,
    poly_mul,
)
from rankshot.gabidulin import GabidulinCode
from rankshot.linalg import rank_distance
from rankshot.multilevel import MultilevelCodeSpec
from rankshot.outer import OuterCode, SymbolMap


def test_prime_field_basics():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.div(1, 4) == 4
    assert sorted(f5.elements()) == [0, 1, 2, 3, 4]


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_is_prime_matches_a_sieve():
    limit = 10_000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert [n for n in range(-2, limit) if _is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert _prime_factors(1) == _prime_factors(0) == []
    assert _is_prime(2**31 - 1) and not _is_prime(2**31 - 3)  # 5 * 429496729


def test_prime_field_refuses_q_beyond_guard():
    # refused before the trial division, which would take minutes here
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="below"):
        PrimeField(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError, match="below"):
        PrimeField(Q_GUARD + 11)   # 4294967311, prime
    assert PrimeField(Q_GUARD - 1).q == 2**31 - 1


def test_irreducibility_trial_division():
    f2 = PrimeField(2)
    assert is_irreducible(f2, [1, 1, 0, 1])        # x^3+x+1
    assert is_irreducible(f2, [1, 0, 1, 1])        # x^3+x^2+1
    assert not is_irreducible(f2, [1, 0, 0, 1])    # x^3+1 = (x+1)(x^2+x+1)
    assert not is_irreducible(f2, [0, 1, 1])       # x^2+x = x(x+1)
    f3 = PrimeField(3)
    assert is_irreducible(f3, [1, 0, 1])           # x^2+1 over F_3


def test_default_modulus_is_lex_smallest():
    f2 = PrimeField(2)
    # low-degree-first comparison: x^3+x^2+1 precedes x^3+x+1
    assert default_modulus(f2, 3) == (1, 0, 1, 1)
    assert default_modulus(f2, 1) == (0, 1)        # x itself is monic irreducible
    assert default_modulus(PrimeField(3), 2) == (1, 0, 1)


def _has_factor_brute(field, coeffs) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(field.size), repeat=d):
            if not poly_divmod(field, coeffs, list(tail) + [1])[1]:
                return True
    return False


def test_rabin_test_matches_trial_division():
    f4 = ExtensionField(PrimeField(2), modulus=[1, 1, 1])
    for field, top in ((PrimeField(2), 6), (PrimeField(3), 4), (PrimeField(5), 3), (f4, 3)):
        for deg in range(1, top + 1):
            lex_first = None
            for low in itertools.product(range(field.size), repeat=deg):
                cand = list(low) + [1]
                irreducible = not _has_factor_brute(field, cand)
                assert is_irreducible(field, cand) == irreducible, (field, cand)
                if irreducible and lex_first is None:
                    lex_first = tuple(cand)
            assert default_modulus(field, deg) == lex_first


# default_modulus(F_2, d) for d = 1 .. 32 as ints, bit j the coefficient
# of x^j: the moduli every F_(2^M) field has been built on
_BINARY_MODULI = (
    0x2, 0x7, 0xd, 0x19, 0x29, 0x61, 0xc1, 0x1b1, 0x301, 0x481, 0xa01, 0x1201, 0x3601,
    0x4201, 0xc001, 0x1a801, 0x24001, 0x48001, 0xe4001, 0x120001, 0x280001, 0x600001,
    0x840001, 0x1b00001, 0x2400001, 0x6c00001, 0xe400001, 0x18000001, 0x28000001,
    0x60000001, 0x90000001, 0x162000001,
)


def test_binary_rabin_test_matches_the_general_path():
    """Over F_2 is_irreducible runs Rabin's test on bit-packed ints; it
    agrees with the coefficient-list paths on every binary polynomial of
    degree 1 to 10, and default_modulus keeps its moduli up to degree 32."""
    f2 = PrimeField(2)
    for deg in range(1, 11):
        for low in itertools.product(range(2), repeat=deg):
            cand = list(low) + [1]
            assert is_irreducible(f2, cand) == _rabin_irreducible(f2, cand, deg), cand
    assert tuple(sum(c << j for j, c in enumerate(default_modulus(f2, deg)))
                 for deg in range(1, 33)) == _BINARY_MODULI


def test_quadratic_root_test_matches_root_search():
    """A monic quadratic is irreducible iff no element is a root: Rabin's
    test agrees with a search over every element, in characteristic 2 and
    in odd characteristic."""
    f2, f3 = PrimeField(2), PrimeField(3)
    fields = (f2, f3, ExtensionField(f2, degree=2), PrimeField(5),
              ExtensionField(f2, degree=3), ExtensionField(f3, degree=2))
    for field in fields:
        for c, b in itertools.product(range(field.size), repeat=2):
            has_root = any(field.add(field.mul(x, field.add(x, b)), c) == 0
                           for x in field.elements())
            assert is_irreducible(field, [c, b, 1]) == (not has_root), (field, c, b)


def test_irreducibility_never_enumerates_the_base_field():
    big = PrimeField(Q_GUARD - 1)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        # -7 is a square mod 2^31 - 1, -1 is not
        assert not is_irreducible(big, [7, 0, 1])
        assert default_modulus(big, 2) == (1, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    modulus = default_modulus(PrimeField(2), 40)
    assert time.perf_counter() - t0 < 20.0
    assert modulus[0] == 1 and modulus[-1] == 1 and len(modulus) == 41


def test_modulus_validation():
    f2 = PrimeField(2)
    with pytest.raises(ValueError):
        ExtensionField(f2, modulus=[1, 0, 0, 1])   # reducible
    with pytest.raises(ValueError):
        ExtensionField(f2, modulus=[1, 1, 0, 2])   # coefficient out of range
    with pytest.raises(ValueError):
        ExtensionField(f2, modulus=[1, 1, 0, 0])   # not monic
    with pytest.raises(ValueError, match="degree 3, not the given 4"):
        ExtensionField(f2, modulus=[1, 1, 0, 1], degree=4)
    assert ExtensionField(f2, modulus=[1, 1, 0, 1], degree=3).degree == 3


def test_f8_hand_values(f8):
    a = f8.gen
    assert a == 2
    assert f8.mul(a, a) == 4            # alpha^2
    assert f8.mul(a, 4) == 3            # alpha^3 = alpha + 1
    for x in f8.elements():
        assert f8.mul(x, 1) == x
    assert f8.pow(a, 7) == 1


def test_division(f8):
    for x in range(1, 8):
        assert f8.mul(x, f8.inv(x)) == 1
        assert f8.div(x, x) == 1
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)
    with pytest.raises(ZeroDivisionError):
        f8.div(3, 0)


def test_field_axioms_random(f8, f9):
    rng = np.random.default_rng(11)
    for field in (f8, f9):
        s = field.size
        for _ in range(200):
            a, b, c = (int(x) for x in rng.integers(0, s, 3))
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.add(a, field.neg(a)) == 0


def test_frobenius(f8, f9):
    a = f8.gen
    assert f8.frobenius(a, 0) == a
    assert f8.frobenius(a, 1) == 4      # squaring
    for x in f8.elements():
        assert f8.frobenius(x, 3) == x  # period M
        assert f8.frobenius(x, 1) == f8.mul(x, x)
    for x in f9.elements():
        assert f9.frobenius(x, 2) == x
        assert f9.frobenius(x, 1) == f9.pow(x, 3)


def test_frobenius_additive(f8):
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = (int(x) for x in rng.integers(0, 8, 2))
        assert f8.frobenius(f8.add(a, b), 1) == f8.add(
            f8.frobenius(a, 1), f8.frobenius(b, 1)
        )


def test_underline_hand_example(f8):
    u = (f8.gen, 1)
    m = f8.underline(u)
    assert m.tolist() == [[0, 1, 0], [1, 0, 0]]
    z = f8.underline((0, 0))
    assert z.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_underline_overline_roundtrip(f8, f9):
    rng = np.random.default_rng(3)
    for field in (f8, f9):
        for _ in range(1000):
            u = tuple(int(x) for x in rng.integers(0, field.size, 4))
            assert field.overline(field.underline(u)) == u


def test_underline_linear(f8):
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = tuple(int(x) for x in rng.integers(0, 8, 3))
        v = tuple(int(x) for x in rng.integers(0, 8, 3))
        c = int(rng.integers(0, 2))
        lhs = f8.underline(tuple(f8.add(a, f8.mul(c, b)) for a, b in zip(u, v)))
        rhs = (f8.underline(u) + c * f8.underline(v)) % 2
        assert np.array_equal(lhs, rhs)


def test_underline_stack_matches_per_word(f8, f9):
    rng = np.random.default_rng(5)
    for field in (f8, f9):
        words = rng.integers(0, field.size, (4, 2, 3))
        stack = field.underline(words)
        assert stack.shape == (4, 2, 3, field.degree) and stack.dtype == np.int64
        for idx in np.ndindex(4, 2):
            assert np.array_equal(stack[idx], field.underline(tuple(words[idx])))
    assert f8.underline(()).shape == (0, 3)
    for bad in ((1, 8), (-1, 0), [[1, 2], [3, 8]], [[0], [-1]]):
        with pytest.raises(ValueError):
            f8.underline(bad)


def test_coords_serialization(f9):
    # integer form is sum coords[j] * q^j
    for x in f9.elements():
        coords = f9.coords(x)
        assert sum(c * 3**j for j, c in enumerate(coords)) == x
        assert f9.from_coords(coords) == x


def test_tower_field():
    f8 = ExtensionField(PrimeField(2), modulus=[1, 1, 0, 1])
    f64 = ExtensionField(f8, degree=2)
    assert f64.size == 64
    a = f64.gen
    assert f64.pow(a, 63) == 1
    # subfield embedding: coords (x, 0) behave like x
    for x in range(8):
        for y in range(8):
            emb_x = f64.from_coords((x, 0))
            emb_y = f64.from_coords((y, 0))
            assert f64.mul(emb_x, emb_y) == f64.from_coords((f8.mul(x, y), 0))


def test_poly_helpers(f8):
    base = PrimeField(2)
    prod = poly_mul(base, [1, 1], [1, 1])        # (1+x)^2 = 1 + x^2 over F_2
    assert prod == [1, 0, 1]
    quot, rem = poly_divmod(base, [1, 0, 1], [1, 1])
    assert quot == [1, 1] and rem == []


def test_matvec(f8):
    rows = ((1, 0), (0, 1), (1, 1))
    v = (f8.gen, 3)
    out = matvec(f8, rows, v)
    assert out == (f8.gen, 3, f8.add(f8.gen, 3))


def test_field_json_roundtrip(f8):
    doc = field_to_json(f8)
    assert doc == {"q": 2, "M": 3, "modulus": [1, 1, 0, 1]}
    again = field_from_json(doc)
    assert again == f8
    defaulted = field_from_json({"q": 2, "M": 3})
    assert defaulted.modulus == (1, 0, 1, 1)


def _row_fields():
    """F_8, F_9, F_16, a tower F_64 over F_8, and F_{2^13}, which is above
    the table limit and keeps polynomial arithmetic."""
    f2 = PrimeField(2)
    f8 = ExtensionField(f2, modulus=[1, 1, 0, 1])
    return [
        f8,
        ExtensionField(PrimeField(3), modulus=[1, 0, 1]),
        ExtensionField(f2, degree=4),
        ExtensionField(f8, degree=2),
        ExtensionField(f2, degree=13),
    ]


def _sample(field, rng, count):
    # zeros and ones drawn often: they are the special cases of a table
    return [int(x) for x in rng.choice(
        [0, 1, int(rng.integers(0, field.size))] + [int(v) for v in
                                                    rng.integers(0, field.size, 5)],
        count)]


def test_row_primitives_match_elementwise_arithmetic():
    assert _TABLE_LIMIT < 2 ** 13
    rng = np.random.default_rng(41)
    for field in _row_fields() + [PrimeField(2), PrimeField(7)]:
        for _ in range(60):
            f = _sample(field, rng, 1)[0]
            row, top = _sample(field, rng, 6), _sample(field, rng, 6)
            assert field.scale_row(f, row) == [field.mul(f, x) for x in row]
            assert field.sub_scaled_row(row, f, top) == [
                field.sub(x, field.mul(f, y)) for x, y in zip(row, top)]


def _matvec_reference(field, rows, vec):
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, vec):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return tuple(out)


def test_matvec_matches_elementwise_reference():
    rng = np.random.default_rng(43)
    for field in _row_fields() + [PrimeField(5)]:
        for shape in [(4, 2), (2, 4), (3, 3), (4, 1), (1, 4), (3, 0), (0, 2)]:
            for _ in range(8):
                rows = tuple(tuple(_sample(field, rng, shape[1])) for _ in range(shape[0]))
                vec = tuple(_sample(field, rng, shape[1]))
                assert matvec(field, rows, vec) == _matvec_reference(field, rows, vec)
        with pytest.raises(ValueError, match="mismatch"):
            matvec(field, ((1, 0), (0, 1)), (1, 1, 1))


def test_frobenius_matches_power_of_the_characteristic():
    """frobenius(a, j) == a^(p^j) for j beyond the degree and, on the tower
    F_64 over F_8 (degree 2, period log_2 64 = 6), for j that a period of
    `degree` would fold onto the wrong power."""
    rng = np.random.default_rng(47)
    for field in _row_fields():
        p = field.characteristic
        period = round(np.log(field.size) / np.log(p))
        assert p ** period == field.size
        xs = [0, 1, field.gen] + [int(x) for x in rng.integers(0, field.size, 6)]
        for j in range(-1, 2 * period + 2):
            for a in xs:
                assert field.frobenius(a, j) == field.pow(a, p ** j if j >= 0 else
                                                          pow(p, j, field.size - 1)), \
                    (field, a, j)
    tower = _row_fields()[3]
    assert tower.degree == 2 and tower.size == 64
    # the degree-2 period would read a^(2^2) as a^(2^0) = a, wrong outside F_4
    a = next(x for x in tower.elements() if tower.pow(x, 4) != x)
    assert tower.frobenius(a, 2) == tower.pow(a, 4) != a


def test_polynomial_path_inverse_matches_the_power():
    """inv on the polynomial path (extended Euclid on the coordinate
    polynomials) equals a^(size - 2) on sampled elements of F_(2^16),
    F_(2^32), F_(2^48) as a cubic tower over F_(2^16) and F_(3^9)."""
    f2_16 = ExtensionField(PrimeField(2), degree=16)
    fields = (f2_16, ExtensionField(PrimeField(2), degree=32),
              ExtensionField(f2_16, degree=3), ExtensionField(PrimeField(3), degree=9))
    rng = np.random.default_rng(53)
    for field in fields:
        assert field._exp is None and field.size > _TABLE_LIMIT
        for a in [1, field.size - 1, field.gen] + [int(x) for x in rng.integers(2, field.size, 3)]:
            inv = field.inv(a)
            assert inv == field._pow_poly(a, field.size - 2), (field, a)
            assert field.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        fields[0].inv(0)


def _coordinate_product(field, a, b):
    """a * b by coefficient lists: the product polynomial mod the modulus."""
    base = field.base
    prod = poly_mul(base, field.coords(a), field.coords(b))
    return field.from_coords(poly_divmod(base, prod, field.modulus)[1])


def test_packed_binary_product_matches_the_table_route():
    """Over F_2 a product is shifts and XORs modulo the modulus int
    (_mulmod_bits): on F_(2^6), every pair, and F_(2^12), sampled pairs,
    it equals the table product and the coefficient-list product.  Past
    the table, on F_(2^16) and F_(2^32), mul takes it: it equals the
    coefficient-list product, a * inv(a) = 1, and M squarings return a."""
    rng = np.random.default_rng(59)
    for degree in (6, 12):
        field = ExtensionField(PrimeField(2), degree=degree)
        assert field._exp is not None
        bits = sum(c << j for j, c in enumerate(field.modulus))
        pairs = (itertools.product(field.elements(), repeat=2) if degree == 6
                 else rng.integers(0, field.size, (3000, 2)).tolist())
        for a, b in pairs:
            got = _mulmod_bits(a, b, bits, degree)
            assert got == field.mul(a, b) == _coordinate_product(field, a, b), (degree, a, b)
    for degree in (16, 32):
        field = ExtensionField(PrimeField(2), degree=degree)
        assert field._exp is None
        sample = [int(x) for x in rng.integers(2, field.size, 40)]
        for a in [1, field.gen, field.size - 1] + sample:
            b = int(rng.integers(0, field.size))
            assert field.mul(a, b) == _coordinate_product(field, a, b), (degree, a, b)
            assert field.mul(a, field.inv(a)) == 1, (degree, a)
            x = a
            for _ in range(degree):
                x = field.mul(x, x)
            assert x == a, (degree, a)


_F8 = ExtensionField(PrimeField(2), degree=3)


def _channel(**over):
    ChannelConfig(**{"rho": 0, "tau": 0, "n": 2, "seed": 0, "N": 3, "T": 6, "q": 2,
                     **over}).validate()


def _spec(n, outer_ks):
    MultilevelCodeSpec(PartitionChain(GabidulinCode(_F8, 3, 2), [2, 1, 0]), n, outer_ks)


def _decode_erasing(index):
    code = OuterCode(_F8, 3, 1)
    return code.decode(code.encode((3,)), erasures=(index,))


# reader: (its call on one value, its bound, what a value that is not an int
# raises, what -1 and the bound raise)
_READERS = {
    "coords": (_F8.coords, 8, ValueError, ValueError),
    "from_coords": (lambda v: _F8.from_coords([v, 0, 1]), 2, ValueError, ValueError),
    "underline word": (lambda v: _F8.underline((v, 2, 3)), 8, ValueError, ValueError),
    "underline stack": (lambda v: _F8.underline(np.full((2, 3), v)), 8, ValueError,
                        ValueError),
    "lift": (lambda v: lift(_F8, (v, 2, 3)), 8, ValueError, ValueError),
    "rank_distance": (lambda v: rank_distance(_F8, (v, 2, 3), (0, 2, 3)), 8, ValueError,
                      ValueError),
    "to_tuple width 1": (SymbolMap(_F8, 1).to_tuple, 8, ValueError, ValueError),
    "to_tuple width 2": (SymbolMap(_F8, 2).to_tuple, 64, ValueError, ValueError),
    "erasure index": (_decode_erasing, 3, ValueError, ValueError),
    "modulus": (lambda v: ExtensionField(PrimeField(2), modulus=[v, 1, 0, 1]), 2,
                ValueError, ValueError),
    "spec n": (lambda v: _spec(v, [1, 1]), 8, TypeError, ValueError),
    "spec outer k": (lambda v: _spec(2, [v, 1]), 3, TypeError, ValueError),
    "symbol width": (lambda v: SymbolMap(_F8, v), 0, TypeError, ValueError),
    "Gabidulin N": (lambda v: GabidulinCode(_F8, v, 1), 4, TypeError, ValueError),
    "Gabidulin K": (lambda v: GabidulinCode(_F8, 3, v), 4, TypeError, ValueError),
    "outer n": (lambda v: OuterCode(_F8, v, 1), 8, TypeError, ValueError),
    "outer k": (lambda v: OuterCode(_F8, 3, v), 4, TypeError, ValueError),
    "channel rho": (lambda v: _channel(rho=v), 7, ConfigError, ConfigError),
    "channel N": (lambda v: _channel(N=v), 6, ConfigError, ConfigError),
    "channel split": (lambda v: _channel(rho=1, split=((v, 0), (0, 0))), 4, ConfigError,
                      ConfigError),
}


@pytest.mark.parametrize("value", [1.5, True, "3", -1, "bound", "np.int64(1)"],
                         ids=["float", "bool", "str", "negative", "bound", "numpy"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_takes_the_one_integer_rule(reader, value):
    """Every element, coordinate and position a caller passes goes through
    fields.check_ints and every count through errors.json_int (ConfigError
    from a channel config), before any arithmetic.  Over F_8, coords(2.5)
    used to return floats, from_coords, underline, to_tuple and the
    modulus to truncate 1.5 and read True as 1, and the code spec, the
    symbol map and the channel config to take float or bool counts; the
    Gabidulin and outer codes took True for a dimension.  A numpy
    integer is an integer."""
    call, bound, not_int, out_of_range = _READERS[reader]
    if value == "np.int64(1)":
        call(np.int64(1))
        return
    if value == "bound":
        value = bound
    error = out_of_range if type(value) is int else not_int
    with pytest.raises(error):
        call(value)
