"""MDS outer codes: evaluation encoding, errors-and-erasures decoding, symbol map."""

import itertools

import numpy as np
import pytest

from rankshot.fields import ExtensionField, PrimeField
from rankshot.linalg import solve_field
from rankshot.multilevel import spec_from_json, special_situation
from rankshot.outer import OuterCode, SymbolMap


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def test_repetition_code(f8):
    code = OuterCode(f8, 2, 1)
    # constant polynomial evaluated everywhere: the repetition code
    for m in range(8):
        assert code.encode((m,)) == (m, m)
    assert code.d_min == 2


def test_full_rate_code(f8):
    code = OuterCode(f8, 3, 3)
    assert code.d_min == 1
    seen = set()
    for msg in itertools.product(range(8), repeat=3):
        seen.add(code.encode(msg))
    assert len(seen) == 512  # bijective


def test_length_validation(f8):
    with pytest.raises(ValueError):
        OuterCode(f8, 8, 1)   # n must stay below field size
    with pytest.raises(ValueError):
        OuterCode(f8, 3, 4)   # k > n


def test_nonprimitive_generator_rejected():
    # over F_9 with modulus x^2+1 the canonical generator has order 4,
    # so 5 evaluation points cannot be distinct
    f9 = ExtensionField(PrimeField(3), modulus=[1, 0, 1])
    with pytest.raises(ValueError):
        OuterCode(f9, 5, 1)
    OuterCode(f9, 4, 2)  # 4 distinct powers exist


def test_mds_distance_exhaustive(f8):
    for n, k in ((3, 1), (3, 2), (4, 2)):
        code = OuterCode(f8, n, k)
        best = min(
            hamming(a, b)
            for (_, a), (_, b) in itertools.combinations(code.codewords(), 2)
        )
        assert best == n - k + 1


def test_encode_refuses_symbols_outside_the_alphabet():
    outer = special_situation(2, 4, 4, 2, 2, 4)[0].outers[1]  # [2, 2] over F_16
    # 1.5 used to be truncated to 1, and "3" and True parsed as 3 and 1
    for message in ((16, 0), (0, 255), (-1, 0), (1.5, 0), (True, 0), ("3", 0)):
        with pytest.raises(ValueError, match=r"message symbols must lie in \[0, 16\)"):
            outer.encode(message)
    assert outer.encode((15, 3)) == (12, 9)


@pytest.mark.parametrize("method", ["exhaustive", "algebraic"])
@pytest.mark.parametrize("word", [(16, 0, 0), (-1, 0, 0), (0.5, 0, 0), (0, 0, False)])
def test_decode_refuses_symbols_outside_the_alphabet(word, method):
    """On the special preset's first outer code, over F_16, a symbol that
    is not an int in [0, 16) is refused before any arithmetic, erased or
    not: 16 used to decode to (0, 0) exhaustively and raise IndexError in
    the algebraic decoder, and -1 to decode to (0, 0) and None."""
    code = special_situation(2, 4, 4, 2, 3, 4)[0].outers[0]
    for erasures in ((), (0,)):
        with pytest.raises(ValueError, match="word element"):
            code.decode(word, erasures=erasures, method=method)


def test_encode_linear(f8):
    code = OuterCode(f8, 3, 2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        m1 = tuple(int(x) for x in rng.integers(0, 8, 2))
        m2 = tuple(int(x) for x in rng.integers(0, 8, 2))
        s = tuple(f8.add(a, b) for a, b in zip(m1, m2))
        assert code.encode(s) == tuple(
            f8.add(a, b) for a, b in zip(code.encode(m1), code.encode(m2))
        )


def test_decode_identity(f8):
    code = OuterCode(f8, 3, 2)
    for msg in itertools.product(range(8), repeat=2):
        assert code.decode(code.encode(msg)) == msg
    # a symbol outside the alphabet is refused, whatever row its first k
    # symbols would index
    for word in ((7, 9, 0), (0, 9, 3), (-1, 0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            code.decode(word)


def test_decode_single_error(f8):
    """[3,1,3]: any single symbol error is corrected (2e <= d-1)."""
    code = OuterCode(f8, 3, 1)
    for m in range(8):
        cw = list(code.encode((m,)))
        for pos in range(3):
            for wrong in range(8):
                if wrong == cw[pos]:
                    continue
                corrupted = list(cw)
                corrupted[pos] = wrong
                assert code.decode(tuple(corrupted)) == (m,)


def test_decode_with_erasures(f8):
    code = OuterCode(f8, 2, 1)
    for m in range(8):
        cw = code.encode((m,))
        # value at an erased position is ignored entirely
        assert code.decode((cw[0], 0), erasures=(1,)) == (m,)
        assert code.decode((7, cw[1]), erasures=(0,)) == (m,)


def test_decode_errors_and_erasures_exhaustive(f8):
    """[4,2,3] over F_8: every pattern with 2e + f <= 2 recovers the codeword."""
    code = OuterCode(f8, 4, 2)
    rng = np.random.default_rng(4)
    for _ in range(60):
        msg = tuple(int(x) for x in rng.integers(0, 8, 2))
        cw = code.encode(msg)
        # one error, no erasures
        pos = int(rng.integers(0, 4))
        wrong = (cw[pos] + 1 + int(rng.integers(0, 7))) % 8
        corrupted = list(cw)
        corrupted[pos] = wrong
        assert code.decode(tuple(corrupted)) == msg
        # two erasures, no errors
        er = tuple(sorted(rng.choice(4, size=2, replace=False).tolist()))
        masked = [0 if i in er else cw[i] for i in range(4)]
        assert code.decode(tuple(masked), erasures=er) == msg


def test_decode_algebraic_matches_exhaustive(f8):
    code = OuterCode(f8, 3, 1)
    rng = np.random.default_rng(8)
    for _ in range(300):
        word = tuple(int(x) for x in rng.integers(0, 8, 3))
        slow = code.decode(word)
        fast = code.decode(word, method="algebraic")
        if fast is not None:
            assert fast == slow
        else:
            # the algebraic path only fails outside the bounded-distance radius
            cw = code.encode(slow)
            assert 2 * hamming(cw, word) > code.d_min - 1


def test_decode_algebraic_with_erasures(f8):
    code = OuterCode(f8, 4, 2)
    msg = (3, 5)
    cw = code.encode(msg)
    masked = [cw[0], 0, cw[2], cw[3]]
    assert code.decode(tuple(masked), erasures=(1,), method="algebraic") == msg
    # erasures beyond d-1 cannot be filled
    assert code.decode((cw[0], 0, 0, 0), erasures=(1, 2, 3), method="algebraic") is None


def test_codewords_in_codeword_order(f8, f9):
    """The codebook is in codeword order, its row j the codeword whose
    first k symbols are the j-th k-tuple in product order, and encode
    gives the same word before the codebook exists and after."""
    f4 = ExtensionField(PrimeField(2), degree=2)
    for field, n, k in ((f8, 2, 1), (f9, 3, 1), (f4, 3, 2), (f8, 3, 2), (f8, 3, 0), (f4, 3, 3)):
        code = OuterCode(field, n, k)
        messages = list(itertools.product(range(field.size), repeat=k))
        before = [code.encode(msg) for msg in messages]
        book = code.codewords()
        assert len(book) == field.size ** k
        assert all(a < b for (_, a), (_, b) in zip(book, book[1:]))
        assert [cw[:k] for _, cw in book] == messages
        for msg, cw in book:
            assert code.encode(msg) == cw
        assert [code.encode(msg) for msg in messages] == before


def test_exhaustive_decode_matches_brute_force(f8, f9):
    """Every word and every erasure set of [2,1] over F_8, [3,1] over F_9
    and [3,2] over F_4: the decoder returns the message of
    min((distance, codeword)).  At k = 2 message order and codeword order
    differ, so the tie-break is checked on its own."""
    f4 = ExtensionField(PrimeField(2), degree=2)
    for field, n, k in ((f8, 2, 1), (f9, 3, 1), (f4, 3, 2)):
        code = OuterCode(field, n, k)
        book = code.codewords()
        for erasures in itertools.chain.from_iterable(
            itertools.combinations(range(n), size) for size in range(n + 1)
        ):
            live = [i for i in range(n) if i not in erasures]
            for word in itertools.product(range(field.size), repeat=n):
                _, want = min(
                    ((sum(cw[i] != word[i] for i in live), cw), msg) for msg, cw in book
                )
                assert code.decode(word, erasures=erasures) == want


def test_zero_dimension_code(f8):
    code = OuterCode(f8, 3, 0)
    assert code.encode(()) == (0, 0, 0)
    assert code.decode((1, 2, 3)) == ()


def test_symbol_map_identity_width(f8):
    smap = SymbolMap(f8, 1)
    for x in range(8):
        assert smap.to_symbol((x,)) == x
        assert smap.to_tuple(x) == (x,)


def test_symbol_map_wide():
    f4 = ExtensionField(PrimeField(2), degree=2)
    smap = SymbolMap(f4, 2)
    assert smap.alphabet.size == 16
    seen = set()
    for t in itertools.product(range(4), repeat=2):
        s = smap.to_symbol(t)
        assert smap.to_tuple(s) == t
        seen.add(s)
    assert len(seen) == 16


@pytest.mark.parametrize("which", range(3))
def test_algebraic_matches_exhaustive_inside_the_radius(which, outer_refs):
    """Every erasure set and every error pattern (positions and nonzero
    values) with 2e + f <= d - 1 on two codewords: the algebraic decoder
    returns the exhaustive decode, the sent message."""
    code = outer_refs[which]
    f, n = code.field, code.n
    rng = np.random.default_rng(61 + which)
    checked = 0
    for _ in range(2):
        msg = tuple(int(x) for x in rng.integers(0, f.size, code.k))
        cw = code.encode(msg)
        for n_erased in range(code.d_min):
            for erasures in itertools.combinations(range(n), n_erased):
                live = [i for i in range(n) if i not in erasures]
                for n_err in range((code.d_min - 1 - n_erased) // 2 + 1):
                    for where in itertools.combinations(live, n_err):
                        for shifts in itertools.product(range(1, f.size), repeat=n_err):
                            word = list(cw)
                            for i in erasures:
                                word[i] = int(rng.integers(0, f.size))
                            for i, s in zip(where, shifts):
                                word[i] = f.add(word[i], s)
                            word = tuple(word)
                            got = code.decode(word, erasures=erasures, method="algebraic")
                            assert got == code.decode(word, erasures=erasures) == msg
                            checked += 1
    assert checked >= 2


def test_algebraic_is_exactly_the_bounded_distance_decoder(f8, f9):
    """Every word and every erasure set of [3,0], [3,1] and [3,2] over F_8,
    [3,2] and [3,3] over F_4 and [3,1] over F_9: the algebraic decoder
    returns the nearest codeword's message when that codeword has
    2e + f <= d - 1 on the live positions, and None otherwise."""
    f4 = ExtensionField(PrimeField(2), degree=2)
    checked = 0
    for field, k in ((f8, 0), (f8, 1), (f8, 2), (f4, 2), (f4, 3), (f9, 1)):
        code = OuterCode(field, 3, k)
        for erasures in itertools.chain.from_iterable(
            itertools.combinations(range(3), size) for size in range(4)
        ):
            live = [i for i in range(3) if i not in erasures]
            for word in itertools.product(range(field.size), repeat=3):
                msg = code.decode(word, erasures=erasures)
                cw = code.encode(msg)
                errors = sum(cw[i] != word[i] for i in live)
                want = msg if 2 * errors + len(erasures) <= code.d_min - 1 else None
                assert code.decode(word, erasures=erasures, method="algebraic") == want
                checked += 1
    assert checked == 8 * (3 * 8 ** 3 + 2 * 4 ** 3 + 9 ** 3)


def _nearest_interpolant(code, word, live):
    """(distance, message) of the codeword nearest *word* on *live* among
    those interpolated through each k-subset of the live positions, the
    first of the least distance; None when fewer than k are live.  A
    codeword within the radius agrees with the word on at least k live
    positions, so it is among them, at any alphabet size."""
    f, k = code.field, code.k
    best = None
    for subset in itertools.combinations(live, k):
        rows = [[f.pow(code.points[i], l) for l in range(k)] for i in subset]
        msg = solve_field(f, rows, [word[i] for i in subset])
        cw = code.encode(msg)
        dist = sum(cw[i] != word[i] for i in live)
        if best is None or dist < best[0]:
            best = (dist, msg)
    return best


def test_algebraic_is_the_bounded_distance_decoder_past_int64():
    """The two outer codes of the spec whose R_0 indices leave int64, [3,1]
    over F_(2^32) and [3,2] over F_(2^48), on codewords with up to n
    symbols redrawn and every erasure set: the algebraic decoder returns
    the nearest interpolant's message when 2e + f <= d - 1, else None."""
    spec = spec_from_json({"field": {"q": 2, "M": 16}, "N": 5, "K": 5, "Ks": [5, 3, 0],
                           "n": 3, "outers": [{"n": 3, "k": 1}, {"n": 3, "k": 2}]})
    rng = np.random.default_rng(43)
    answered = failed = 0
    for code in spec.outers:
        f, n = code.field, code.n
        assert f.size in (2 ** 32, 2 ** 48)
        for _ in range(6):
            word = list(code.encode(tuple(int(x) for x in rng.integers(0, f.size, code.k))))
            for i in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
                word[i] = int(rng.integers(0, f.size))
            word = tuple(word)
            for erasures in itertools.chain.from_iterable(
                itertools.combinations(range(n), size) for size in range(n + 1)
            ):
                live = [i for i in range(n) if i not in erasures]
                best = _nearest_interpolant(code, word, live)
                want = None
                if best is not None and 2 * best[0] + len(erasures) <= code.d_min - 1:
                    want = best[1]
                got = code.decode(word, erasures=erasures, method="algebraic")
                assert got == want, (code, word, erasures)
                answered += got is not None
                failed += got is None
    assert answered and failed
