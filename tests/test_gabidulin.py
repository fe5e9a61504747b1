"""Gabidulin code construction, MRD property, and both decode paths."""

import itertools

import numpy as np
import pytest

from rankshot.errors import GuardError
from rankshot.fields import ExtensionField, PrimeField
from rankshot.gabidulin import GabidulinCode, _lin_left_divide
from rankshot.linalg import kernel_field, rank, rank_distance, rref_field
from rankshot.multilevel import spec_from_json, special_situation


def test_generator_hand_example(f8):
    # N=2, K=2, points (1, alpha): G = [[1, 1], [a, a^2]]
    code = GabidulinCode(f8, 2, 2, points=(1, 2))
    assert code.generator == ((1, 1), (2, 4))


def test_generator_columns_are_frobenius_orbits(f8):
    code = GabidulinCode(f8, 3, 3)
    for i, g in enumerate(code.points):
        for j in range(3):
            assert code.generator[i][j] == f8.frobenius(g, j)


def test_construction_validation(f8):
    with pytest.raises(ValueError):
        GabidulinCode(f8, 4, 1)            # N > M
    with pytest.raises(ValueError):
        GabidulinCode(f8, 2, 3)            # K > N
    # dependent points: over F_2 dependence means a repeat or a zero
    with pytest.raises(ValueError):
        GabidulinCode(f8, 2, 1, points=(2, 2))
    with pytest.raises(ValueError):
        GabidulinCode(f8, 2, 1, points=(0, 2))


def test_construction_rejects_tower_fields():
    # over F_4 the code would need frobenius to powers of 4 and rref over
    # F_4; built anyway it claims distance 2 but has minimum rank distance 1
    f16_over_f4 = ExtensionField(ExtensionField(PrimeField(2), degree=2), degree=2)
    with pytest.raises(ValueError, match="prime field"):
        GabidulinCode(f16_over_f4, 2, 1)


def test_encode_hand_example(f8):
    code = GabidulinCode(f8, 2, 1, points=(1, 2))
    assert code.encode((2,)) == (2, 4)     # (alpha, alpha^2)
    assert code.encode((0,)) == (0, 0)


def test_encode_linear_and_injective(f8):
    code = GabidulinCode(f8, 2, 1, points=(1, 2))
    words = code.codewords()
    assert len(words) == 8
    assert len(set(words)) == 8
    for m1 in range(8):
        for m2 in range(8):
            s = f8.add(m1, m2)
            assert code.encode((s,)) == tuple(
                f8.add(a, b) for a, b in zip(code.encode((m1,)), code.encode((m2,)))
            )


def test_enumeration_guard():
    f = ExtensionField(PrimeField(2), degree=11)
    code = GabidulinCode(f, 2, 2)
    with pytest.raises(GuardError):
        code.codewords()


def test_stack_guard_runs_before_enumeration():
    # 2^20 codewords pass the count guard; their 10 x 10 stack is 800 MiB
    code = GabidulinCode(ExtensionField(PrimeField(2), degree=10), 10, 2)
    with pytest.raises(GuardError, match="stack bytes"):
        code.decode_bounded((0,) * 10)
    assert code._codebook is None and code._underlines is None


def test_decode_exhaustive_identity(f8):
    code = GabidulinCode(f8, 3, 2)
    for msg in itertools.product(range(8), repeat=2):
        c = code.encode(msg)
        assert code.decode_bounded(c) == c


def test_decode_exhaustive_corrects_rank_one(f8):
    """D=3 code corrects every rank-1 additive error."""
    code = GabidulinCode(f8, 3, 1)
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = code.encode((int(rng.integers(0, 8)),))
        # rank-1 error: outer product of a column and a row
        col = rng.integers(0, 2, 3)
        row = rng.integers(0, 2, 3)
        e = np.outer(col, row) % 2
        if not e.any():
            continue
        w = f8.overline((f8.underline(c) + e) % 2)
        assert code.decode_bounded(w) == c


def test_codewords_in_codeword_order(tiny2shot, decode12):
    """Every subcode of both chains lists its codewords strictly
    increasing, so an argmin's first minimum is the smallest codeword."""
    for chain in (tiny2shot.chain, decode12.chain):
        for i in range(chain.m):
            sub = chain.subcode(i)
            words = sub.codewords()
            assert len(words) == sub.field.size ** sub.dim
            assert all(a < b for a, b in zip(words, words[1:]))
            assert words[0] == (0,) * sub.length


def test_decode_tie_break_is_serialization_smallest(f8):
    # K=N code has d_R = 1: distance ties abound; pick smallest entry tuple
    code = GabidulinCode(f8, 2, 2)
    got = code.decode_bounded((0, 1))
    ties = [
        c for c in code.codewords()
        if rank_distance(f8, c, (0, 1)) == rank_distance(f8, got, (0, 1))
    ]
    assert got == min(ties)


def test_algebraic_decoder_agrees_within_radius(f8):
    """Every rank-<=1 pattern on the N=3, K=1 code: algebraic = exhaustive."""
    code = GabidulinCode(f8, 3, 1)
    errors = [np.outer(c, r) % 2
              for c in itertools.product(range(2), repeat=3)
              for r in itertools.product(range(2), repeat=3)]
    seen = set()
    for msg in range(8):
        c = code.encode((msg,))
        for e in errors:
            key = (c, e.tobytes())
            if key in seen:
                continue
            seen.add(key)
            w = f8.overline((f8.underline(c) + e) % 2)
            fast = code.decode_bounded(w, method="algebraic")
            slow = code.decode_bounded(w)
            assert fast == slow == c


def test_algebraic_decoder_fails_cleanly_beyond_radius(f8):
    code = GabidulinCode(f8, 3, 1)
    c = code.encode((5,))
    # rank-2 error pushes past t=1; decoder may not hallucinate success
    e = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    w = f8.overline((f8.underline(c) + e) % 2)
    got = code.decode_bounded(w, method="algebraic")
    assert got is None or rank((f8.underline(got) - f8.underline(w)) % 2, 2) <= 1


def test_algebraic_decoder_full_rate(f8):
    code = GabidulinCode(f8, 2, 2)
    assert code.decode_bounded((3, 6), method="algebraic") == (3, 6)


@pytest.mark.parametrize("field, n, k", [("f8", 3, 2), ("f8", 3, 3), ("f9", 2, 1)])
def test_decode_rank_errors_t0_decides_membership(request, field, n, k):
    """With t = 0 the interpolation step alone decides: every word of the
    code's ambient space decodes to itself if it is a codeword, else to
    None.  The tiny code's level-0 subcode is the F_8 N = 3, K = 2 code."""
    f = request.getfixturevalue(field)
    code = GabidulinCode(f, n, k)
    assert (n - k) // 2 == 0
    codewords = set(code.codewords())
    for w in itertools.product(range(f.size), repeat=n):
        assert code.decode_rank_errors(w) == (w if w in codewords else None), w


def _within_t_words(code, rng, count):
    """Sampled words: uniform ones, and codewords plus an error of rank
    t or t + 1, just inside and just beyond the decoding radius."""
    f, q = code.field, code.field.base.size
    t = (code.length - code.dim) // 2
    for i in range(count):
        if i % 3 == 0:
            yield tuple(int(x) for x in rng.integers(0, f.size, code.length))
            continue
        r = t + i % 3 - 1
        e = rng.integers(0, q, (code.length, r)) @ rng.integers(0, q, (r, f.degree))
        c = code.encode(tuple(int(x) for x in rng.integers(0, f.size, code.dim)))
        yield f.overline((f.underline(c) + e) % q)


@pytest.mark.parametrize("which", ["f8-N3K1", "preset-K2", "preset-K1", "f27-N3K1",
                                   "f32-N5K1"])
def test_decode_rank_errors_stays_within_t(f8, which):
    """Every answer of the algebraic decoder lies within rank t of its
    input, with no rank check inside the decoder: on every word of the
    F_8 N = 3, K = 1 code's space, and on sampled words of the special
    preset's F_16 subcodes, an F_27 N = 3, K = 1 code and an F_32
    N = 5, K = 1 (t = 2) code."""
    rng = np.random.default_rng(59)
    if which == "f8-N3K1":
        code = GabidulinCode(f8, 3, 1)
        words = itertools.product(range(8), repeat=3)
    else:
        if which.startswith("preset"):
            code = _preset_subcodes()[0 if which == "preset-K2" else 1]
        elif which == "f27-N3K1":
            code = GabidulinCode(ExtensionField(PrimeField(3), degree=3), 3, 1)
        else:
            code = GabidulinCode(ExtensionField(PrimeField(2), degree=5), 5, 1)
        words = _within_t_words(code, rng, 300)
    t = (code.length - code.dim) // 2
    answered = refused = 0
    for w in words:
        got = code.decode_rank_errors(w)
        if got is None:
            refused += 1
        else:
            answered += 1
            assert rank_distance(code.field, got, w) <= t, w
    assert answered > 10 and refused > 10


@pytest.mark.parametrize("which", ["f8-N3K1", "f8-N3K2", "f9-N2K1", "preset-K2", "preset-K1"])
def test_decode_message_is_the_decoded_codewords_message(f8, f9, which):
    """decode_message refuses exactly the words decode_rank_errors does,
    and otherwise returns K coefficients that encode to its codeword: on
    every word of the F_8 N = 3 codes' and the F_9 N = 2 code's spaces,
    and on sampled words of the special preset's F_16 subcodes."""
    if which.startswith("f8"):
        code = GabidulinCode(f8, 3, int(which[-1]))
        words = itertools.product(range(8), repeat=3)
    elif which == "f9-N2K1":
        code = GabidulinCode(f9, 2, 1)
        words = itertools.product(range(9), repeat=2)
    else:
        code = _preset_subcodes()[0 if which == "preset-K2" else 1]
        words = _within_t_words(code, np.random.default_rng(61), 300)
    answered = refused = 0
    for w in words:
        msg = code.decode_message(w)
        word = code.decode_rank_errors(w)
        assert (msg is None) == (word is None), w
        if msg is None:
            refused += 1
        else:
            answered += 1
            assert len(msg) == code.dim and code.encode(msg) == word, w
    assert answered and refused


def _preset_subcodes():
    """The special preset's level subcodes over F_16 (N = 4, K = 2 and 1)."""
    chain = special_situation(2, 4, 4, 2, 3, 4)[0].chain
    return [chain.subcode(0), chain.subcode(1)]


def _low_rank_errors(field, n):
    """Every N x M coordinate matrix of rank <= 1: the outer products."""
    q = field.base.size
    seen = {}
    for col in itertools.product(range(q), repeat=n):
        for row in itertools.product(range(q), repeat=field.degree):
            e = np.outer(col, row) % q
            seen.setdefault(e.tobytes(), e)
    return list(seen.values())


@pytest.mark.parametrize("which", ["preset-K2", "preset-K1", "q3"])
def test_decode_rank_errors_matches_exhaustive(which):
    """Every error of rank <= t = 1 on three codewords of the special
    preset's F_16 subcodes and of an N = 3, K = 1 code over F_27: the
    algebraic decoder returns the exhaustive decode, the sent codeword.
    On sampled words farther than t from every codeword it returns None."""
    if which == "q3":
        code = GabidulinCode(ExtensionField(PrimeField(3), degree=3), 3, 1)
    else:
        code = _preset_subcodes()[0 if which == "preset-K2" else 1]
    f, q = code.field, code.field.base.size
    t = (code.length - code.dim) // 2
    assert t == 1
    rng = np.random.default_rng(53)
    msgs = [(0,) * code.dim] + [tuple(int(x) for x in rng.integers(0, f.size, code.dim))
                                for _ in range(2)]
    errors = _low_rank_errors(f, code.length)
    for msg in msgs:
        c = code.encode(msg)
        for e in errors:
            w = f.overline((f.underline(c) + e) % q)
            assert code.decode_rank_errors(w) == code.decode_bounded(w) == c
    beyond = 0
    for _ in range(300):
        w = tuple(int(x) for x in rng.integers(0, f.size, code.length))
        if rank_distance(f, w, code.decode_bounded(w)) > t:
            beyond += 1
            assert code.decode_rank_errors(w) is None, w
    assert beyond > 20


def _full_system_message(code, received):
    """decode_message's reference: row-reduce the whole N x (2t + K + 1)
    interpolation system [r_i^(q^l) | -g_i^(q^l)] afresh for the word."""
    f, n, k = code.field, code.length, code.dim
    t = (n - k) // 2
    rows = [[f.frobenius(r, l) for l in range(t + 1)]
            + [f.neg(f.frobenius(g, l)) for l in range(k + t)]
            for r, g in zip(received, code.points)]
    kern = kernel_field(f, rows)
    if not kern:
        return None
    msg = _lin_left_divide(f, list(kern[0][:t + 1]), list(kern[0][t + 1:]))
    if msg is None or len(msg) > k:
        return None
    return tuple(msg) + (0,) * (k - len(msg))


def _reference_cases(f8, f9):
    """(code, words): every word of the F_8 N = 3 and F_9 N = 2 codes;
    sampled words of the special preset's subcodes, the F_27 N = 3 codes
    with K = 1 and 3 and the N = 7 subcodes of the 2^56 code."""
    for k in range(4):
        yield GabidulinCode(f8, 3, k), itertools.product(range(8), repeat=3)
    for k in range(3):
        yield GabidulinCode(f9, 2, k), itertools.product(range(9), repeat=2)
    f27 = ExtensionField(PrimeField(3), degree=3)
    chain56 = spec_from_json({"special": {"q": 2, "M": 7, "N": 7, "K": 3, "n": 3,
                                          "d": 6}}).chain
    sampled = (_preset_subcodes() + [GabidulinCode(f27, 3, 1), GabidulinCode(f27, 3, 3)]
               + [chain56.subcode(i) for i in range(chain56.m)])
    rng = np.random.default_rng(67)
    for code in sampled:
        yield code, _within_t_words(code, rng, 300)


def test_decode_message_matches_full_system_solve(f8, f9):
    """The split system answers as the full one, on every word where both
    the kernel vector and the division could differ."""
    for code, words in _reference_cases(f8, f9):
        answered = 0
        for w in words:
            got = code.decode_message(w)
            assert got == _full_system_message(code, w), (code, w)
            answered += got is not None
        assert answered, code


def _assert_split(field, g_rows, solves, checks):
    """C G = 0 with n - c independent rows, and B G = I, G n x c."""
    n, c = len(g_rows), len(g_rows[0]) if g_rows else 0
    g_cols = [[row[l] for row in g_rows] for l in range(c)]
    assert len(checks) == n - c and len(solves) == c
    assert all(field.dot(r, col) == 0 for r in checks for col in g_cols)
    assert [[field.dot(b, col) for col in g_cols] for b in solves] == [
        [int(i == j) for j in range(c)] for i in range(c)]
    assert len(rref_field(field, checks)[1]) == n - c


def test_check_and_solve_rows_split_the_constant_block(f8, f9, outer_refs):
    """C G = 0 with n - c independent rows, and B G = I, for the n x c
    matrices G of both interpolation decoders, with B and C the slices
    T[:c] and T[c:] of the one inverse T each code keeps: the Moore
    matrix g_i^(q^l), l < K + t, on every code of the reference test, and
    the Vandermonde matrix x_i^l, l < c, on the outer reference codes at
    every c = f + e + k of f <= n - k erasures, e = (n - f - k) // 2."""
    for code, _ in _reference_cases(f8, f9):
        f, n, k = code.field, code.length, code.dim
        kt = k + (n - k) // 2
        g_rows = [[f.frobenius(g, l) for l in range(kt)] for g in code.points]
        _assert_split(f, g_rows, code._inverse[:kt], code._inverse[kt:])
    for code in outer_refs:
        f, n, k = code.field, code.n, code.k
        for erased in range(n - k + 1):
            c = erased + (n - erased - k) // 2 + k
            g_rows = [[f.pow(x, l) for l in range(c)] for x in code.points]
            _assert_split(f, g_rows, code._inverse[:c], code._inverse[c:])


@pytest.mark.parametrize("word", [(-1, 0, 0, 0), (16, 0, 0, 0), (1.5, 0, 0, 0),
                                  (0, 0, True, 0)])
def test_decoders_refuse_elements_outside_the_field(word):
    """Every decode entry, and encode on a message of the [4, 4] code,
    refuses a word with an element that is not an int in [0, 16) before
    any arithmetic: -1 used to decode as a table read of the last entry
    and encode to a wrong codeword, 16 to raise IndexError, and 1.5 to be
    truncated by the exhaustive path."""
    f16 = ExtensionField(PrimeField(2), degree=4)
    code = GabidulinCode(f16, 4, 2)
    for decode in (code.decode_message, code.decode_rank_errors, code.decode_bounded,
                   lambda w: code.decode_bounded(w, method="algebraic"),
                   GabidulinCode(f16, 4, 4).encode):
        with pytest.raises(ValueError, match="word element"):
            decode(word)
