"""The codebooks against brute force.

linalg.span_codebook builds the Gabidulin and outer codebooks, and the
multilevel codebook is a table of R_0 rows built from those; the coset
tables read off its product index are checked in test_cosets.  The
brute force encodes every message in itertools.product order and sorts
the codewords.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from rankshot import errors
from rankshot.channel import lift_multishot
from rankshot.decoder import multistage_decode, oracle_decode_multishot
from rankshot.fields import PrimeField
from rankshot.gabidulin import GabidulinCode
from rankshot.linalg import span_codebook
from rankshot.multilevel import MultilevelCodeSpec, special_situation
from rankshot.outer import OuterCode


@pytest.fixture
def specs(tiny2shot, decode12, q3spec, towerspec):
    return {
        "tiny": tiny2shot,
        "decode-12": decode12,
        "q3": q3spec,
        "tower": towerspec,
        "k0-level": MultilevelCodeSpec(tiny2shot.chain, 2, [1, 0]),
    }


def _assert_stack(stack, expected):
    assert stack.dtype == np.int64 and stack.flags.c_contiguous
    assert stack.shape == expected.shape
    assert np.array_equal(stack, expected)


def test_multilevel_codebook_matches_brute_force(specs):
    for name, spec in specs.items():
        spaces = [list(itertools.product(range(o.field.size), repeat=o.k))
                  for o in spec.outers]
        brute = sorted(((list(msgs), spec.encode(list(msgs)))
                        for msgs in itertools.product(*spaces)), key=lambda pair: pair[1])
        fresh = MultilevelCodeSpec(spec.chain, spec.n, [o.k for o in spec.outers])
        und = fresh.codeword_underlines()
        assert fresh._codebook is None, name
        _assert_stack(und, spec.field.underline([w for _, w in brute]))
        assert fresh.codewords() == brute, name
        assert [fresh.codeword(k) for k in (0, len(brute) // 2, len(brute) - 1)] == [
            brute[k][1] for k in (0, len(brute) // 2, len(brute) - 1)]


def test_gabidulin_codebooks_match_brute_force(specs, f8):
    codes = [spec.chain.subcode(i) for spec in specs.values()
             for i in range(spec.m)]
    codes.append(GabidulinCode(f8, 3, 0))
    for code in codes:
        f = code.field
        brute = sorted(code.encode(m) for m in itertools.product(range(f.size), repeat=code.dim))
        fresh = GabidulinCode(f, code.length, code.dim, code.points)
        _assert_stack(fresh.codeword_underlines(), f.underline(brute))
        assert fresh._codebook is None
        assert fresh.codewords() == brute
        assert fresh.codeword(len(brute) - 1) == brute[-1]


def test_outer_codebooks_match_brute_force(specs, f8):
    outers = [o for spec in specs.values() for o in spec.outers]
    outers.append(OuterCode(f8, 3, 0))
    assert any(o.field.base != PrimeField(o.field.characteristic) for o in outers)  # tower
    assert any(o.k == 0 for o in outers)
    for outer in outers:
        fresh = OuterCode(outer.field, outer.n, outer.k)
        brute = sorted(((m, fresh.encode(m))
                        for m in itertools.product(range(fresh.field.size), repeat=fresh.k)),
                       key=lambda pair: pair[1])
        assert fresh.codewords() == brute


def test_span_codebook_orders_by_element_ints():
    # two elements of two base-3 digits each; the second basis word is
    # the low digit of the message index
    basis = [[[1, 0], [2, 1]], [[0, 2], [1, 1]]]
    stack, index = span_codebook(iter(basis), 2, 3, (2, 2))
    words = [tuple(int(a) + 3 * int(b) for a, b in w) for w in stack]
    assert words == sorted(words) and len(set(words)) == 9
    b = np.array(basis)
    for w, idx in zip(stack, index):
        assert np.array_equal(w, (idx // 3 * b[0] + idx % 3 * b[1]) % 3)


def _held_bytes(exc) -> int:
    return int(str(exc).split("(")[1].split(" bytes held")[0])


def test_span_guard_counts_bytes_held_while_building(monkeypatch):
    """The guard counts the build's transients, not only the stack it
    returns, and refuses before allocating anything."""
    rng = np.random.default_rng(3)
    basis = rng.integers(0, 2, size=(14, 2 * 4 * 4))
    stack_bytes = 8 * 2 ** 14 * 32
    monkeypatch.setattr(errors, "STACK_GUARD_BYTES", stack_bytes)
    with pytest.raises(errors.GuardError, match=f"{stack_bytes} stack bytes") as refused:
        span_codebook(iter(basis), 14, 2, (2, 4, 4))
    held = _held_bytes(refused.value)
    assert held > 2 * stack_bytes

    monkeypatch.setattr(errors, "STACK_GUARD_BYTES", held - 1)
    tracemalloc.start()
    try:
        with pytest.raises(errors.GuardError):
            span_codebook(iter(basis), 14, 2, (2, 4, 4))
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.setattr(errors, "STACK_GUARD_BYTES", held)
        stack, _ = span_codebook(iter(basis), 14, 2, (2, 4, 4))
        built_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.nbytes == stack_bytes
    assert refused_peak < stack_bytes // 100
    # the sorted stack is built while the unsorted one is still held
    assert 2 * stack_bytes < built_peak <= held


def test_table_guard_counts_bytes_held_while_building(preset, monkeypatch):
    """The multilevel table's guard counts the table, the sort order, one
    shot's gathered or permuted rows and R_0's row of every product
    index, and refuses before any of them is allocated."""
    spec = MultilevelCodeSpec(preset.chain, preset.n, [o.k for o in preset.outers])
    # R_0, the outer codebooks and the coset tables are guarded on their own
    spec.code.codebook_arrays()
    for i, outer in enumerate(spec.outers):
        outer.codewords()
        spec.chain.coset_table(i)
    count = 2 ** 20
    table_bytes = 8 * count * spec.n
    monkeypatch.setattr(errors, "STACK_GUARD_BYTES", table_bytes)
    with pytest.raises(errors.GuardError, match=f"{table_bytes} stack bytes") as refused:
        spec.codebook_arrays()
    held = _held_bytes(refused.value)

    monkeypatch.setattr(errors, "STACK_GUARD_BYTES", held - 1)
    tracemalloc.start()
    try:
        with pytest.raises(errors.GuardError):
            spec.codebook_arrays()
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.setattr(errors, "STACK_GUARD_BYTES", held)
        rows, index = spec.codebook_arrays()
        built_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (count, spec.n) and rows.nbytes == table_bytes
    assert refused_peak < table_bytes // 100
    assert table_bytes + index.nbytes < built_peak <= held
    assert rows[0].tolist() == [0] * spec.n and spec.codeword(0) == preset.encode([(0, 0), (0, 0, 0)])


def test_codebook_guard_runs_before_the_basis_is_encoded(monkeypatch):
    spec = special_situation(2, 4, 4, 2, 2, 4)[0]
    monkeypatch.setattr(errors, "STACK_GUARD_BYTES", 1 << 20)
    calls = []
    monkeypatch.setattr(spec, "level_contribution", lambda *a: calls.append(a))
    with pytest.raises(errors.GuardError, match="1048576 stack bytes"):
        spec.codeword_underlines()
    assert calls == [] and spec._rows is None and spec._codebook is None
    assert spec.code._underlines is None


def test_decode12_decodes_leave_the_codebook_lists_unbuilt():
    """The oracle and the multistage decoder read codewords and coset
    splits from the arrays; the Python lists stay unbuilt."""
    spec = special_situation(2, 4, 4, 2, 2, 4)[0]
    und = spec.codeword_underlines()
    assert und.shape == (4096, 2, 4, 4)
    messages = [(3,), (5, 9)]
    word = spec.encode(messages)
    ys = lift_multishot(spec.field, word)
    assert oracle_decode_multishot(ys, spec) == word
    result = multistage_decode(ys, spec)
    assert result.ok and result.messages == messages
    assert spec._codebook is None
    assert all(spec.chain.subcode(i)._codebook is None for i in range(spec.m))
