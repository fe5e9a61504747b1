"""Oracle and multistage decoders for the lifted multishot channel."""

import hashlib
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from rankshot import decoder, linalg, reduction
from rankshot.channel import ChannelConfig, apply_channel, lift_multishot, sample_channel
from rankshot.cosets import PartitionChain
from rankshot.decoder import MultistageResult, multistage_decode, oracle_decode_multishot
from rankshot.experiment import run_trial
from rankshot.gabidulin import GabidulinCode
from rankshot.linalg import received_basis, subspace_distance_to_lifted
from rankshot.multilevel import MultilevelCodeSpec, special_situation, spec_from_json
from rankshot.reduction import rank_word, received_word, reduce_received
from rankshot.fields import ExtensionField, PrimeField
from rankshot.outer import OuterCode

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def all_messages(spec):
    pools = [
        list(itertools.product(range(spec.outers[i].field.size), repeat=spec.outers[i].k))
        for i in range(spec.m)
    ]
    return itertools.product(*pools)


def seeded_trial(spec, rho, tau, seed, rng):
    msgs = spec.random_messages(rng)
    word = spec.encode(msgs)
    xs = lift_multishot(spec.field, word)
    cfg = ChannelConfig(rho=rho, tau=tau, n=spec.n, seed=seed,
                        N=spec.shot_length, T=spec.lifted_length, q=spec.field.base.size)
    draw = sample_channel(cfg)
    ys = apply_channel(draw, xs, spec.field.base.size)
    return msgs, word, ys


# --- oracle -----------------------------------------------------------------


def test_oracle_multishot_zero_adversity(tiny2shot):
    spec = tiny2shot
    rng = np.random.default_rng(0)
    for seed in range(25):
        msgs, word, ys = seeded_trial(spec, 0, 0, seed, rng)
        assert oracle_decode_multishot(ys, spec) == word


def test_oracle_multishot_within_budget(tiny2shot):
    """Guaranteed whenever rho + 2*tau <= correctable budget (here 3)."""
    spec = tiny2shot
    rng = np.random.default_rng(1)
    for rho, tau in [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]:
        for seed in range(40):
            msgs, word, ys = seeded_trial(spec, rho, tau, seed, rng)
            assert oracle_decode_multishot(ys, spec) == word, (rho, tau, seed)


BEYOND_BUDGET = [(4, 0), (2, 1), (0, 2), (5, 0), (3, 1), (1, 2)]  # rho + 2*tau in {4, 5}


def brute_force_nearest(q, spaces, words):
    """min((total d_S, codeword)) over *words*, one received space per
    shot, and whether the minimum distance is shared."""
    scored = sorted(
        (sum(subspace_distance_to_lifted(u, y, q) for u, y in zip(und, spaces)), word)
        for und, word in words
    )
    return scored[0][1], len(scored) > 1 and scored[1][0] == scored[0][0]


def test_oracle_multishot_matches_brute_force_ties(tiny2shot):
    """Beyond the budget distances tie; the oracle must return the
    smallest codeword at the minimum."""
    spec = tiny2shot
    f, q = spec.field, spec.field.base.size
    book = []
    for msg_combo in all_messages(spec):
        word = spec.encode([tuple(m) for m in msg_combo])
        book.append(([f.underline(shot) for shot in word], word))
    rng = np.random.default_rng(41)
    ties = 0
    for rho, tau in BEYOND_BUDGET:
        for seed in range(6):
            _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
            want, tied = brute_force_nearest(q, ys, book)
            ties += tied
            assert oracle_decode_multishot(ys, spec) == want, (rho, tau, seed)
    assert ties > 0


def test_oracle_multishot_length_check(tiny2shot):
    with pytest.raises(ValueError):
        oracle_decode_multishot([np.zeros((6, 6), dtype=np.int64)], tiny2shot)


# --- multistage -------------------------------------------------------------


def test_multistage_identity_all_words(tiny2shot):
    spec = tiny2shot
    for msg_combo in all_messages(spec):
        msgs = [tuple(m) for m in msg_combo]
        word = spec.encode(msgs)
        ys = lift_multishot(spec.field, word)
        res = multistage_decode(ys, spec)
        assert res.ok
        assert res.stage_failed is None
        assert [tuple(m) for m in res.messages] == msgs
        assert res.wrong_inner_counts == [0, 0]
        assert res.erasure_counts == [0, 0]


def test_multistage_wire_format(tiny2shot):
    spec = tiny2shot
    word = spec.encode([(3,), (5,)])
    ys = lift_multishot(spec.field, word)
    doc = multistage_decode(ys, spec).to_json()
    assert set(doc) == {"ok", "stage_failed", "messages", "diagnostics"}
    assert doc["ok"] is True
    assert doc["stage_failed"] is None
    assert doc["messages"] == [[3], [5]]
    assert set(doc["diagnostics"]) == {"wrong_inner_counts", "erasure_counts"}
    assert doc["diagnostics"]["wrong_inner_counts"] == [0, 0]
    assert doc["diagnostics"]["erasure_counts"] == [0, 0]


def test_multistage_reference_path_never_erases(tiny2shot):
    spec = tiny2shot
    rng = np.random.default_rng(5)
    for seed in range(60):
        msgs, word, ys = seeded_trial(spec, 2, 1, seed, rng)
        res = multistage_decode(ys, spec)
        assert res.erasure_counts[: len(res.wrong_inner_counts)] == \
            [0] * len(res.wrong_inner_counts)


def truth_wrong_counts(res: MultistageResult, spec, msgs) -> list:
    """Stage-wise inner decisions that differ from the transmitted levels."""
    contribs = spec.level_contributions(msgs)
    counts = []
    for i, leaders in enumerate(res.inner_leaders):
        counts.append(sum(
            1 for j in range(spec.n)
            if leaders[j] is None or leaders[j] != contribs[i][j]
        ))
    return counts


def test_multistage_truth_conditional_guarantee(tiny2shot):
    """Whenever every stage's wrong-inner count (vs the transmitted word)
    stays within the outer code's error-correcting radius, the decoder
    must return the transmitted messages."""
    spec = tiny2shot
    radii = [(spec.outers[i].d_min - 1) // 2 for i in range(spec.m)]
    rng = np.random.default_rng(11)
    checked = 0
    for rho, tau in [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (3, 0)]:
        for seed in range(50):
            msgs, word, ys = seeded_trial(spec, rho, tau, seed, rng)
            res = multistage_decode(ys, spec)
            counts = truth_wrong_counts(res, spec, msgs)
            if all(c <= r for c, r in zip(counts, radii)):
                checked += 1
                assert res.ok and [tuple(m) for m in res.messages] == msgs, \
                    (rho, tau, seed, counts)
    assert checked > 50  # the condition actually fires often


@pytest.mark.parametrize("code", ["tiny2shot", "decode12", "q3spec", "towerspec"])
def test_multistage_inner_leaders_match_brute_force(code, request):
    """At every stage each inner leader is the coset leader of the first
    minimum of d_S(<Y_j>, lift(V_j + x)) over x in R_i, where V_j sums the
    level contributions the decoder accepted before that stage.  The q = 3
    code and the one-level delta_k = 2 tower code have other digit
    arithmetic in their product indices than the q = 2, delta_k = 1 ones."""
    spec = request.getfixturevalue(code)
    f, q, chain = spec.field, spec.field.base.size, spec.chain
    books = [
        [chain.subcode(i).encode(m)
         for m in itertools.product(range(f.size), repeat=chain.subcode(i).dim)]
        for i in range(spec.m)
    ]
    rng = np.random.default_rng(47)
    late_erasures = 0  # shots with mu > 0 checked at a stage >= 1
    for rho, tau in [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (4, 0), (2, 1)]:
        for seed in range(8):
            _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
            mus = [reduce_received(f, y).mu for y in ys]
            res = multistage_decode(ys, spec)
            assert res.ok  # the exhaustive outer decoder always answers
            accepted = [(0,) * spec.shot_length] * spec.n
            for i, book in enumerate(books):
                for j, y in enumerate(ys):
                    _, x = min(
                        (subspace_distance_to_lifted(f.underline(f.vec_add(accepted[j], x)),
                                                     y, q), x)
                        for x in book
                    )
                    assert res.inner_leaders[i][j] == chain.coset_leader(i, x)[0], \
                        (rho, tau, seed, i, j)
                    late_erasures += i >= 1 and mus[j] > 0
                v_hats = spec.level_contribution(i, res.messages[i])
                accepted = [f.vec_add(a, v) for a, v in zip(accepted, v_hats)]
    assert spec.m == 1 or late_erasures > 0


def test_multistage_corrects_one_erasure_on_shot_0(tiny2shot):
    """One erasure on shot 0 and a clean shot 1: at every level the true
    word is the unique nearest, so the transmitted messages come back."""
    spec = tiny2shot
    rng = np.random.default_rng(29)
    for seed in range(150):
        msgs = spec.random_messages(rng)
        xs = lift_multishot(spec.field, spec.encode(msgs))
        cfg = ChannelConfig(rho=1, tau=0, n=2, seed=seed, N=3, T=6, q=2, split="first")
        ys = apply_channel(sample_channel(cfg), xs, 2)
        assert reduce_received(spec.field, ys[0]).mu == 1
        res = multistage_decode(ys, spec)
        assert res.ok and res.messages == [tuple(m) for m in msgs], seed


@pytest.mark.parametrize("inner", ["exhaustive", "algebraic"])
def test_multistage_reduces_each_shot_once(inner, tiny2shot, preset, monkeypatch):
    """One elimination per shot: each inner path row-reduces each received
    F_2 shot once per decode, one packed elimination (linalg.rref_bits)
    and no rref of a received matrix, and never calls reduce_received;
    so does one whole run_trial across ds_observed and every role, on
    tiny (oracle, multistage and algebraic) and on the preset
    (algebraic).  The algebraic path reads its rank word off that basis
    through reduction.received_word, and it equals
    reduce_received(field, y).r, also on shots with erasures (mu > 0)
    and deviations (delta > 0)."""
    spec = tiny2shot
    assert not hasattr(decoder, "reduce_received")
    received_rrefs, packed, words = [], [], []
    real_rref, real_bits, real_word = linalg.rref, linalg.rref_bits, decoder.received_word

    def counting_rref(m, q):
        # only the N + M column matrices are received shots
        if np.shape(m)[1] in (spec.lifted_length, preset.lifted_length):
            received_rrefs.append(1)
        return real_rref(m, q)

    def counting_bits(rows):
        packed.append(1)
        return real_bits(rows)

    def recording_word(basis, n, q):
        out = real_word(basis, n, q)
        words.append(out[1])
        return out

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "rref_bits", counting_bits)
    monkeypatch.setattr(decoder, "received_word", recording_word)
    rng = np.random.default_rng(3)
    saw_mu = saw_delta = False
    for rho, tau in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for seed in range(6):
            _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
            triples = [reduce_received(spec.field, y) for y in ys]
            received_rrefs.clear()
            packed.clear()
            words.clear()
            multistage_decode(ys, spec, inner_method=inner)
            assert (len(received_rrefs), len(packed)) == (0, spec.n), (rho, tau, seed)
            if inner == "exhaustive":
                assert words == [], (rho, tau, seed)
            else:
                assert words == [t.r for t in triples], (rho, tau, seed)
                saw_mu |= any(t.mu for t in triples)
                saw_delta |= any(t.delta for t in triples)
    assert inner == "exhaustive" or (saw_mu and saw_delta)
    for code, roles in ((spec, ("oracle", "multistage", "algebraic")), (preset, ("algebraic",))):
        for gi, (rho, tau) in enumerate([(0, 0), (2, 0), (1, 1), (3, 1)]):
            received_rrefs.clear()
            packed.clear()
            run_trial(code, rho, tau, "uniform", 83, gi, 0, roles)
            assert (len(received_rrefs), len(packed)) == (0, code.n), (roles, rho, tau)


def packed_rows(h, p):
    """The rows of [H | P] as Python ints, bit c the entry in column c."""
    return [sum(int(b) << c for c, b in enumerate(row)) for row in np.hstack([h, p])]


@pytest.mark.parametrize("code", ["tiny2shot", "decode12", "preset"])
def test_received_word_matches_reduction_on_channel_shots(code, request):
    """On channel-drawn shots each packed basis on Received.bases is
    received_basis's RREF rows, packed, and the rank word read off it
    equals rank_word on the RREF basis and the r of reduce_received,
    erasures and deviations included."""
    spec = request.getfixturevalue(code)
    n, q = spec.shot_length, spec.field.base.size
    rng = np.random.default_rng(17)
    saw_mu = saw_delta = False
    for rho, tau in [(0, 0), (2, 0), (0, 1), (1, 1), (3, 1)]:
        for seed in range(25):
            ys = decoder.Received(seeded_trial(spec, rho, tau, seed, rng)[2], spec)
            for y, basis in zip(ys, ys.bases):
                t = reduce_received(spec.field, y)
                assert basis == packed_rows(*received_basis(y, n, q))
                word = received_word(basis, n, q)
                assert word == rank_word(*received_basis(y, n, q), q)
                assert word[1] == t.r
                saw_mu |= t.mu > 0
                saw_delta |= t.delta > 0
    assert saw_mu and saw_delta


@pytest.mark.parametrize("role", sorted(decoder.ROLES))
def test_roles_refuse_a_malformed_shot_before_any_elimination(role, decode12, monkeypatch):
    """A received array that is not a matrix with N + M columns, or whose
    entries are not integers, raises the decoders' ValueError before any
    shot is row-reduced, on every role.  A float shot would otherwise be
    truncated to an integer matrix and decoded."""
    def no_elimination(*args):
        raise AssertionError("a shot was row-reduced")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    monkeypatch.setattr(linalg, "rref_bits", no_elimination)
    good = np.zeros((4, 8), dtype=np.int64)
    columns = r"N \+ M = 8 columns"
    for ys, match in (([np.zeros(8, dtype=int)] * 2, columns),
                      ([good, np.zeros(8, dtype=int)], columns),
                      ([good, np.zeros((1, 4, 8), dtype=int)], columns),
                      ([good, np.zeros((4, 7), dtype=int)], columns),
                      ([good, np.full((4, 8), 0.5)], "integer entries, got float64")):
        with pytest.raises(ValueError, match=match):
            decoder.ROLES[role](ys, decode12)


@pytest.mark.parametrize("code", ["tiny2shot", "decode12"])
def test_multistage_reads_each_shot_once(code, request, monkeypatch):
    """Once the per-level coset tables exist, a default decode of fresh shots
    row-reduces each received matrix once and reads every inner decision's
    split from the tables, with no coset_leader call.  A second decode of
    the same Received value row-reduces none; a plain tuple of shots is
    row-reduced again by every decode.  One whole simulate trial with the
    oracle and the multistage decoder row-reduces each shot once for
    ds_observed and both decoders together."""
    spec = request.getfixturevalue(code)
    multistage_decode(seeded_trial(spec, 1, 1, 4, np.random.default_rng(58))[2], spec)
    _, _, ys = seeded_trial(spec, 2, 1, 5, np.random.default_rng(59))
    rrefs, splits = [], []  # the shots are over F_2: one packed elimination each
    real_bits, real_leader = linalg.rref_bits, PartitionChain.coset_leader

    def counting_bits(rows):
        rrefs.append(1)
        return real_bits(rows)

    def counting_leader(chain, i, word):
        splits.append(i)
        return real_leader(chain, i, word)

    monkeypatch.setattr(linalg, "rref_bits", counting_bits)
    monkeypatch.setattr(PartitionChain, "coset_leader", counting_leader)
    received = decoder.Received(ys, spec)
    first = multistage_decode(received, spec)
    assert len(rrefs) == spec.n and splits == []
    rrefs.clear()
    assert multistage_decode(received, spec) == first
    assert rrefs == [] and splits == []
    for _ in range(2):
        assert multistage_decode(ys, spec) == first
        assert len(rrefs) == spec.n and splits == []
        rrefs.clear()
    run_trial(spec, 2, 1, "uniform", 59, 0, 0, ("oracle", "multistage"))
    assert len(rrefs) == spec.n and splits == []


def test_received_value_is_kept_only_for_its_own_spec(tiny2shot, decode12):
    """Received(r, spec) returns r itself and keeps its scores; handed to a
    decoder of another spec, it is rebuilt and checked against that spec."""
    _, _, ys = seeded_trial(tiny2shot, 1, 1, 4, np.random.default_rng(71))
    r = decoder.Received(ys, tiny2shot)
    assert decoder.Received(r, tiny2shot) is r
    assert len(r.scores) == tiny2shot.n and r.scores is r.scores
    for role in sorted(decoder.ROLES):
        with pytest.raises(ValueError, match=r"N \+ M = 8 columns"):
            decoder.ROLES[role](r, decode12)


def _both_decodes(ys, spec):
    """Both exhaustive decodes of ys."""
    return oracle_decode_multishot(ys, spec), multistage_decode(ys, spec)


def test_alternating_shots_keep_their_own_answers(tiny2shot):
    """Two received tuples decoded in turn on one spec each get the answer
    a first decode gave them."""
    spec = tiny2shot
    rng = np.random.default_rng(61)
    inputs = [seeded_trial(spec, 1, 1, seed, rng)[2] for seed in (3, 8)]
    want = [_both_decodes(ys, spec) for ys in inputs]
    assert want[0] != want[1]
    for k in (0, 1, 0, 1, 1, 0):
        ys = inputs[k]
        assert _both_decodes(ys, spec) == want[k]
        assert multistage_decode(ys, spec) == want[k][1]


def test_decode_reads_an_array_changed_in_place(tiny2shot):
    """Writing new entries into the same arrays between two decodes makes
    the second decode read them."""
    spec = tiny2shot
    rng = np.random.default_rng(67)
    ys = [y.copy() for y in seeded_trial(spec, 1, 0, 2, rng)[2]]
    other = seeded_trial(spec, 0, 1, 9, rng)[2]
    want = _both_decodes(other, spec)
    assert _both_decodes(ys, spec) != want
    for y, z in zip(ys, other):
        y[...] = z
    assert _both_decodes(ys, spec) == want


def test_threads_keep_their_own_shots(tiny2shot):
    """Threads decoding different shots on one spec at once each get their
    own shots' answer."""
    spec = tiny2shot
    rng = np.random.default_rng(73)
    inputs = [seeded_trial(spec, 1, 1, seed, rng)[2] for seed in range(6)]
    want = [_both_decodes(ys, spec) for ys in inputs]

    def work(k):
        return [k for _ in range(20) if _both_decodes(inputs[k], spec) != want[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
            futures = [pool.submit(work, k) for k in range(len(inputs))]
            wrong = [k for f in futures for k in f.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def reference_algebraic_multistage(ys, spec, outer_method):
    """The algebraic multistage decode with every inner decision decoded
    to a codeword (decode_bounded) and split by the chain's left inverse
    (coset_leader)."""
    field, q, chain = spec.field, spec.field.base.size, spec.chain
    words = [rank_word(*received_basis(y, spec.shot_length, q), q)[1] for y in ys]
    accepted = [(0,) * spec.shot_length] * spec.n
    messages, wrong, erasures, leaders_all = [], [], [], []
    for i in range(spec.m):
        splits = [chain.subcode(i).decode_bounded(field.vec_sub(w, a), "algebraic")
                  for w, a in zip(words, accepted)]
        splits = [None if d is None else chain.coset_leader(i, d) for d in splits]
        leaders = [None if s is None else s[0] for s in splits]
        erased = tuple(j for j, s in enumerate(splits) if s is None)
        leaders_all.append(leaders)
        erasures.append(len(erased))
        zero = (0,) * chain.delta_k(i)
        symbols = tuple(spec.maps[i].to_symbol(zero if s is None else s[1]) for s in splits)
        msg = spec.outers[i].decode(symbols, erasures=erased, method=outer_method)
        if msg is None:
            wrong.append(None)
            return MultistageResult(False, i, None, wrong, erasures, leaders_all)
        v_hats = spec.level_contribution(i, msg)
        wrong.append(sum(1 for v, x in zip(leaders, v_hats) if v is not None and v != x))
        messages.append(tuple(msg))
        accepted = [field.vec_add(a, v) for a, v in zip(accepted, v_hats)]
    return MultistageResult(True, None, messages, wrong, erasures, leaders_all)


@pytest.mark.parametrize("outer", ["exhaustive", "algebraic"])
@pytest.mark.parametrize("code", ["tiny2shot", "preset"])
def test_multistage_algebraic_reads_coset_messages(code, outer, request, monkeypatch):
    """The algebraic inner path takes each coset message from the decoded
    message polynomial, with no coset_leader call, and decides exactly as
    the reference built from decoded codewords and coset_leader does,
    erasures and outer failures included."""
    spec = request.getfixturevalue(code)
    rng = np.random.default_rng(67)
    inputs = [seeded_trial(spec, rho, tau, seed, rng)[2]
              for rho in range(4) for tau in range(2) for seed in range(5)]
    refs = [reference_algebraic_multistage(ys, spec, outer) for ys in inputs]
    splits = []
    real_leader = PartitionChain.coset_leader

    def counting_leader(chain, i, word):
        splits.append(i)
        return real_leader(chain, i, word)

    monkeypatch.setattr(PartitionChain, "coset_leader", counting_leader)
    for ys, ref in zip(inputs, refs):
        res = multistage_decode(ys, spec, outer_method=outer, inner_method="algebraic")
        assert res.to_json() == ref.to_json()
        assert res.inner_leaders == ref.inner_leaders
    assert splits == []
    assert any(sum(r.erasure_counts) for r in refs)
    assert any(r.ok for r in refs)
    assert outer == "exhaustive" or any(not r.ok for r in refs)


def test_multistage_algebraic_beyond_int64_indices():
    """A code whose R_0 product indices leave int64 (Q^(K_0 - 1) = 2^64)
    decodes on the algebraic paths, where nothing is enumerated, exactly
    as the word-based reference does, shots decoded again after stage 0
    included."""
    spec = spec_from_json({"field": {"q": 2, "M": 16}, "N": 5, "K": 5, "Ks": [5, 3, 0],
                           "n": 3, "outers": [{"n": 3, "k": 1}, {"n": 3, "k": 2}]})
    assert spec.field.size ** (spec.chain.ks[0] - 1) >= 2 ** 63
    rng = np.random.default_rng(3)
    inputs = [seeded_trial(spec, rho, tau, 0, rng)[2] for rho in range(3) for tau in range(2)]
    refs = [reference_algebraic_multistage(ys, spec, "algebraic") for ys in inputs]
    for ys, ref in zip(inputs, refs):
        res = multistage_decode(ys, spec, outer_method="algebraic", inner_method="algebraic")
        assert res.to_json() == ref.to_json()
        assert res.inner_leaders == ref.inner_leaders
    # some shot is decoded again at stage 1, against a nonzero V_j
    assert any(r.ok and r.erasure_counts[0] + r.wrong_inner_counts[0] for r in refs)


@pytest.mark.parametrize("outer", ["exhaustive", "algebraic"])
@pytest.mark.parametrize("code", ["tiny2shot", "preset"])
def test_multistage_algebraic_interpolates_unconfirmed_shots(code, outer, request,
                                                             monkeypatch):
    """A shot keeps its message polynomial while the outer code confirms
    its leaders: a decode interpolates each of the n shots once, and again
    only the shots erased or overruled at the stage before."""
    spec = request.getfixturevalue(code)
    rng = np.random.default_rng(71)
    inputs = [seeded_trial(spec, rho, tau, seed, rng)[2]
              for rho in range(4) for tau in range(2) for seed in range(5)]
    calls = []
    real = GabidulinCode.decode_message

    def counting_decode_message(code, received):
        calls.append(code.dim)
        return real(code, received)

    monkeypatch.setattr(GabidulinCode, "decode_message", counting_decode_message)
    again = 0
    for ys in inputs:
        calls.clear()
        res = multistage_decode(ys, spec, outer_method=outer, inner_method="algebraic")
        stages = len(res.erasure_counts)
        redo = [res.erasure_counts[i] + res.wrong_inner_counts[i] for i in range(stages - 1)]
        assert calls == [spec.chain.ks[0]] * spec.n + [
            k for k, count in zip(spec.chain.ks[1:], redo) for _ in range(count)]
        again += sum(redo)
    assert again > 0


def test_multistage_rejects_unknown_inner_method(tiny2shot, monkeypatch):
    """An unknown method name is refused: by the multistage decoder for
    either step, before any shot is row-reduced, and by the outer and
    Gabidulin decoders."""
    spec = tiny2shot
    word = spec.encode([(0,), (0,)])
    ys = lift_multishot(spec.field, word)

    def no_elimination(*args):
        raise AssertionError("a shot was row-reduced")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    monkeypatch.setattr(linalg, "rref_bits", no_elimination)
    with pytest.raises(ValueError, match="unknown inner method 'gmd'"):
        multistage_decode(ys, spec, inner_method="gmd")
    for call in (lambda: multistage_decode(ys, spec, outer_method="gmd"),
                 lambda: multistage_decode(ys, spec, outer_method="gmd",
                                           inner_method="algebraic"),
                 lambda: spec.outers[0].decode((0, 0), method="gmd"),
                 lambda: spec.code.decode_bounded(word[0], method="gmd")):
        with pytest.raises(ValueError, match="unknown decode method 'gmd'"):
            call()


@pytest.mark.parametrize("doc", [json.loads((CONFIGS / "special_preset.json").read_text()),
                                 {"special": {"q": 2, "M": 7, "N": 7, "K": 3, "n": 3, "d": 6}}],
                         ids=["preset", "2^56"])
def test_algebraic_role_never_enumerates_an_outer_code(doc, monkeypatch):
    """The algebraic role decodes and re-encodes its outer codewords
    without their codebook: OuterCode.encode reads the message-order
    table only once codewords() has built it, and never builds it."""
    spec = spec_from_json(doc)
    rng = np.random.default_rng(29)
    trials = [seeded_trial(spec, rho, tau, 0, rng) for rho in range(3) for tau in range(2)]

    def no_codebook(self):
        raise AssertionError("an outer codebook was enumerated")

    monkeypatch.setattr(OuterCode, "codewords", no_codebook)
    docs = [decoder.ROLES["algebraic"](ys, spec) for _, _, ys in trials]
    assert docs[0]["messages"] == [list(m) for m in trials[0][0]]  # the clean channel


def test_multistage_algebraic_inner_erasures(tiny2shot):
    """The fast inner path surfaces its failures as outer erasures."""
    spec = tiny2shot
    rng = np.random.default_rng(17)
    saw_erasure = False
    for seed in range(120):
        msgs, word, ys = seeded_trial(spec, 0, 1, seed, rng)
        res = multistage_decode(ys, spec, inner_method="algebraic")
        if any(res.erasure_counts):
            saw_erasure = True
        if res.ok and [tuple(m) for m in res.messages] == msgs:
            continue
    assert saw_erasure


def test_multistage_stage_update_algebra(tiny2shot):
    """On a clean channel every stage's residual equals the remaining mix of
    level contributions, so each inner leader matches the true one."""
    spec = tiny2shot
    rng = np.random.default_rng(23)
    for _ in range(40):
        msgs = spec.random_messages(rng)
        word = spec.encode(msgs)
        ys = lift_multishot(spec.field, word)
        res = multistage_decode(ys, spec)
        assert res.ok and [tuple(m) for m in res.messages] == msgs
        contribs = spec.level_contributions(msgs)
        for i in range(spec.m):
            assert res.inner_leaders[i] == list(contribs[i])


def test_multistage_outer_failure_reports_stage(tiny2shot):
    """Replace both shots with lifts of words from two other level-0
    cosets: the outer [2,1] code sees two wrong symbols and no erasures,
    so its algebraic decoder fails at stage 0, after either inner step."""
    spec = tiny2shot
    mixed = (spec.encode([(1,), (0,)])[0], spec.encode([(2,), (0,)])[1])
    ys = lift_multishot(spec.field, mixed)
    for inner in ("exhaustive", "algebraic"):
        res = multistage_decode(ys, spec, outer_method="algebraic", inner_method=inner)
        assert not res.ok
        assert res.stage_failed == 0 and res.messages is None
        assert res.erasure_counts == [0] and res.wrong_inner_counts == [None]
        doc = res.to_json()
        assert doc["messages"] is None and doc["stage_failed"] == 0


def test_multistage_length_check(tiny2shot):
    with pytest.raises(ValueError):
        multistage_decode([np.zeros((6, 6), dtype=np.int64)], tiny2shot)
    # both inner paths refuse shots without N + M columns
    for inner in ("exhaustive", "algebraic"):
        for cols in (5, 7):
            with pytest.raises(ValueError, match="columns"):
                multistage_decode([np.eye(3, cols, dtype=np.int64)] * 2, tiny2shot,
                                  inner_method=inner)


def test_multistage_matches_oracle_zero_adversity(tiny2shot):
    spec = tiny2shot
    rng = np.random.default_rng(31)
    for seed in range(20):
        msgs, word, ys = seeded_trial(spec, 0, 0, seed, rng)
        res = multistage_decode(ys, spec)
        assert res.ok
        assert spec.encode([tuple(m) for m in res.messages]) == \
            oracle_decode_multishot(ys, spec) == word


METHOD_PAIRS = tuple(itertools.product(("exhaustive", "algebraic"), repeat=2))


def test_decoders_pinned(tiny2shot, decode12, q3spec, towerspec, preset):
    """Every decoder's outputs are byte-identical to the pinned stream.

    One sha256 over multistage_decode(...).to_json() and inner_leaders for
    the four inner/outer method pairs on seeded inputs of the tiny,
    decode-12, q = 3 and tower codes, for both outer methods over the
    algebraic inner path on the special preset, and over
    oracle_decode_multishot on the tiny code.  A decoder speed-up keeps
    every decision, tie and erasure, so it keeps this digest.
    """
    cases = [(spec, METHOD_PAIRS) for spec in (tiny2shot, decode12, q3spec, towerspec)]
    cases.append((preset, [("algebraic", "exhaustive"), ("algebraic", "algebraic")]))
    h = hashlib.sha256()
    for ci, (spec, pairs) in enumerate(cases):
        rng = np.random.default_rng(83 + ci)
        for rho, tau in itertools.product(range(6), range(2)):
            for seed in range(4):
                _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
                for inner, outer in pairs:
                    res = multistage_decode(ys, spec, outer_method=outer, inner_method=inner)
                    h.update(json.dumps([res.to_json(), res.inner_leaders]).encode())
                if spec is tiny2shot:
                    h.update(repr(oracle_decode_multishot(ys, spec)).encode())
    assert h.hexdigest() == (
        "ae12f7d48023105ac6f7bc3d49cddb26bc0158bcdcbc666b6325aa48de0fd5fb"
    )


def test_oracle_pinned(tiny2shot, decode12, q3spec, towerspec):
    """The oracle's outputs are byte-identical to the pinned stream.

    One sha256 over oracle_decode_multishot on seeded inputs of the
    decode-12, q = 3, tower (delta_k = 2) and k0-level codes, with
    rho + 2*tau swept past each budget so that distances tie and the
    first minimum decides.  The first three have more codewords than R_0
    has words, the k0-level code fewer.
    """
    k0_level = MultilevelCodeSpec(tiny2shot.chain, 2, [1, 0])
    h = hashlib.sha256()
    for ci, spec in enumerate((decode12, q3spec, towerspec, k0_level)):
        rng = np.random.default_rng(131 + ci)
        for rho, tau in itertools.product(range(6), range(2)):
            for seed in range(4):
                _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
                h.update(repr(oracle_decode_multishot(ys, spec)).encode())
    assert h.hexdigest() == (
        "c5b960713507d9074b0fa20e24ccf7f71d43b88d2df69118ff6128a86f20a0eb"
    )
