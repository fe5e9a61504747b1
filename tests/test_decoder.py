"""Oracle and multistage decoders for the lifted multishot channel."""

import itertools

import numpy as np
import pytest

from rankshot import decoder, linalg
from rankshot.channel import ChannelConfig, apply_channel, lift_multishot, sample_channel
from rankshot.cosets import PartitionChain
from rankshot.decoder import MultistageResult, multistage_decode, oracle_decode_multishot
from rankshot.linalg import received_basis, subspace_distance_to_lifted
from rankshot.multilevel import special_situation
from rankshot.reduction import rank_word, reduce_received
from rankshot.fields import ExtensionField, PrimeField


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


@pytest.mark.parametrize("code", ["tiny2shot", "decode12"])
def test_multistage_inner_leaders_match_brute_force(code, request):
    """At every stage each inner leader is the coset leader of the first
    minimum of d_S(<Y_j>, lift(V_j + x)) over x in R_i, where V_j sums the
    level contributions the decoder accepted before that stage."""
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
    assert late_erasures > 0


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
def test_multistage_reduces_each_shot_once(inner, tiny2shot, monkeypatch):
    """Both inner paths row-reduce each received shot once, to the RREF
    basis [H | P] of linalg.received_basis, and never call
    reduce_received.  The algebraic path reads its rank word off that
    basis with reduction.rank_word, the rule reduce_received applies, so
    the word equals reduce_received(field, y).r, also on shots with
    erasures (mu > 0) and deviations (delta > 0)."""
    spec = tiny2shot
    assert not hasattr(decoder, "reduce_received")
    received_rrefs, words = [], []
    real_rref, real_rank_word = linalg.rref, decoder.rank_word

    def counting_rref(m, q):
        # the Gabidulin decoder's final rank check row-reduces N x M
        # matrices; only the N + M column ones are received shots
        if np.shape(m)[1] == spec.lifted_length:
            received_rrefs.append(1)
        return real_rref(m, q)

    def recording_rank_word(h, p, q):
        out = real_rank_word(h, p, q)
        words.append(out[1])
        return out

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(decoder, "rank_word", recording_rank_word)
    rng = np.random.default_rng(3)
    saw_mu = saw_delta = False
    for rho, tau in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for seed in range(6):
            _, _, ys = seeded_trial(spec, rho, tau, seed, rng)
            triples = [reduce_received(spec.field, y) for y in ys]
            received_rrefs.clear()
            words.clear()
            multistage_decode(ys, spec, inner_method=inner)
            assert len(received_rrefs) == spec.n, (rho, tau, seed)
            if inner == "exhaustive":
                assert words == []
            else:
                assert words == [t.r for t in triples], (rho, tau, seed)
                saw_mu |= any(t.mu for t in triples)
                saw_delta |= any(t.delta for t in triples)
    assert inner == "exhaustive" or (saw_mu and saw_delta)


@pytest.mark.parametrize("code", ["tiny2shot", "decode12"])
def test_multistage_reads_each_shot_once(code, request, monkeypatch):
    """Once the per-level coset tables exist, a default decode row-reduces
    each received matrix once and reads every inner decision's split from
    the tables, with no coset_leader call."""
    spec = request.getfixturevalue(code)
    _, _, ys = seeded_trial(spec, 2, 1, 5, np.random.default_rng(59))
    first = multistage_decode(ys, spec)  # builds the tables
    rrefs, splits = [], []
    real_rref, real_leader = linalg.rref, PartitionChain.coset_leader

    def counting_rref(m, q):
        rrefs.append(1)
        return real_rref(m, q)

    def counting_leader(chain, i, word):
        splits.append(i)
        return real_leader(chain, i, word)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(PartitionChain, "coset_leader", counting_leader)
    assert multistage_decode(ys, spec) == first
    assert len(rrefs) == spec.n and splits == []


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
    spec = (special_situation(2, 4, 4, 2, 3, 4)[0] if code == "preset"
            else request.getfixturevalue(code))
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


def test_multistage_rejects_unknown_inner_method(tiny2shot):
    ys = lift_multishot(tiny2shot.field, tiny2shot.encode([(0,), (0,)]))
    with pytest.raises(ValueError, match="inner method"):
        multistage_decode(ys, tiny2shot, inner_method="gmd")


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
    """Force an uncorrectable stage-0 pattern: replace both shots with
    lifts of words from a different coset so the outer [2,1] code sees
    two wrong symbols and no erasures -> algebraic failure at stage 0."""
    spec = tiny2shot
    word = spec.encode([(0,), (0,)])
    bad = spec.encode([(1,), (0,)])
    mixed = (bad[0], spec.encode([(2,), (0,)])[1])
    ys = lift_multishot(spec.field, mixed)
    res = multistage_decode(ys, spec, outer_method="algebraic")
    if not res.ok:
        assert res.stage_failed == 0
        assert res.messages is None
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
