"""Receivers for the lifted matrix channel.

Two decoders of the multilevel code, both scoring candidates by the
subspace distance to the received row space (linalg.basis_distances):

* oracle_decode_multishot scans the whole multilevel codebook and
  returns the codeword whose lifted image minimizes the extended
  subspace distance to the received row spaces.  It is exact but
  exponential, and guarantees success whenever rho + 2*tau stays below
  half the design subspace distance.  The codebook is in codeword
  order, so the first minimum is the smallest codeword.

* multistage_decode peels the partition chain level by level: per shot
  it picks the word x of the level subcode R_i minimizing
  d_S(<Y_j>, lift(V_j + x)), where V_j is the sum of the level
  contributions already accepted, and decodes the resulting coset
  symbols with the level's outer code.  V_j is held as its R_0
  message, a list of field elements, and each received matrix is
  row-reduced once per decode, to its basis [H | P]
  (linalg.received_basis), on both inner paths.  V_j + R_i lies in R_0,
  so the exhaustive inner path scores each shot once, against R_0's
  codeword stack, and every stage's decision is the first minimum of a
  gather from that score vector.  R_i's message is the first K_i
  digits of an R_0 message, so with Q = q^M the word V_j + x has R_0
  product index index_i(x) Q^(K_0 - K_i) + index(V_j), and index(V_j)
  is read off V_j's message digits, an int64 under the enumeration
  guard that path runs behind.  The low delta_k digits of index_i(x)
  are the decision's coset message, which picks its coset leader and
  symbol from the level's coset table (PartitionChain.coset_table).
  The algebraic inner path reads the rank word r_j off the same basis
  (reduction.rank_word: the payload rows under header pivots) and
  decodes r_j - V_j with the Gabidulin interpolation decoder to its
  message polynomial f (GabidulinCode.decode_message).  R_i is
  generated by the first K_i generator columns, so the coset message is
  f[K_{i+1}:K_i] and the coset leader its product with the coset code's
  generator: no codeword is re-encoded and no coset_leader split runs.
  A shot keeps f, and reads its later coset messages off it, for as
  long as the outer code confirms its leaders; only erased or overruled
  shots are decoded again, on r_j - encode(V_j's message).  That path
  enumerates nothing, so it never forms a product index, which leaves
  int64 once Q^(K_0 - 1) does.  Diagnostics record, per stage, how many
  shots' inner decisions the outer decoder overruled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import matvec
from .linalg import basis_distances, received_basis
from .multilevel import MultilevelCodeSpec
from .reduction import rank_word

__all__ = [
    "oracle_decode_multishot",
    "MultistageResult",
    "multistage_decode",
]


def oracle_decode_multishot(Ys, spec: MultilevelCodeSpec):
    """Codeword minimizing the extended subspace distance to the shots."""
    if len(Ys) != spec.n:
        raise ValueError(f"need {spec.n} received matrices")
    q = spec.field.base.size
    und = spec.codeword_underlines()  # guards the stack before enumerating
    total = np.zeros(len(und), dtype=np.int64)
    for j, y in enumerate(Ys):
        total += basis_distances(*received_basis(y, spec.shot_length, q), und[:, j], q)
    return spec.codeword(int(np.argmin(total)))


@dataclass
class MultistageResult:
    ok: bool
    stage_failed: int | None
    messages: list | None          # per level, outer message tuples
    wrong_inner_counts: list       # per stage, shots overruled by the outer code
    erasure_counts: list           # per stage, shots surfaced as erasures
    inner_leaders: list            # per stage, the per-shot inner coset decisions

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "stage_failed": self.stage_failed,
            "messages": None if self.messages is None
            else [[int(s) for s in msg] for msg in self.messages],
            "diagnostics": {
                "wrong_inner_counts": list(self.wrong_inner_counts),
                "erasure_counts": list(self.erasure_counts),
            },
        }


def multistage_decode(Ys, spec: MultilevelCodeSpec, outer_method: str = "exhaustive",
                      inner_method: str = "exhaustive") -> MultistageResult:
    """Hard-decision multistage decoding of the multilevel code.

    Stage i inner-decodes each shot within the level subcode R_i, hands
    the per-shot coset symbols to outer code i, and adds the accepted
    contribution v_hat^(i) to each shot's accepted sum V_j; a shot whose
    coset symbol differs from the outer codeword's was overruled.  A
    stage whose outer decoder fails ends the run with ok=False and that
    stage index.

    The reference inner path takes the first minimum, in codeword order,
    of d_S(<Y_j>, lift(V_j + x)) over x in R_i; it always commits to a
    decision, so no erasures arise.  Its stage-i scores are a gather from
    the shot's scores over R_0 at the rows of V_j + R_i, so the scores
    and their tie order are those of scoring lift(V_j + x) directly.
    inner_method="algebraic" instead runs the rank-error decoder on
    r_j - V_j and splits the decoded message polynomial f: the coset
    message is f[K_{i+1}:K_i] and the leader its image under the coset
    code's generator, exactly PartitionChain.coset_leader's split of the
    encoded word.  Keeping f while the outer code confirms the shot's
    leaders is exact: if f was found at stage l, r_j - V_j then lies
    within rank t_l of a word of R_i, and t_l <= t_i < d_R(R_i) / 2
    makes that word the decoder's unique answer at stage i.  Its
    failures are handed to the outer decoder as erasures.
    """
    if len(Ys) != spec.n:
        raise ValueError(f"need {spec.n} received matrices")
    field = spec.field
    q, Q = field.base.size, field.size
    chain, code, n = spec.chain, spec.code, spec.n
    ks = chain.ks
    if inner_method not in ("exhaustive", "algebraic"):
        raise ValueError(f"unknown inner method {inner_method!r}")
    exhaustive = inner_method == "exhaustive"
    bases = [received_basis(y, spec.shot_length, q) for y in Ys]
    if any(p.shape[1] != field.degree for _, p in bases):
        raise ValueError(f"received matrices need N + M = {spec.lifted_length} columns")
    if exhaustive:
        # every shot's scores over R_0, scattered into product-index order
        und, index = code.codebook_arrays()
        scores = np.empty((n, len(index)), dtype=np.int64)
        for j, (h, p) in enumerate(bases):
            scores[j, index] = basis_distances(h, p, und, q)
        shots = np.arange(n)[:, None]
    else:
        words = [rank_word(h, p, q)[1] for h, p in bases]
        polys = [None] * n   # message polynomial of each shot's last interpolation
        redo = range(n)      # the shots to interpolate at this stage
    accepted = [[0] * code.dim for _ in range(n)]  # R_0 message of each shot's V_j

    messages = []
    wrong_counts, erasure_counts = [], []
    leaders_all = []
    for i in range(spec.m):
        smap = spec.maps[i]
        if exhaustive:
            table, children = chain.coset_table(i), chain.children_count(i)
            sub_index = chain.subcode(i).codebook_arrays()[1]
            # row-major over (index_i(x), index(V_j)): R_0's product index
            by_level = scores.reshape(n, len(sub_index), -1)
            # index(V_j): its message digits K_i .. K_0 - 1 in base Q
            v_index = np.zeros((n, 1), dtype=np.int64)
            for k in range(ks[i], ks[0]):
                v_index = v_index * Q + [[v[k]] for v in accepted]
            picks = by_level[shots, sub_index, v_index].argmin(axis=1)
            # the low delta_k digits of index_i(x): x's coset message
            entries = [table[k] for k in (sub_index[picks] % children).tolist()]
            leaders = [leader for leader, _ in entries]
            symbols = [symbol for _, symbol in entries]
            erased = []
        else:
            sub = chain.subcode(i)
            for j in redo:
                target = words[j] if not i else field.vec_sub(words[j], code.encode(accepted[j]))
                polys[j] = sub.decode_message(target)
            leaders, symbols, erased = [], [], []
            for j, f in enumerate(polys):
                if f is None:
                    erased.append(j)
                    leaders.append(None)
                    symbols.append(0)
                    continue
                mtup = f[ks[i + 1]:ks[i]]
                leaders.append(matvec(field, chain.coset_code_generator(i), mtup))
                symbols.append(smap.to_symbol(mtup))
        leaders_all.append(leaders)
        erasure_counts.append(len(erased))
        msg = spec.outers[i].decode(tuple(symbols), erasures=tuple(erased),
                                    method=outer_method)
        if msg is None:
            wrong_counts.append(None)
            return MultistageResult(
                ok=False, stage_failed=i, messages=None, wrong_inner_counts=wrong_counts,
                erasure_counts=erasure_counts, inner_leaders=leaders_all,
            )
        outer_word = spec.outers[i].encode(msg)
        overruled = [j for j in range(n)
                     if leaders[j] is not None and symbols[j] != outer_word[j]]
        wrong_counts.append(len(overruled))
        messages.append(tuple(msg))
        for j, sym in enumerate(outer_word):
            accepted[j][ks[i + 1]:ks[i]] = smap.to_tuple(sym)
        redo = erased + overruled

    return MultistageResult(
        ok=True, stage_failed=None, messages=messages, wrong_inner_counts=wrong_counts,
        erasure_counts=erasure_counts, inner_leaders=leaders_all,
    )
