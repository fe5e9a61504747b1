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
  contributions already accepted (MultilevelCodeSpec.level_contribution),
  and decodes the resulting coset symbols with the level's outer code.
  Each received matrix is row-reduced once per decode, to its basis
  [H | P] (linalg.received_basis), on both inner paths.  The exhaustive
  inner path scores the shifted basis [H | P - H underline(V_j)] at stage
  i against R_i's codeword stack, and the first minimum's coset leader
  and message come from the level's coset table
  (PartitionChain.coset_table).  The algebraic inner path reads the rank
  word r_j off the same basis (reduction.rank_word: the payload rows
  under header pivots) and decodes r_j - V_j with the Gabidulin
  interpolation decoder.  Diagnostics record, per stage, how many shots'
  inner decisions the outer decoder overruled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import basis_distances, lifted_distances, received_basis
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
        total += lifted_distances(y, und[:, j], q)
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
    contribution v_hat^(i) to each shot's accepted sum V_j.  A stage
    whose outer decoder fails ends the run with ok=False and that stage
    index.

    The reference inner path takes the first minimum, in codeword order,
    of d_S(<Y_j>, lift(V_j + x)) over x in R_i; it always commits to a
    decision, so no erasures arise.  It reads each Y_j once: one RREF
    basis [H | P] per shot, shifted at stage i >= 1 to
    [H | P - H underline(V_j)] (reduced mod q before the distance core
    takes its own product), and the decision's split from the level's
    coset table.  inner_method="algebraic" instead
    runs the rank-error decoder on r_j - V_j, r_j the rank word read off
    the same basis (reduction.rank_word, the rule reduce_received
    applies); its failures are handed to the outer decoder as erasures.
    """
    if len(Ys) != spec.n:
        raise ValueError(f"need {spec.n} received matrices")
    field = spec.field
    q = field.base.size
    chain = spec.chain
    exhaustive = inner_method == "exhaustive"
    bases = [received_basis(y, spec.shot_length, q) for y in Ys]
    if any(p.shape[1] != field.degree for _, p in bases):
        raise ValueError(f"received matrices need N + M = {spec.lifted_length} columns")
    if not exhaustive:
        words = [rank_word(h, p, q)[1] for h, p in bases]
    accepted = [(0,) * spec.shot_length] * spec.n

    messages = []
    wrong_counts, erasure_counts = [], []
    leaders_all = []
    for i in range(spec.m):
        sub = chain.subcode(i)
        if exhaustive:
            und = sub.codeword_underlines()
            leader_tab, message_tab = chain.coset_table(i)
        leaders, mtuples, erased = [], [], []
        for j in range(spec.n):
            if exhaustive:
                h, p = bases[j]
                if i:
                    p = (p - h @ field.underline(accepted[j])) % q
                k = int(np.argmin(basis_distances(h, p, und, q)))
                leaders.append(tuple(leader_tab[k].tolist()))
                mtuples.append(tuple(message_tab[k].tolist()))
                continue
            decided = sub.decode_bounded(field.vec_sub(words[j], accepted[j]),
                                         method=inner_method)
            if decided is None:
                erased.append(j)
                leaders.append(None)
                mtuples.append(None)
                continue
            leader, mtup = chain.coset_leader(i, decided)
            leaders.append(leader)
            mtuples.append(mtup)
        leaders_all.append(leaders)
        erasure_counts.append(len(erased))
        zero = (0,) * chain.delta_k(i)
        symbols = tuple(
            spec.maps[i].to_symbol(t if t is not None else zero) for t in mtuples
        )
        msg = spec.outers[i].decode(symbols, erasures=tuple(erased), method=outer_method)
        if msg is None:
            wrong_counts.append(None)
            return MultistageResult(
                ok=False, stage_failed=i, messages=None, wrong_inner_counts=wrong_counts,
                erasure_counts=erasure_counts, inner_leaders=leaders_all,
            )
        v_hats = spec.level_contribution(i, msg)
        wrong_counts.append(sum(
            1 for j in range(spec.n)
            if leaders[j] is not None and leaders[j] != v_hats[j]
        ))
        messages.append(tuple(msg))
        accepted = [field.vec_add(accepted[j], v_hats[j]) for j in range(spec.n)]

    return MultistageResult(
        ok=True, stage_failed=None, messages=messages, wrong_inner_counts=wrong_counts,
        erasure_counts=erasure_counts, inner_leaders=leaders_all,
    )
