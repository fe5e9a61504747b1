"""Receivers for the lifted matrix channel.

Two decoders of the multilevel code:

* oracle_decode_multishot scans the whole multilevel codebook and
  returns the codeword whose lifted image minimizes the extended
  subspace distance to the received row spaces.  It is exact but
  exponential, and guarantees success whenever rho + 2*tau stays below
  half the design subspace distance.  Every shot is a word of R_0, so
  it sums each shot's scores over R_0 (Received.scores) gathered at the
  codebook's table of R_0 rows (MultilevelCodeSpec.codebook_arrays),
  in codeword order: the first minimum is the smallest codeword.

* multistage_decode peels the partition chain level by level in one
  stage loop over an inner step, _exhaustive_inner or _algebraic_inner.
  Diagnostics record, per stage, how many shots' inner decisions the
  outer decoder overruled.

Both take the shots as a Received value, or build one from a tuple of
arrays.  It belongs to one decode: it checks the shots once and keeps
each shot's basis and scores over R_0 after their first use, so a
simulate trial, which builds one and hands it to ds_observed and every
role, row-reduces each received shot once and scores it over R_0 once.
Over F_2 that basis is one packed elimination (linalg.packed_basis),
and every reader takes its rows as they are: the scores over R_0
(linalg._packed_distances, on R_0's element ints, which the Gabidulin
code builds once, GabidulinCode._codeword_ints), ds_observed
(linalg.packed_distance) and the algebraic step's rank words
(reduction.received_word).  Over an odd prime field it is
linalg.received_basis's (H, P), and the scores are basis_distances.

ROLES maps each decoder role that ``decode --decoder`` and the
``decoders`` of ``simulate`` name to its wire document: "oracle",
"multistage" (exhaustive steps) and "algebraic" (Gabidulin interpolation
per shot, Welch-Berlekamp errors-and-erasures decoding across shots
through Forney's erasure locator, both through linalg.solve_split on
slices of the one inverse each code keeps).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _packed_distances, basis_distances, packed_basis, received_basis
from .multilevel import MultilevelCodeSpec
from .outer import OuterCode
from .reduction import received_word

__all__ = [
    "ROLES",
    "Received",
    "oracle_decode_multishot",
    "MultistageResult",
    "multistage_decode",
]


class Received(tuple):
    """The received shots Y_1 .. Y_n of one decode, as arrays, and its spec.

    Received(Ys, spec) refuses a wrong shot count, and names the shot that
    is not a matrix with N + M columns or has no integer entries, before
    any shot is row-reduced; given a Received of the same spec, it returns
    that value.  bases and scores are computed on first use and kept on
    the value, so every decoder handed it shares them.  It holds the
    caller's arrays, not copies: a shot changed in place after that use
    needs a new value.
    """

    def __new__(cls, Ys, spec: MultilevelCodeSpec):
        if isinstance(Ys, Received) and Ys.spec is spec:
            return Ys
        shots = [np.asarray(y) for y in Ys]
        if len(shots) != spec.n:
            raise ValueError(f"need {spec.n} received matrices, got {len(shots)}")
        width = spec.lifted_length
        for j, y in enumerate(shots):
            if y.shape[1:] != (width,):  # 2-D, N + M columns
                cols = f"{y.shape[1]} columns" if y.ndim == 2 else f"shape {y.shape}"
                raise ValueError(
                    f"received matrix {j} has {cols}, the code needs N + M = {width} columns")
            if y.dtype.kind not in "biu":  # as_matrix would truncate a float entry
                raise ValueError(f"received matrix {j} needs integer entries, got {y.dtype}")
        self = super().__new__(cls, shots)
        self.spec = spec
        return self

    @functools.cached_property
    def bases(self) -> tuple:
        """Per shot, the RREF basis of <Y_j>, one elimination each, in the
        one form its readers take: over F_2 the packed rows of
        linalg.packed_basis, header in the low N bits; otherwise
        linalg.received_basis's (H, P), split after the shot length."""
        spec = self.spec
        if spec.field.base.size == 2:
            return tuple(map(packed_basis, self))
        return tuple(received_basis(y, spec.shot_length, spec.field.base.size) for y in self)

    @functools.cached_property
    def scores(self) -> tuple:
        """Per shot j, d_S(<Y_j>, lift(c)) for every word c of R_0, in R_0's
        codeword order, from the shot's basis.  Over F_2 that is
        linalg._packed_distances on the packed rows, straight against R_0's
        element ints as the code keeps them (GabidulinCode._codeword_ints),
        so no call packs R_0 or the basis again; otherwise basis_distances."""
        code = self.spec.code
        q = code.field.base.size
        if q == 2:  # M <= 63: the code keeps q^M - 1 inside int64
            words, m = code._codeword_ints(), code.field.degree
            return tuple(_packed_distances(rows, words, m) for rows in self.bases)
        und = code.codebook_arrays()[0]
        return tuple(basis_distances(h, p, und, q) for h, p in self.bases)


def oracle_decode_multishot(Ys, spec: MultilevelCodeSpec):
    """Codeword minimizing the extended subspace distance to the shots."""
    Ys = Received(Ys, spec)
    rows = spec.codebook_arrays()[0]  # guards the table before enumerating
    total = np.zeros(len(rows), dtype=np.int64)
    for j, scores in enumerate(Ys.scores):
        total += scores[rows[:, j]]
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


def _exhaustive_inner(Ys, spec: MultilevelCodeSpec):
    """The reference inner step: at stage i, the first minimum in codeword
    order of d_S(<Y_j>, lift(V_j + x)) over x in R_i.  It always commits
    to a decision, so it erases nothing.

    Set-up scatters each shot's scores over R_0 (Received.scores) into
    R_0's product-index order.  With Q = q^M, V_j + x lies in R_0 with
    product index index_i(x) Q^(K_0 - K_i) + index(V_j), an int64 under
    the enumeration guard, so a stage's scores are a gather from that
    vector, with the scores and tie order of scoring lift(V_j + x)
    directly.  The
    low delta_k digits of index_i(x), x's coset message, pick its entry
    from the level's coset table (PartitionChain.coset_table).
    """
    chain, n, Q = spec.chain, spec.n, spec.field.size
    index = spec.code.codebook_arrays()[1]
    scores = np.empty((n, len(index)), dtype=np.int64)
    for j, row in enumerate(Ys.scores):
        scores[j, index] = row
    shots = np.arange(n)[:, None]

    def stage(i, accepted, redo):
        table, children = chain.coset_table(i), chain.children_count(i)
        sub_index = chain.subcode(i).codebook_arrays()[1]
        # row-major over (index_i(x), index(V_j)): R_0's product index
        by_level = scores.reshape(n, len(sub_index), -1)
        # index(V_j): its message digits K_i .. K_0 - 1 in base Q
        v_index = np.zeros((n, 1), dtype=np.int64)
        for k in range(chain.ks[i], chain.ks[0]):
            v_index = v_index * Q + [[v[k]] for v in accepted]
        picks = by_level[shots, sub_index, v_index].argmin(axis=1)
        return [table[k] for k in (sub_index[picks] % children).tolist()]

    return stage


def _algebraic_inner(Ys, spec: MultilevelCodeSpec):
    """The paper's inner step, which enumerates nothing: the rank-error
    decoder on r_j - V_j, its failures returned as erasures.

    Set-up reads each shot's rank word r_j off its one basis on Ys
    (reduction.received_word), with no elimination of its own.  At stage
    i only the shots in redo are decoded (GabidulinCode.decode_message);
    each shot's last message polynomial f splits as coset message
    f[K_{i+1}:K_i], whose leader and symbol PartitionChain.coset_entry
    gives, exactly coset_leader's split of the encoded word.  Keeping f
    while the outer code confirms the shot's leaders is exact: if f was
    found at stage l, r_j - V_j lies within rank t_l of a word of R_i,
    and t_l <= t_i < d_R(R_i) / 2 makes that word the decoder's unique
    answer at stage i.  It forms no product index, which leaves int64
    once Q^(K_0 - 1) does.
    """
    field, chain, code = spec.field, spec.chain, spec.code
    ks = chain.ks
    words = [received_word(b, spec.shot_length, field.base.size)[1] for b in Ys.bases]
    polys = [None] * spec.n  # message polynomial of each shot's last decode

    def stage(i, accepted, redo):
        sub = chain.subcode(i)
        for j in redo:
            target = words[j] if not i else field.vec_sub(words[j], code.encode(accepted[j]))
            polys[j] = sub.decode_message(target)
        return [None if f is None else chain.coset_entry(i, f[ks[i + 1]:ks[i]])
                for f in polys]

    return stage


_INNER_STEPS = {"exhaustive": _exhaustive_inner, "algebraic": _algebraic_inner}


def multistage_decode(Ys, spec: MultilevelCodeSpec, outer_method: str = "exhaustive",
                      inner_method: str = "exhaustive") -> MultistageResult:
    """Hard-decision multistage decoding of the multilevel code.

    The inner step that inner_method names does its set-up once and
    returns stage(i, accepted, redo): each shot's coset entry (leader,
    symbol) of R_i / R_{i+1}, or None for an erasure, given the R_0
    messages of the shots' accepted sums V_j.  Stage i hands the symbols
    and erasures to outer code i (outer_method) and adds the accepted
    contribution v_hat^(i) to each V_j.  A decided shot whose symbol
    differs from the outer codeword's was overruled; the erased and
    overruled shots are the next stage's redo.  A stage whose outer
    decoder fails ends the run with ok=False and that stage index.
    """
    Ys = Received(Ys, spec)
    if inner_method not in _INNER_STEPS:
        raise ValueError(f"unknown inner method {inner_method!r}")
    OuterCode.decoder_for(outer_method)  # refuse an unknown name before any set-up
    stage = _INNER_STEPS[inner_method](Ys, spec)
    ks, n = spec.chain.ks, spec.n
    accepted = [[0] * spec.code.dim for _ in range(n)]  # R_0 message of each shot's V_j
    redo = range(n)  # the shots to decode again at this stage

    result = MultistageResult(ok=True, stage_failed=None, messages=[], wrong_inner_counts=[],
                              erasure_counts=[], inner_leaders=[])
    for i in range(spec.m):
        entries = stage(i, accepted, redo)
        erased = [j for j, e in enumerate(entries) if e is None]
        leaders = [None if e is None else e[0] for e in entries]
        symbols = [0 if e is None else e[1] for e in entries]
        result.inner_leaders.append(leaders)
        result.erasure_counts.append(len(erased))
        msg = spec.outers[i].decode(tuple(symbols), erasures=tuple(erased),
                                    method=outer_method)
        if msg is None:
            result.wrong_inner_counts.append(None)
            result.ok, result.stage_failed, result.messages = False, i, None
            return result
        outer_word = spec.outers[i].encode(msg)
        overruled = [j for j in range(n)
                     if entries[j] is not None and symbols[j] != outer_word[j]]
        result.wrong_inner_counts.append(len(overruled))
        result.messages.append(tuple(msg))
        for j, sym in enumerate(outer_word):
            accepted[j][ks[i + 1]:ks[i]] = spec.maps[i].to_tuple(sym)
        redo = erased + overruled
    return result


def _oracle_doc(Ys, spec):
    return {"decoder": "oracle", "codeword": [list(w) for w in oracle_decode_multishot(Ys, spec)]}


# Decoder role -> (Ys, spec) -> the role's ``decode`` wire document.  Each
# entry calls its decoder through this module's globals, so wrapping them
# (perfbench/spans.py does) reaches every role.
ROLES = {
    "oracle": _oracle_doc,
    "multistage": lambda Ys, spec: multistage_decode(Ys, spec).to_json(),
    "algebraic": lambda Ys, spec: multistage_decode(
        Ys, spec, outer_method="algebraic", inner_method="algebraic").to_json(),
}
