"""Per-layer spans recorded from outside the rankshot package.

A Tracer replaces the package's public layer functions with timing
wrappers at every import site (each loaded ``rankshot`` module whose
attribute is the original function object) and puts the originals back
when it is closed, so nothing under ``src/`` changes.  Spans nest through
one stack: a span's self time is its duration minus the time of the spans
it called, so ``rank_batch -> rank -> rref`` counts each interval once.
``fields`` arithmetic is deliberately left unwrapped; it runs hundreds of
times per algebraic decode and its time stays in its callers' self time.

Only aggregates (calls, self seconds and a few outcome counts)
are kept in memory; per-call span records would not fit a traced
``decode-12`` run, which makes hundreds of thousands of ``rref`` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("rankshot.linalg", "rref", "linalg.rref"),
    ("rankshot.linalg", "rank_batch", "linalg.rank_batch"),
    ("rankshot.linalg", "subspace_distance_to_lifted", "linalg.subspace_distance_to_lifted"),
    ("rankshot.linalg", "solve_field", "linalg.solve_field"),
    ("rankshot.linalg", "kernel_field", "linalg.kernel_field"),
    ("rankshot.channel", "sample_channel", "channel.sample_channel"),
    ("rankshot.channel", "apply_channel", "channel.apply_channel"),
    ("rankshot.reduction", "reduce_received", "reduction.reduce_received"),
    ("rankshot.decoder", "oracle_decode_multishot", "decoder.oracle_decode_multishot"),
    ("rankshot.decoder", "multistage_decode", "decoder.multistage_decode"),
    ("rankshot.experiment", "run_trial", "experiment.run_trial"),
)

# (module, class, method, span name).  Methods taking a ``method``
# argument get it appended to the span name, so the exhaustive and
# algebraic decoders of one class are separate layers.
METHODS = (
    ("rankshot.cosets", "PartitionChain", "coset_leader", "cosets.coset_leader"),
    ("rankshot.multilevel", "MultilevelCodeSpec", "codeword_underlines",
     "multilevel.codeword_underlines"),
    ("rankshot.multilevel", "MultilevelCodeSpec", "encode", "multilevel.encode"),
    ("rankshot.gabidulin", "GabidulinCode", "decode_bounded", "gabidulin.decode_bounded"),
    ("rankshot.outer", "OuterCode", "decode", "outer.decode"),
)

# Layers that can refuse to answer; their share of None results is reported.
MAY_RETURN_NONE = frozenset({"gabidulin.decode_bounded.algebraic", "outer.decode.algebraic"})


class LayerStats:
    __slots__ = ("calls", "self_s", "nones", "matrices", "table_matrices")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.nones = 0
        self.matrices = 0
        self.table_matrices = 0


class Tracer:
    """Wraps the layer functions while open; aggregates their spans.

    Use ``with Tracer() as tr:`` and time work inside ``with tr.root():``.
    Per-call outcome counters:

    * ``rank_batch``: matrices in the stack, and matrices in calls that ran
      no per-matrix ``rref`` (served by the F_2 lookup table today);
    * ``multistage_decode``: shots erased and shots overruled by the outer
      code, from the returned result's per-stage diagnostics.
    """

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        # multistage shots: erased and overruled, over inner decisions made
        # and over decisions the outer code ruled on
        self.shots = {"erased": 0, "inner": 0, "overruled": 0, "decided": 0}
        self._stack: list[list[float]] = []
        self._rref_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextmanager
    def paused(self):
        """Run a block with the original, unwrapped functions."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def install(self):
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(span, orig)
            for mod in [m for n, m in list(sys.modules.items())
                        if n == "rankshot" or n.startswith("rankshot.")]:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        tracer = self
        stats = self.stats
        clock = time.perf_counter
        pick_method = _method_picker(fn)
        is_rref = span == "linalg.rref"
        is_rank_batch = span == "linalg.rank_batch"
        is_multistage = span == "decoder.multistage_decode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if pick_method is None else f"{span}.{pick_method(args, kwargs)}"
            frame = [0.0]
            tracer._stack.append(frame)
            rref_before = tracer._rref_calls
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._stack.pop()
                tracer._stack[-1][0] += dt
                st = stats.get(name)
                if st is None:
                    st = stats[name] = LayerStats()
                st.calls += 1
                st.self_s += dt - frame[0]
                if is_rref:
                    tracer._rref_calls += 1
            if is_rank_batch:
                st.matrices += len(args[0])
                if tracer._rref_calls == rref_before:
                    st.table_matrices += len(args[0])
            elif is_multistage:
                tracer._count_multistage(result, len(args[0]))
            elif result is None and name in MAY_RETURN_NONE:
                st.nones += 1
            return result

        return wrapper

    def _count_multistage(self, result, shots: int):
        for erased, overruled in zip(result.erasure_counts, result.wrong_inner_counts):
            self.shots["erased"] += erased
            self.shots["inner"] += shots
            if overruled is not None:
                self.shots["overruled"] += overruled
                self.shots["decided"] += shots - erased

    def snapshot(self) -> dict:
        """Layer name -> {counter: value}, a copy of the aggregates so far."""
        return {name: {k: getattr(st, k) for k in LayerStats.__slots__}
                for name, st in self.stats.items()}

    # -- roots -----------------------------------------------------------

    @contextmanager
    def root(self):
        """Time a root span; yields a dict filled with its sanity figures.

        ``wall_s`` is the root's duration, ``layer_self_s`` the self time of
        every span opened inside it and ``remainder_s`` the root's time not
        covered by any span.  The two parts must add up to ``wall_s``.
        """
        if self._stack:
            raise RuntimeError("roots do not nest")
        out = {}
        before = sum(st.self_s for st in self.stats.values())
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
            out["wall_s"] = wall
            out["layer_self_s"] = sum(st.self_s for st in self.stats.values()) - before
            out["remainder_s"] = wall - frame[0]


def _method_picker(fn):
    """For a function with a ``method`` parameter, a reader of its value."""
    params = inspect.signature(fn).parameters
    if "method" not in params:
        return None
    pos = list(params).index("method")
    default = params["method"].default

    def pick(args, kwargs):
        if "method" in kwargs:
            return kwargs["method"]
        return args[pos] if len(args) > pos else default

    return pick


def diff(after: dict, before: dict) -> dict:
    """Aggregates accrued between two snapshots."""
    return {name: {k: v - before.get(name, {}).get(k, 0) for k, v in st.items()}
            for name, st in after.items()}


def add(a: dict, b: dict) -> dict:
    """Sum of two snapshots."""
    out = {name: dict(st) for name, st in a.items()}
    for name, st in b.items():
        base = out.setdefault(name, dict.fromkeys(st, 0))
        for k, v in st.items():
            base[k] += v
    return out
