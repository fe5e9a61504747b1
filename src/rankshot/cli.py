"""Command-line front end.

Subcommands:

* ``params``   report code parameters (per-level distances, rate, budget)
* ``mindist``  minimum extended rank distance: the least weight of a
               nonzero codeword (R_0's word ranks gathered, under the enumeration guard)
* ``encode``   outer messages -> codeword + lifted transmit matrices
* ``channel``  apply a seeded channel draw to lifted matrices
* ``decode``   decode received matrices with a decoder role (decoder.ROLES)
* ``simulate`` seeded Monte-Carlo campaign over a (rho, tau) grid

Exit codes: 0 success, 2 configuration error, 3 enumeration-guard refusal.

The commands read documents and hand them to the library, whose readers
hold every rule on their input (the spec readers, MultilevelCodeSpec.encode,
decoder.Received, ChannelConfig.validate and its channel.check_field): a
refusal there exits 2 with its message.  The CLI checks only what no
library reader sees: that each document parses and its matrices read
(linalg.matrix_from_json), that every transmit matrix agrees with matrix
0, that every received matrix has the code's q (arrays carry no q), that
a channel config's n counts the matrices, and --workers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel import apply_channel, check_field, config_from_json, lift_multishot, sample_channel
from .decoder import ROLES, Received
from .errors import ConfigError, GuardError, json_int
from .experiment import (
    fer_table,
    parse_experiment_config,
    records_to_csv,
    records_to_json,
    run_experiment,
)
from .linalg import matrix_from_json, matrix_to_json, rank_batch
from .multilevel import MultilevelCodeSpec, spec_from_json


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(args) -> MultilevelCodeSpec:
    doc = _load_json(args.config)
    try:
        return spec_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad code spec: {exc}") from exc


def cmd_params(args) -> int:
    spec = _load_spec(args)
    chain = spec.chain
    levels = []
    for i in range(spec.m):
        sub = chain.subcode(i)
        outer = spec.outers[i]
        levels.append({
            "K_i": chain.ks[i],
            "K_next": chain.ks[i + 1],
            "delta_k": chain.delta_k(i),
            "inner_d_R": sub.designed_distance,
            "children": chain.children_count(i),
            "outer_n": outer.n,
            "outer_k": outer.k,
            "outer_d_H": outer.d_min,
        })
    rate = spec.rate()
    report = {
        "q": spec.field.base.size,
        "M": spec.field.degree,
        "N": spec.shot_length,
        "K": spec.code.dim,
        "n": spec.n,
        "T": spec.lifted_length,
        "m": spec.m,
        "levels": levels,
        "logq_cardinality": spec.cardinality_logq(),
        "rate": f"{rate.numerator}/{rate.denominator}",
        "design_rank_distance": spec.design_distance(),
        "design_subspace_distance": spec.design_subspace_distance(),
        "correctable_budget": spec.correctable_budget(),
        "budget_rule": "rho + 2*tau <= correctable_budget",
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_mindist(args) -> int:
    spec = _load_spec(args)
    q = spec.field.base.size
    size = q ** spec.cardinality_logq()
    design = spec.design_distance()
    report = {"codewords": size, "design_distance": design}
    if size <= 1:
        report.update({"pairs": 0, "note": "no pairs"})
    else:
        # the code is linear, so d(u, v) = w(u - v) covers every pair; the
        # zero word is row 0, and a shot's weight is its R_0 word's rank
        rows = spec.codebook_arrays()[0][1:]  # guarded
        weights = rank_batch(spec.code.codeword_underlines(), q)
        best = int(sum(weights[rows[:, j]] for j in range(spec.n)).min())
        report.update({"pairs": size * (size - 1) // 2, "min_distance": best,
                       "meets_design": best >= design})
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_encode(args) -> int:
    spec = _load_spec(args)
    doc = _load_json(args.infile)
    try:
        messages = [tuple(json_int(s, "message symbol") for s in lvl)
                    for lvl in doc["messages"]]
        word = spec.encode(messages)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad messages document: {exc}") from exc
    q = spec.field.base.size
    xs = lift_multishot(spec.field, word)
    out = {
        "messages": [list(m) for m in messages],
        "codeword": [list(w) for w in word],
        "lifted": [matrix_to_json(x, q) for x in xs],
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_channel(args) -> int:
    cfg_doc = _load_json(args.config)
    doc = _load_json(args.infile)
    try:
        key = "lifted" if "lifted" in doc else "received"
        mats = [matrix_from_json(m) for m in doc[key]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad transmit document: {exc}") from exc
    if not mats:
        raise ConfigError("no transmit matrices")
    xs = tuple(m for m, _ in mats)
    q = mats[0][1]
    N, T = xs[0].shape
    try:
        check_field(q, N)
    except ConfigError as exc:
        raise ConfigError(f"transmit {exc}") from None
    for j, (m, mq) in enumerate(mats):
        if mq != q:
            raise ConfigError(f"transmit matrix {j} has q={mq}, matrix 0 has q={q}")
        if m.shape != (N, T):
            raise ConfigError(
                f"transmit matrix {j} is {m.shape[0]}x{m.shape[1]}, matrix 0 is {N}x{T}"
            )
    if not isinstance(cfg_doc, dict):
        raise ConfigError("channel config must be a JSON object")
    try:
        cfg = config_from_json(cfg_doc, N=N, T=T, q=q)
        if cfg.n != len(xs):
            raise ConfigError(f"config n={cfg.n} but {len(xs)} matrices supplied")
        draw = sample_channel(cfg)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad channel config: {exc}") from exc
    ys = apply_channel(draw, xs, q)
    out = {
        "received": [matrix_to_json(y, q) for y in ys],
        "rho_split": list(draw.rho_split),
        "tau_split": list(draw.tau_split),
    }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_decode(args) -> int:
    spec = _load_spec(args)
    doc = _load_json(args.infile)
    try:
        mats = [matrix_from_json(m) for m in doc["received"]]
        ys = Received(tuple(m for m, _ in mats), spec)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad received document: {exc}") from exc
    q = spec.field.base.size
    for j, (_, mq) in enumerate(mats):
        if mq != q:
            raise ConfigError(f"received matrix {j} has q={mq}, the code has q={q}")
    out = ROLES[args.decoder](ys, spec)
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_experiment_config(_load_json(args.config))
    records = run_experiment(cfg, workers=args.workers)
    if args.format == "csv":
        _emit(records_to_csv(records), args.out)
        summary = fer_table(records) + "\n"
        if args.out:
            sys.stdout.write(summary)
        else:
            sys.stderr.write(summary)
    else:
        _emit(records_to_json(records), args.out)
        if args.out:
            sys.stdout.write(fer_table(records) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankshot",
        description="Multishot rank-metric codes on the matrix channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if infile:
            p.add_argument("--in", dest="infile", required=True,
                           help="JSON input document")

    p = sub.add_parser("params", help="report code parameters")
    common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("mindist", help="minimum distance: least nonzero weight (guarded)")
    common(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("encode", help="encode messages to lifted matrices")
    common(p, infile=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("channel", help="pass lifted matrices through a channel draw")
    common(p, infile=True)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("decode", help="decode received matrices")
    common(p, infile=True)
    p.add_argument("--decoder", choices=tuple(ROLES), default="multistage")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run a seeded Monte-Carlo campaign")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
