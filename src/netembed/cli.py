"""Command-line front end: net -> graph -> subdivide/gadget -> embed ->
audit -> classify, with seeded reproducibility and JSON/CSV/DOT reports.

Exit codes: 0 success, 2 validation error (bad arguments, malformed input
files, parameters out of range), 3 runtime failure (placement retry cap,
internal consistency, I/O).  Errors are reported as structured JSON on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .classify import classify
from .embeddings import (audit_tg, default_strict_params, embedding_from_json,
                         embedding_to_json, estimate_suitable_fraction,
                         place_edges, practical_params, verify_embedding)
from .errors import ValidationError
from .gadgets import (anchor_map, audit_anchor_map, audit_product_map,
                      build_gadget, gadget_to_json, subdivide)
from .graphs import (FiniteMetric, from_edges, graph_from_json, graph_to_dot,
                     graph_to_json, max_degree, write_audit_csv)
from .net_graphs import (NetGraph, audit_identity_embedding, build_net_graph,
                         degree_bound, net_graph_from_json, net_graph_from_net,
                         net_graph_to_json, verify_path_bound)
from .nets import build_net, net_from_json, net_to_json
from .spaces import parse_space


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc


# Rows of an integer array encoded per write: bounds the writer's memory
# whatever the length of a listing.
_WRITE_ROWS = 1 << 12


def _mark(nonce: int) -> str:
    """The string that stands in for an integer array while obj is encoded."""
    return f"\x00{nonce}"


def _encode_around_arrays(obj) -> tuple:
    """Encode obj as _dump_json writes it, cut where its integer arrays go.

    Returns (pieces, arrays): json.dumps(obj, sort_keys=True) plus a
    newline, cut into len(arrays) + 1 pieces around the integer ndarrays
    it holds, listed in text order.  Each array is encoded as the stand-in
    string _mark(nonce).  A user string can hold the stand-in's token only
    inside its own string token, so the cut is exact when it gives one
    piece more than there are arrays; otherwise the next nonce is tried."""
    for nonce in itertools.count():
        arrays = []

        def stand_in(o):
            if isinstance(o, np.ndarray) and o.dtype.kind in "iu":
                arrays.append(o)
                return _mark(nonce)
            return json.JSONEncoder().default(o)  # json.dumps's own TypeError

        pieces = (json.dumps(obj, sort_keys=True, default=stand_in) + "\n").split(
            json.dumps(_mark(nonce)))
        if len(pieces) == len(arrays) + 1:
            return pieces, arrays


def _template(shape) -> str:
    """The %-template of an integer array of this shape as json.dumps
    writes its .tolist(): %d per entry, nested in brackets."""
    if not shape:
        return "%d"
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]"


def _write_ints(write, a: np.ndarray) -> None:
    """Write json.dumps(a.tolist()), encoding _WRITE_ROWS rows at a time,
    each chunk through one %-template of its rows."""
    if a.ndim == 0:
        write(json.dumps(a.tolist()))
        return
    row = _template(a.shape[1:])
    write("[")
    for start in range(0, len(a), _WRITE_ROWS):
        chunk = a[start:start + _WRITE_ROWS]
        rows = ", ".join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
        write(", " + rows if start else rows)
    write("]")


def _dump_json(obj, path):
    """Write obj as json.dumps(obj, sort_keys=True) plus a newline, an
    integer ndarray counting as its .tolist(): the standard library's C
    encoder, sorted keys, no indentation.  Integer arrays are encoded a
    chunk of rows at a time as they are written; everything else is
    encoded before the file is opened, so a value json cannot encode
    leaves no file behind."""
    pieces, arrays = _encode_around_arrays(obj)
    out = (contextlib.nullcontext(sys.stdout) if path is None or path == "-"
           else open(path, "w", encoding="utf-8"))
    with out as fh:
        fh.write(pieces[0])
        for a, piece in zip(arrays, pieces[1:]):
            _write_ints(fh.write, a)
            fh.write(piece)


def _load_graph(path):
    obj = _load_json(path, "graph")
    if not isinstance(obj, dict):
        raise ValidationError(f"graph file {path} must hold a JSON object")
    if "net" in obj:
        return net_graph_from_json(obj)
    return graph_from_json(obj)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), int(stream)])


# --- stages shared by the subcommands and the pipeline ------------------------

def _params(args):
    """The placement params of --mode, --beta (practical only) and --seed."""
    if args.mode == "strict":
        if args.beta is not None:
            raise ValidationError("--beta applies to --mode practical only: "
                                  "strict mode sets beta = mu/546")
        return default_strict_params(seed=args.seed)
    return practical_params(beta=0.02 if args.beta is None else args.beta, seed=args.seed)


def _graph_doc(ng):
    """The graph.json document: the net graph and its audits."""
    obj = net_graph_to_json(ng)
    pb = verify_path_bound(ng)
    obj["audit"] = {
        "identity": asdict(audit_identity_embedding(ng)) if ng.net.size > 1 else None,
        "path_bound_ok": pb.ok,
        "max_forward_ratio": pb.max_forward_ratio,
        "max_degree": max_degree(ng.graph),
        "degree_bound": degree_bound(ng),
    }
    return obj


def _tg_audit(emb, samples, seed):
    """The distortion audit on RNG stream 2, as JSON, and whether every
    breakpoint re-verifies."""
    return asdict(audit_tg(emb, samples, _rng(seed, 2))), verify_embedding(emb)["ok"]


def _phi_audit(emb, h, pair_cap, seed):
    """The audit of the gadget h placed along the embedding's curves, on RNG
    stream 3, as JSON."""
    return asdict(audit_product_map(h, emb, pair_cap=pair_cap, rng=_rng(seed, 3)))


# --- subcommand bodies -------------------------------------------------------

def _cmd_net(args):
    space = parse_space(args.space)
    net = build_net(space, args.delta, args.r, args.mesh)
    _dump_json(net_to_json(net), args.output)
    return 0


def _cmd_graph(args):
    ng = net_graph_from_net(net_from_json(_load_json(args.net, "net")))
    _dump_json(_graph_doc(ng), args.output)
    if args.dot:
        Path(args.dot).write_text(graph_to_dot(ng.graph, ng.points), encoding="utf-8")
    return 0


def _cmd_subdivide(args):
    g = _graph_of(_load_graph(args.graph))
    sub = subdivide(g, args.M)
    obj = graph_to_json(from_edges(sub.n, sub.edge_ends()))
    obj["M"] = sub.M
    obj["base_n"] = sub.base.n
    obj["edge_order"] = sub.base.ends
    _dump_json(obj, args.output)
    return 0


def _graph_of(loaded):
    return loaded.graph if isinstance(loaded, NetGraph) else loaded


def _cmd_gadget(args):
    g = _graph_of(_load_graph(args.graph))
    h = build_gadget(g, args.M)
    _dump_json(gadget_to_json(h), args.output)
    return 0


def _cmd_audit_psi(args):
    g = _graph_of(_load_graph(args.graph))
    h = build_gadget(g, args.M)
    report = audit_anchor_map(h)
    obj = {"report": asdict(report), "M": h.M, "edges": h.base.edge_count,
           "max_degree_H": h.max_degree(),
           "lip_bound": 2 * h.base.edge_count + h.M,
           "lip_inverse_bound": 1.0 / h.M}
    _dump_json(obj, args.output)
    if args.csv:
        write_audit_csv(args.csv, FiniteMetric.from_graph(g), h.hop_metric(),
                        anchor_map(h))
    return 0


def _cmd_audit_phi(args):
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    g = emb.netgraph.graph
    m_val = args.M if args.M is not None else 2 * g.edge_count + 1
    obj = _phi_audit(emb, build_gadget(g, m_val), args.pair_cap, args.seed)
    obj["M"] = m_val
    obj["params"] = asdict(emb.params)
    _dump_json(obj, args.output)
    return 0


def _cmd_embed(args):
    loaded = _load_graph(args.graph)
    if not isinstance(loaded, NetGraph):
        raise ValidationError("embed needs a net-graph JSON (produced by `graph`)")
    overrides = {name: getattr(args, name) for name in ("alpha", "gamma", "mu", "retry_cap")
                 if getattr(args, name) is not None}
    emb = place_edges(loaded, replace(_params(args), **overrides), edge_limit=args.limit)
    _dump_json(embedding_to_json(emb), args.output)
    return 0


def _cmd_audit_tg(args):
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    obj, reverified = _tg_audit(emb, args.samples, args.seed)
    obj["reverified"] = reverified
    obj["params"] = asdict(emb.params)
    obj["samples_requested"] = args.samples
    obj["seed"] = args.seed
    _dump_json(obj, args.output)
    return 0


def _cmd_montecarlo(args):
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    est = estimate_suitable_fraction(emb, args.edge, args.samples,
                                     _rng(args.seed, 4))
    obj = asdict(est)
    obj["params"] = asdict(emb.params)
    obj["edge"] = args.edge
    obj["seed"] = args.seed
    _dump_json(obj, args.output)
    return 0


def _cmd_classify(args):
    g = _graph_of(_load_graph(args.graph))
    _dump_json(asdict(classify(g)), args.output)
    return 0


def _cmd_pipeline(args):
    """net -> graph -> embed -> gadget -> dossier.  Each artifact is what its
    subcommand writes from the artifacts before it."""

    # every argument is checked before the first artifact is written
    space = parse_space(args.space)
    params = _params(args)
    params.validate(space.dim)
    if args.samples < 0:
        raise ValidationError("interior_samples must be >= 0")
    if args.pair_cap < 1:
        raise ValidationError("pair_cap must be >= 1")
    ng = build_net_graph(space, args.delta, args.r, args.mesh)
    if ng.net.size < 2:
        raise ValidationError("pipeline needs a net of at least two points, got "
                              f"{ng.net.size} at r = {args.r}, rho = {ng.net.rho}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(net_to_json(ng.net), out / "net.json")
    gobj = _graph_doc(ng)
    _dump_json(gobj, out / "graph.json")

    emb = place_edges(ng, params)
    _dump_json(embedding_to_json(emb), out / "embedding.json")
    tg_report, reverified = _tg_audit(emb, args.samples, args.seed)

    e_count = ng.graph.edge_count
    m_val = 2 * e_count + 1
    h = build_gadget(ng.graph, m_val)
    _dump_json(gadget_to_json(h), out / "gadget.json")
    psi_report = audit_anchor_map(h)
    phi_audit = _phi_audit(emb, h, args.pair_cap, args.seed)

    audit = gobj["audit"]
    dossier = {
        "config": {"space": args.space, "delta": args.delta, "r": args.r,
                   "mesh": args.mesh, "seed": args.seed, "mode": args.mode,
                   "M": m_val, "tg_samples": args.samples,
                   "pair_cap": args.pair_cap,
                   "params": asdict(params)},
        "net": {"points": ng.net.size, "rho": ng.net.rho},
        "graph": {"vertices": ng.graph.n, "edges": e_count,
                  "edge_threshold": ng.edge_threshold,
                  "max_degree": audit["max_degree"],
                  "degree_bound": audit["degree_bound"],
                  "identity_audit": audit["identity"],
                  "path_bound_ok": audit["path_bound_ok"]},
        "embedding": {"scale": emb.scale,
                      "attempts_total": int(emb.attempts.sum()),
                      "attempts_max": int(emb.attempts.max()),
                      "reverified": reverified,
                      "tg_audit": tg_report},
        "gadget": {"vertices": h.n, "M": m_val,
                   "max_degree": h.max_degree(),
                   "psi_audit": asdict(psi_report),
                   "psi_lip_bound": 2 * e_count + m_val,
                   "phi_audit": phi_audit},
    }
    _dump_json(dossier, out / "dossier.json")
    return 0


# --- wiring --------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="netembed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("net", _cmd_net, help="build a net in r*B(X)")
    sp.add_argument("--space", required=True, help="lp:<p|inf>:<dim> or l1sum:<a>+<b>")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--mesh", type=int, default=4)
    sp.add_argument("-o", "--output", default=None)

    sp = add("graph", _cmd_graph, help="build the net graph and audit it")
    sp.add_argument("--net", required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--dot", default=None)

    sp = add("subdivide", _cmd_subdivide, help="replace each edge by a path of M edges")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("-o", "--output", default=None)

    sp = add("gadget", _cmd_gadget, help="build the degree-3 gadget")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("-o", "--output", default=None)

    sp = add("audit-psi", _cmd_audit_psi, help="audit the base-to-gadget map")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--csv", default=None)

    sp = add("audit-phi", _cmd_audit_phi, help="audit the gadget-to-space map")
    sp.add_argument("--embedding", required=True)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pair-cap", type=int, default=2000)
    sp.add_argument("-o", "--output", default=None)

    sp = add("embed", _cmd_embed, help="place polyline curves for every edge")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--mode", choices=("strict", "practical"), default="practical")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--retry-cap", type=int, default=None)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("-o", "--output", default=None)

    sp = add("audit-tg", _cmd_audit_tg, help="distortion audit of the embedding")
    sp.add_argument("--embedding", required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", default=None)

    sp = add("montecarlo", _cmd_montecarlo, help="suitable-breakpoint fraction")
    sp.add_argument("--embedding", required=True)
    sp.add_argument("--edge", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", default=None)

    sp = add("classify", _cmd_classify, help="path / complete / neither")
    sp.add_argument("--graph", required=True)
    sp.add_argument("-o", "--output", default=None)

    sp = add("pipeline", _cmd_pipeline, help="net -> graph -> embed -> gadget -> dossier")
    sp.add_argument("--space", required=True)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--mesh", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mode", choices=("strict", "practical"), default="practical")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--pair-cap", type=int, default=2000)
    sp.add_argument("--out", default="netembed-run")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValidationError as exc:
        json.dump({"error": {"type": "validation", "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # runtime failures: placement, consistency, I/O
        json.dump({"error": {"type": "runtime",
                             "kind": type(exc).__name__, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
