"""Command-line front end: net -> graph -> subdivide/gadget -> embed ->
audit -> classify, with seeded reproducibility and JSON/CSV/DOT reports.

Exit codes: 0 success, 2 validation error (bad arguments, malformed input
files, parameters out of range), 3 runtime failure (placement retry cap,
internal consistency, I/O).  Errors are reported as structured JSON on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ValidationError


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _dump_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


def _load_graph(path):
    from .graphs import graph_from_json
    from .net_graphs import net_graph_from_json
    obj = _load_json(path, "graph")
    if "net" in obj:
        return net_graph_from_json(obj)
    return graph_from_json(obj)


def _rng(seed, stream=0):
    import numpy as np
    return np.random.default_rng([int(seed), int(stream)])


# --- subcommand bodies -------------------------------------------------------

def _cmd_net(args):
    from .nets import build_net, net_to_json
    from .spaces import parse_space
    space = parse_space(args.space)
    net = build_net(space, args.delta, args.r, args.mesh)
    _dump_json(net_to_json(net), args.output)
    return 0


def _cmd_graph(args):
    from .graphs import graph_to_dot, max_degree
    from .net_graphs import (audit_identity_embedding, degree_bound,
                             net_graph_from_net, net_graph_to_json,
                             verify_path_bound)
    from .nets import net_from_json
    net = net_from_json(_load_json(args.net, "net"))
    ng = net_graph_from_net(net)
    obj = net_graph_to_json(ng)
    pb = verify_path_bound(ng)
    obj["audit"] = {
        "identity": audit_identity_embedding(ng).to_json() if net.size > 1 else None,
        "path_bound_ok": pb.ok,
        "max_forward_ratio": pb.max_forward_ratio,
        "max_degree": max_degree(ng.graph),
        "degree_bound": degree_bound(ng),
    }
    _dump_json(obj, args.output)
    if args.dot:
        Path(args.dot).write_text(graph_to_dot(ng.graph), encoding="utf-8")
    return 0


def _cmd_subdivide(args):
    from .gadgets import edges_to_json, subdivide
    g = _graph_of(_load_graph(args.graph))
    sub = subdivide(g, args.M)
    obj = edges_to_json(sub.n, sub.edge_ends())
    obj["M"] = sub.M
    obj["base_n"] = sub.base.n
    obj["edge_order"] = [[u, v] for u, v in sub.edge_list]
    _dump_json(obj, args.output)
    return 0


def _graph_of(loaded):
    from .net_graphs import NetGraph
    return loaded.graph if isinstance(loaded, NetGraph) else loaded


def _cmd_gadget(args):
    from .gadgets import build_gadget, gadget_to_json
    g = _graph_of(_load_graph(args.graph))
    h = build_gadget(g, args.M)
    _dump_json(gadget_to_json(h), args.output)
    return 0


def _cmd_audit_psi(args):
    from .gadgets import anchor_map, audit_anchor_map, build_gadget
    from .graphs import FiniteMetric, write_audit_csv
    g = _graph_of(_load_graph(args.graph))
    h = build_gadget(g, args.M)
    report = audit_anchor_map(h)
    obj = {"report": report.to_json(), "M": h.M, "edges": len(h.edge_list),
           "psi_anchor": h.psi_anchor,
           "max_degree_H": h.max_degree(),
           "lip_bound": 2 * len(h.edge_list) + h.M,
           "lip_inverse_bound": 1.0 / h.M}
    _dump_json(obj, args.output)
    if args.csv:
        write_audit_csv(args.csv, FiniteMetric.from_graph(g), h.hop_metric(),
                        anchor_map(h))
    return 0


def _cmd_audit_phi(args):
    from .embeddings import embedding_from_json, mg_positions
    from .gadgets import audit_product_map, build_gadget
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    g = emb.netgraph.graph
    m_val = args.M if args.M is not None else 2 * g.edge_count + 1
    sub, pos = mg_positions(emb, m_val)
    h = build_gadget(g, m_val)
    pa = audit_product_map(h, pos, emb.space, pair_cap=args.pair_cap,
                           rng=_rng(args.seed, 3))
    obj = pa.to_json()
    obj["M"] = m_val
    obj["params"] = emb.params.to_json()
    _dump_json(obj, args.output)
    return 0


def _cmd_embed(args):
    from .embeddings import (EmbedParams, default_strict_params,
                             embedding_to_json, place_edges, practical_params)
    from .net_graphs import NetGraph
    loaded = _load_graph(args.graph)
    if not isinstance(loaded, NetGraph):
        raise ValidationError("embed needs a net-graph JSON (produced by `graph`)")
    space = loaded.space
    if args.mode == "strict":
        params = default_strict_params(space.dim, seed=args.seed)
    else:
        params = practical_params(beta=args.beta, seed=args.seed)
    overrides = {}
    for name in ("alpha", "gamma", "mu"):
        val = getattr(args, name)
        if val is not None:
            overrides[name] = val
    if args.retry_cap is not None:
        overrides["retry_cap"] = args.retry_cap
    if overrides:
        params = EmbedParams(**{**params.to_json(), **overrides})
    emb = place_edges(space, loaded, params, _rng(args.seed, 1),
                      edge_limit=args.limit)
    _dump_json(embedding_to_json(emb), args.output)
    return 0


def _cmd_audit_tg(args):
    from .embeddings import audit_tg, embedding_from_json, verify_embedding
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    report = audit_tg(emb, args.samples, _rng(args.seed, 2))
    obj = report.to_json()
    obj["reverified"] = verify_embedding(emb)["ok"]
    obj["params"] = emb.params.to_json()
    obj["samples_requested"] = args.samples
    obj["seed"] = args.seed
    _dump_json(obj, args.output)
    return 0


def _cmd_montecarlo(args):
    from .embeddings import embedding_from_json, estimate_suitable_fraction
    emb = embedding_from_json(_load_json(args.embedding, "embedding"))
    est = estimate_suitable_fraction(emb, args.edge, args.samples,
                                     _rng(args.seed, 4))
    obj = est.to_json()
    obj["params"] = emb.params.to_json()
    obj["edge"] = args.edge
    obj["seed"] = args.seed
    _dump_json(obj, args.output)
    return 0


def _cmd_classify(args):
    from .classify import classify
    g = _graph_of(_load_graph(args.graph))
    _dump_json(classify(g).to_json(), args.output)
    return 0


def _cmd_pipeline(args):
    from .embeddings import (audit_tg, default_strict_params, embedding_to_json,
                             mg_positions, place_edges, practical_params,
                             verify_embedding)
    from .gadgets import (audit_anchor_map, audit_product_map, build_gadget,
                          gadget_to_json)
    from .graphs import max_degree
    from .net_graphs import (audit_identity_embedding, build_net_graph,
                             degree_bound, net_graph_to_json, verify_path_bound)
    from .nets import net_to_json
    from .spaces import parse_space

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    space = parse_space(args.space)
    ng = build_net_graph(space, args.delta, args.r, args.mesh)
    _dump_json(net_to_json(ng.net), out / "net.json")

    identity = audit_identity_embedding(ng)
    pb = verify_path_bound(ng)
    gobj = net_graph_to_json(ng)
    gobj["audit"] = {"identity": identity.to_json(), "path_bound_ok": pb.ok,
                     "max_degree": max_degree(ng.graph),
                     "degree_bound": degree_bound(ng)}
    _dump_json(gobj, out / "graph.json")

    if args.mode == "strict":
        params = default_strict_params(space.dim, seed=args.seed)
    else:
        params = practical_params(beta=args.beta, seed=args.seed)
    emb = place_edges(space, ng, params, _rng(args.seed, 1))
    _dump_json(embedding_to_json(emb), out / "embedding.json")
    reverify = verify_embedding(emb)
    tg_report = audit_tg(emb, args.samples, _rng(args.seed, 2))

    g_unit = emb.netgraph.graph
    e_count = g_unit.edge_count
    m_val = 2 * e_count + 1
    h = build_gadget(g_unit, m_val)
    _dump_json(gadget_to_json(h), out / "gadget.json")
    psi_report = audit_anchor_map(h)
    sub, pos = mg_positions(emb, m_val)
    phi_audit = audit_product_map(h, pos, space, pair_cap=args.pair_cap,
                                  rng=_rng(args.seed, 3))

    dossier = {
        "config": {"space": args.space, "delta": args.delta, "r": args.r,
                   "mesh": args.mesh, "seed": args.seed, "mode": args.mode,
                   "M": m_val, "tg_samples": args.samples,
                   "pair_cap": args.pair_cap,
                   "params": params.to_json()},
        "net": {"points": ng.net.size, "rho": ng.net.rho},
        "graph": {"vertices": ng.graph.n, "edges": ng.graph.edge_count,
                  "edge_threshold": ng.edge_threshold,
                  "max_degree": max_degree(ng.graph),
                  "degree_bound": degree_bound(ng),
                  "identity_audit": identity.to_json(),
                  "path_bound_ok": pb.ok},
        "embedding": {"scale": emb.scale,
                      "attempts_total": int(emb.attempts.sum()),
                      "attempts_max": int(emb.attempts.max()),
                      "reverified": reverify["ok"],
                      "tg_audit": tg_report.to_json()},
        "gadget": {"vertices": h.n, "M": m_val,
                   "max_degree": h.max_degree(),
                   "psi_audit": psi_report.to_json(),
                   "psi_lip_bound": 2 * e_count + m_val,
                   "phi_audit": phi_audit.to_json()},
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
    sp.add_argument("--beta", type=float, default=0.02)
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
    sp.add_argument("--beta", type=float, default=0.02)
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
