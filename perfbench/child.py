"""One benchmark repeat in a fresh interpreter.

Usage: python3 child.py SPEC.json [SPAWN_TIME]

SPEC holds the work directory, the CLI argument lists to run as set-up and
as timed commands, and whether to trace; SPAWN_TIME is the monotonic clock
reading taken just before this process was spawned.  The repeat imports netembed,
runs the set-up commands, then the timed commands, each through
`netembed.cli.main`, one after another.  It writes `result.json` (exit codes,
times, peak RSS) and, when traced, `spans.json` into the work directory.

With `"mode": "micro"` it instead times the public `spaces` kernels and
`graphs.bfs_from` on the space and the largest graph of artifacts that an
earlier repeat left in the work directory.

Times come from CLOCK_MONOTONIC, which is shared by all processes of one
machine, so the parent's spawn time and this process's readings compare.
"""

import functools
import json
import os
import resource
import statistics
import sys
import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Stage-level public functions wrapped by spans in a traced repeat, by module.
# The hot kernels that these call millions of times (norms, the segment
# distances, the placement predicates, ball sampling) are not wrapped: a span
# per call would dominate their cost.  They are timed by the microbenchmarks.
TRACED = {
    "spaces": ("parse_space",),
    "nets": ("build_net", "net_to_json", "net_from_json"),
    "net_graphs": ("build_net_graph", "net_graph_from_net",
                   "audit_identity_embedding", "verify_path_bound",
                   "net_graph_to_json", "net_graph_from_json"),
    "graphs": ("bfs_from", "bfs_apsp", "audit", "from_edges", "graph_to_json",
               "graph_from_json", "max_degree"),
    "gadgets": ("subdivide", "build_gadget", "audit_anchor_map",
                "product_positions", "audit_product_map", "gadget_to_json"),
    "embeddings": ("place_edges", "verify_embedding", "audit_tg",
                   "estimate_suitable_fraction", "mg_positions",
                   "embedding_to_json", "embedding_from_json"),
    "cli": ("_load_json", "_dump_json"),
}
SPAN_NAMES = {"cli._load_json": "cli.json_load", "cli._dump_json": "cli.json_dump"}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, clock(), None, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = clock()

    def install(self):
        """Replace each traced function in every netembed namespace that
        binds it, so calls between modules are traced too.  Names missing
        from the code are skipped; trace coverage then shows the gap."""
        import importlib
        mods = {name: importlib.import_module(f"netembed.{name}") for name in TRACED}
        namespaces = list(mods.values()) + [sys.modules["netembed"]]
        for mod_name, names in TRACED.items():
            for fn_name in names:
                fn = getattr(mods[mod_name], fn_name, None)
                if fn is None:
                    continue
                span_name = f"{mod_name}.{fn_name}"
                wrapper = self.wrap(SPAN_NAMES.get(span_name, span_name), fn)
                for ns in namespaces:
                    if getattr(ns, fn_name, None) is fn:
                        setattr(ns, fn_name, wrapper)


def run_commands(spec, spawn_time):
    os.chdir(spec["workdir"])
    from netembed.cli import main
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    def run(argv, run_id):
        t0 = clock()
        if tracer:
            tracer.run_id = run_id
            rc = tracer.wrap(f"cli.{argv[0]}", main)(argv)
        else:
            rc = main(argv)
        return {"argv": argv, "rc": rc, "seconds": clock() - t0}

    setup = [run(argv, f"setup{k}") for k, argv in enumerate(spec["setup"])]
    setup_s = clock() - spawn_time
    timed = [run(argv, f"timed{k}") for k, argv in enumerate(spec["timed"])]
    result = {"setup": setup, "setup_s": setup_s, "timed": timed,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _per_call(fn, calls, repeats):
    """Median over repeats of the wall time per call of `calls` calls of fn."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            fn()
        times.append((clock() - t0) / calls)
    return statistics.median(times), calls * repeats


def run_micro(spec):
    """Kernel microbenchmarks on the workload's space and largest graph.

    Each entry gives the median time per operation and the number of
    operations timed; no rate against a roofline is claimed on a shared CPU.
    Inputs are drawn from the workload seed inside the net's bounding box.
    """
    import numpy as np

    from netembed.graphs import bfs_from, graph_from_json
    from netembed.net_graphs import net_graph_from_json
    from netembed.spaces import (Segment, norms, point_segment_distance,
                                 sample_ball_many, segment_segment_distance)

    os.chdir(spec["workdir"])
    with open(spec["net_graph"], encoding="utf-8") as fh:
        ng = net_graph_from_json(json.load(fh))
    with open(spec["largest_graph"], encoding="utf-8") as fh:
        obj = json.load(fh)
    graph = graph_from_json(obj.get("graph", obj))
    space = ng.space
    rng = np.random.default_rng([spec["seed"], 99])
    half = float(np.max(np.abs(ng.points)))

    def segment():
        return Segment(*rng.uniform(-half, half, size=(2, space.dim)))

    rows = 100_000
    block = rng.uniform(-half, half, size=(rows, space.dim))
    norms(space, block)  # warm-up
    norms_s, norms_n = _per_call(lambda: norms(space, block), 1, 15)

    pairs = iter([(segment(), segment()) for _ in range(5)])
    seg_s, seg_n = _per_call(
        lambda: segment_segment_distance(space, *next(pairs)), 1, 5)

    probes = iter([(rng.uniform(-half, half, size=space.dim), segment())
                   for _ in range(250)])
    point_s, point_n = _per_call(
        lambda: point_segment_distance(space, *next(probes)), 50, 5)

    center = rng.uniform(-half, half, size=space.dim)
    sample_s, sample_n = _per_call(
        lambda: sample_ball_many(space, center, 1.0, 1, rng), 1000, 5)

    bfs_from(graph, 0)  # warm-up: builds the CSR arrays
    sources = iter(rng.choice(graph.n, size=min(7, graph.n), replace=False).tolist())
    bfs_s, bfs_n = _per_call(lambda: bfs_from(graph, next(sources)), 1,
                             min(7, graph.n))

    result = {
        "spaces.norms_ns_per_row": {"value": norms_s / rows * 1e9, "unit": "ns",
                                    "ops": norms_n * rows},
        "spaces.seg_seg_ms": {"value": seg_s * 1e3, "unit": "ms", "ops": seg_n},
        "spaces.point_seg_us": {"value": point_s * 1e6, "unit": "us",
                                "ops": point_n},
        "spaces.sample_one_us": {"value": sample_s * 1e6, "unit": "us",
                                 "ops": sample_n},
        "graphs.bfs_row_ms": {"value": bfs_s * 1e3, "unit": "ms", "ops": bfs_n,
                              "vertices": graph.n},
    }
    with open("micro.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        SPEC = json.load(fh)
    if SPEC.get("mode") == "micro":
        run_micro(SPEC)
    else:
        run_commands(SPEC, float(sys.argv[2]))
