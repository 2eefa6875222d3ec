"""netembed benchmark: two workloads driven through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-l2 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One generator process runs a closed loop with one client: each repeat is a
fresh child interpreter (perfbench/child.py) that imports netembed from
`src/`, runs the workload's set-up commands and then its timed commands
through `netembed.cli.main`, each command starting after the previous one
returns.  Every repeat gives the same seeds, the workload seed among them,
as `--seed`, so artifact digests are compared between repeats; repeats
start (at least two) until the next one would overrun `--seconds`.  The
generator moves each child from CPU to CPU every ROTATE_S seconds, so that
every repeat averages the speeds the host gives each CPU.

With `--trace 0` the end-to-end metrics are printed (medians over repeats).
With `--trace 1` the run makes one untraced repeat, one traced repeat of the
same seed with spans around the stage-level public functions of each module,
and kernel microbenchmarks on the workload's space and largest graph; it
prints the per-layer metrics.  Every repeat's outputs are checked; the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Full reports and spans are written under `.perfbench/`.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# Children are killed so that one invocation ends within this many seconds.
HARD_LIMIT_S = 170
# A child is moved to the next allowed CPU this often.  The host's speed
# varies per vCPU (two loops pinned to the two vCPUs of a 2-vCPU machine sped
# up and slowed down independently, by 15-25% over 0.5-5 s windows), and a
# lone process tends to stay on one vCPU, so an unmoved repeat measures the
# luck of its placement.  Moving it makes every repeat sample each CPU's speed
# for the same share of its time.
ROTATE_S = 0.25
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Workload:
    """CLI commands of one workload; "{seed}" becomes the workload seed.

    `artifacts` names the files the checks and per-layer counts read: the
    net, the net graph, the embedding, the largest graph and, for the
    pipeline, the dossier.
    """

    setup: tuple
    timed: tuple
    artifacts: dict


WORKLOADS = {
    # The one-command dossier of acceptance criterion 9: 153 edges placed,
    # but a 49,572-vertex gadget whose BFS metric rows and JSON dominate.
    "pipeline-l2": Workload(
        setup=(),
        timed=("pipeline --space lp:2:3 --delta 1 --r 2 --seed {seed} "
               "--samples 1000 --out run",),
        artifacts={"net": "run/net.json", "graph": "run/graph.json",
                   "embedding": "run/embedding.json",
                   "largest_graph": "run/gadget.json",
                   "dossier": "run/dossier.json"}),
    # l-infinity has no closed-form kernel: gamma checks fall through the l2
    # screen into the nested ternary search, which dominates placement,
    # re-verification and the read-only Monte Carlo estimate.  The 57-vertex
    # graph makes BFS free.  The placement and Monte Carlo seeds are fixed
    # like the net: how many checks fall through varies so much between seeds
    # (about 30% of the time of a 300-edge prefix, up to 2x for 2000 Monte
    # Carlo samples) that seeded runs of them cannot be timed steadily.  The
    # workload seed drives the audit's samples, whose cost does not depend on
    # where they fall.
    "embed-linf": Workload(
        setup=("net --space lp:inf:3 --delta 1 --r 2 -o net.json",
               "graph --net net.json -o graph.json"),
        timed=("embed --graph graph.json --seed 0 --limit 300 -o embedding.json",
               "audit-tg --embedding embedding.json --samples 10000 --seed {seed} "
               "-o tg.json",
               "montecarlo --embedding embedding.json --edge 100 --samples 2000 "
               "--seed 0 -o mc.json"),
        artifacts={"net": "net.json", "graph": "graph.json",
                   "embedding": "embedding.json", "largest_graph": "graph.json"}),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spaces.seg_seg_ms": "ms", "spaces.point_seg_us": "us",
    "spaces.norms_ns_per_row": "ns", "spaces.sample_one_us": "us",
    "graphs.bfs_row_ms": "ms", "graphs.audit_pairs": "count",
    "embeddings.place_s": "s", "embeddings.place_ms_per_edge": "ms",
    "embeddings.edges": "count", "embeddings.attempts": "count",
    "embeddings.accept_ratio": "edges/attempt", "embeddings.verify_s": "s",
    "embeddings.audit_tg_s": "s",
    "nets.build_s": "s", "nets.points": "count",
    "net_graphs.build_s": "s", "net_graphs.audit_s": "s",
    "net_graphs.edges": "count",
    "cli.json_dump_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_frac": "fraction", "trace.coverage": "fraction",
}
# Per-layer figures of stages that only some workloads run.  They are in the
# printed report and the saved trace, not in the result line, which carries
# the same metrics for every workload.
STAGE_ONLY = {
    "embeddings.montecarlo_s": ("s", "embeddings.estimate_suitable_fraction"),
    "embeddings.mg_positions_s": ("s", "embeddings.mg_positions"),
    "gadgets.build_s": ("s", "gadgets.build_gadget"),
    "gadgets.audit_psi_s": ("s", "gadgets.audit_anchor_map"),
    "gadgets.audit_phi_s": ("s", "gadgets.audit_product_map"),
    "cli.json_load_s": ("s", "cli.json_load"),
}


# --- output checks -----------------------------------------------------------

def _option(argv, *names):
    for i, arg in enumerate(argv[:-1]):
        if arg in names:
            return argv[i + 1]
    return None


def outputs(argv):
    """Files a CLI command writes, relative to its working directory."""
    out_dir = _option(argv, "--out")
    if out_dir is not None:
        return [f"{out_dir}/{name}" for name in
                ("net.json", "graph.json", "embedding.json", "gadget.json",
                 "dossier.json")]
    return [_option(argv, "-o", "--output")]


def _load(workdir, name):
    with open(workdir / name, encoding="utf-8") as fh:
        return json.load(fh)


def _tg_problems(tg, gamma):
    problems = []
    if tg["lip_forward"] > 4.0:
        problems.append(f"TG lip_forward {tg['lip_forward']} > 4")
    if tg["lip_inverse"] > 1.0 + 6.0 / gamma:
        problems.append(f"TG lip_inverse {tg['lip_inverse']} > 1+6/gamma")
    return problems


def _identity_problems(report):
    if report["distortion"] > 3.0 * (1 + 1e-12):
        return [f"identity distortion {report['distortion']} > 3"]
    return []


def check_command(argv, workdir):
    """Problems found in one command's outputs; empty when they are correct."""
    cmd, out = argv[0], outputs(argv)[0]
    if cmd == "net":
        return [] if _load(workdir, out)["points"] else ["net has no points"]
    if cmd == "graph":
        return _identity_problems(_load(workdir, out)["audit"]["identity"])
    if cmd == "embed":
        emb = _load(workdir, out)
        graph_edges = len(_load(workdir, _option(argv, "--graph"))["edges"])
        limit = _option(argv, "--limit")
        want = graph_edges if limit is None else min(int(limit), graph_edges)
        if len(emb["edges"]) != want:
            return [f"embedding has {len(emb['edges'])} edges, want {want}"]
        return []
    if cmd == "audit-tg":
        tg = _load(workdir, out)
        problems = [] if tg["reverified"] else ["reverified: false"]
        return problems + _tg_problems(tg, tg["params"]["gamma"])
    if cmd == "montecarlo":
        mc = _load(workdir, out)
        if not 0.0 <= mc["ci_low"] <= mc["fraction"] <= mc["ci_high"] <= 1.0:
            return [f"montecarlo CI [{mc['ci_low']}, {mc['ci_high']}] "
                    f"around {mc['fraction']} is outside [0, 1]"]
        return []
    if cmd == "pipeline":
        dossier = _load(workdir, _option(argv, "--out") + "/dossier.json")
        emb, gadget = dossier["embedding"], dossier["gadget"]
        problems = _identity_problems(dossier["graph"]["identity_audit"])
        if not emb["reverified"]:
            problems.append("reverified: false")
        problems += _tg_problems(emb["tg_audit"], dossier["config"]["params"]["gamma"])
        if gadget["max_degree"] > 3:
            problems.append(f"gadget degree {gadget['max_degree']} > 3")
        if not (gadget["phi_audit"]["forward_ok"] and gadget["phi_audit"]["inverse_ok"]):
            problems.append("phi audit bound violated")
        return problems
    raise ValueError(f"no output check for command {cmd!r}")


def digest(argv, workdir):
    h = hashlib.sha256()
    for name in outputs(argv):
        h.update(name.encode())
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


class Tally:
    """Attempted and failed CLI commands, with the artifact digests of each
    command line; repeats of one invocation must reproduce them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, argv, rc, workdir, stderr=""):
        self.attempted += 1
        problems = [f"exit code {rc}: {stderr.strip()[-300:]}"] if rc != 0 else []
        if rc == 0:
            try:
                problems += check_command(argv, workdir)
                now = digest(argv, workdir)
                if self.digests.setdefault(" ".join(argv), now) != now:
                    problems.append("artifact digest differs from an earlier repeat")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.append({"command": " ".join(argv), "problems": problems})


# --- repeats -----------------------------------------------------------------

@dataclass
class Repeat:
    workdir: Path
    duration: float
    result: dict

    @property
    def wall_s(self):
        return sum(c["seconds"] for c in self.result["timed"])


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def run_child(args, hard_deadline):
    """Run a child interpreter, moving it to the next allowed CPU every
    ROTATE_S seconds; return (exit code, stderr).  At `hard_deadline`, or
    when the generator is interrupted, the child is killed and reaped and
    the exception (subprocess.TimeoutExpired at the deadline) propagates."""
    cpus = sorted(os.sched_getaffinity(0))
    with subprocess.Popen([sys.executable, *map(str, args)], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            for turn in itertools.count():
                if len(cpus) > 1:
                    try:
                        os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                    except OSError:  # the child has just exited
                        pass
                try:
                    _, stderr = proc.communicate(
                        timeout=max(0.01, min(ROTATE_S, hard_deadline - clock())))
                    return proc.returncode, stderr
                except subprocess.TimeoutExpired:
                    if clock() >= hard_deadline:
                        raise
        except BaseException:
            proc.kill()
            proc.communicate()
            raise


def _argvs(commands, seed):
    return [cmd.format(seed=seed).split() for cmd in commands]


def run_repeat(workload, seed, workdir, trace, tally, hard_deadline):
    """One child interpreter running the workload's commands with `seed`."""
    workdir.mkdir(parents=True)
    setup, timed = _argvs(workload.setup, seed), _argvs(workload.timed, seed)
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"workdir": str(workdir), "setup": setup,
                                "timed": timed, "trace": trace}))
    t0 = clock()
    try:
        rc, stderr = run_child([HERE / "child.py", spec, repr(t0)], hard_deadline)
        if rc != 0:
            stderr = f"child exited {rc}: {stderr}"
    except subprocess.TimeoutExpired:
        stderr = "child killed at the time limit"
    duration = clock() - t0
    try:
        result = json.loads((workdir / "result.json").read_text())
    except (OSError, ValueError):
        result = {"setup": [{"argv": a, "rc": -1} for a in setup], "setup_s": duration,
                  "timed": [{"argv": a, "rc": -1, "seconds": duration} for a in timed],
                  "peak_rss_kb": 0}
    for cmd in result["setup"] + result["timed"]:
        tally.record(cmd["argv"], cmd["rc"], workdir, stderr)
    return Repeat(workdir, duration, result)


def measure(workload, seed, seconds, base, tally, hard_deadline):
    """Untraced repeats, at least two, until the next would overrun `seconds`."""
    deadline = clock() + seconds
    repeats = []
    while len(repeats) < 2 or \
            clock() + statistics.mean(r.duration for r in repeats) <= deadline:
        repeats.append(run_repeat(workload, seed, base / f"r{len(repeats)}",
                                  False, tally, hard_deadline))
    return repeats


def end_to_end_metrics(repeats):
    med = statistics.median
    return {"wall_s": med(r.wall_s for r in repeats),
            "setup_s": med(r.result["setup_s"] for r in repeats),
            "peak_rss_mb": med(r.result["peak_rss_kb"] / 1024 for r in repeats)}


def command_figures(repeats):
    """Per-command figures of the staged workloads, for the printed report."""
    med = statistics.median
    out = {}
    for k, cmd in enumerate(repeats[0].result["timed"]):
        argv = cmd["argv"]
        secs = med(r.result["timed"][k]["seconds"] for r in repeats)
        if argv[0] == "embed":
            edges = len(_load(repeats[0].workdir, outputs(argv)[0])["edges"])
            out["embed_edges_per_s"] = (edges / secs, "edges/s")
        elif argv[0] == "audit-tg":
            out["audit_tg_s"] = (secs, "s")
        elif argv[0] == "montecarlo":
            out["mc_samples_per_s"] = (int(_option(argv, "--samples")) / secs,
                                       "samples/s")
    return out


# --- traced run ----------------------------------------------------------------

def span_tables(spans):
    """Total and self time by span name; self time is the span's duration
    minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total, self_time = {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time[i]
    return total, self_time


def per_layer_metrics(workload, ref, traced, micro, spans):
    total, self_time = span_tables(spans)
    t = total.get
    wd = traced.workdir
    art = workload.artifacts
    emb = _load(wd, art["embedding"])
    edges = len(emb["edges"])
    attempts = sum(e["attempts"] for e in emb["edges"])
    graph = _load(wd, art["graph"])
    pairs = graph["audit"]["identity"]["pairs_checked"]
    if "dossier" in art:
        gadget = _load(wd, art["dossier"])["gadget"]
        pairs += gadget["psi_audit"]["pairs_checked"] + \
            gadget["phi_audit"]["report"]["pairs_checked"]
    # Coverage is taken within the traced repeat, so machine noise between
    # repeats does not enter it: the share of the timed commands' time spent
    # in the spans directly below them, i.e. in the traced functions.
    timed_roots = {i for i, s in enumerate(spans)
                   if s[3] is None and str(s[4]).startswith("timed")}
    covered = sum(s[2] - s[1] for s in spans if s[3] in timed_roots)
    commands = sum(spans[i][2] - spans[i][1] for i in timed_roots)
    written = [name for c in traced.result["setup"] + traced.result["timed"]
               for name in outputs(c["argv"])]
    place_s = t("embeddings.place_edges", 0.0)
    metrics = {
        "graphs.audit_pairs": pairs,
        "embeddings.place_s": place_s,
        "embeddings.place_ms_per_edge": place_s * 1e3 / edges,
        "embeddings.edges": edges,
        "embeddings.attempts": attempts,
        "embeddings.accept_ratio": edges / attempts,
        "embeddings.verify_s": t("embeddings.verify_embedding", 0.0),
        "embeddings.audit_tg_s": t("embeddings.audit_tg", 0.0),
        "nets.build_s": t("nets.build_net", 0.0),
        "nets.points": len(_load(wd, art["net"])["points"]),
        "net_graphs.build_s": t("net_graphs.net_graph_from_net", 0.0),
        "net_graphs.audit_s": t("net_graphs.audit_identity_embedding", 0.0)
        + t("net_graphs.verify_path_bound", 0.0),
        "net_graphs.edges": len(graph["edges"]),
        "cli.json_dump_s": t("cli.json_dump", 0.0),
        "cli.artifact_bytes": sum((wd / name).stat().st_size for name in written),
        "trace.overhead_frac": traced.wall_s / ref.wall_s - 1.0,
        "trace.coverage": covered / commands,
    }
    metrics.update({name: entry["value"] for name, entry in micro.items()})
    extra = {name: (total[span], unit) for name, (unit, span) in STAGE_ONLY.items()
             if span in total}
    if "dossier" in art:
        extra["gadgets.vertices"] = (_load(wd, art["dossier"])["gadget"]["vertices"],
                                     "count")
    modules = {}
    for name, secs in self_time.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + secs
    extra.update({f"{m}.self_s": (secs, "s") for m, secs in sorted(modules.items())})
    extra.update({f"{name}.ops": (entry["ops"], "count") for name, entry in micro.items()})
    return metrics, extra, total, self_time


def run_micro(workload, seed, workdir, tally, hard_deadline):
    spec = workdir / "micro_spec.json"
    spec.write_text(json.dumps({"mode": "micro", "workdir": str(workdir), "seed": seed,
                                "net_graph": workload.artifacts["graph"],
                                "largest_graph": workload.artifacts["largest_graph"]}))
    tally.attempted += 1
    try:
        rc, stderr = run_child([HERE / "child.py", spec], hard_deadline)
        if rc == 0:
            return json.loads((workdir / "micro.json").read_text())
        problem = f"microbenchmarks exited {rc}: {stderr[-300:]}"
    except subprocess.TimeoutExpired:
        problem = "microbenchmarks killed at the time limit"
    tally.failed += 1
    tally.problems.append({"command": "microbenchmarks", "problems": [problem]})
    return None


def measure_traced(workload, seed, base, tally, hard_deadline):
    """One untraced and one traced repeat of the same seed, then kernels."""
    ref = run_repeat(workload, seed, base / "untraced", False, tally, hard_deadline)
    traced = run_repeat(workload, seed, base / "traced", True, tally, hard_deadline)
    micro = run_micro(workload, seed, traced.workdir, tally, hard_deadline)
    try:
        spans = json.loads((traced.workdir / "spans.json").read_text())
    except (OSError, ValueError):
        spans = None
    if micro is None or spans is None or tally.failed:
        return None, {}, [], ref, traced
    metrics, extra, total, self_time = per_layer_metrics(workload, ref, traced,
                                                         micro, spans)
    trace = {"spans": spans, "total_s": total, "self_s": self_time}
    return metrics, extra, trace, ref, traced


# --- reporting ---------------------------------------------------------------

def environment():
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "netembed").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: child_env()[var] for var in BLAS_VARS},
            "loadavg_start": os.getloadavg()}


def run_workload(name, workload, seed, seconds, trace):
    """Measure one workload; print its report; return the result object."""
    hard_deadline = clock() + HARD_LIMIT_S
    env = environment()
    base = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(base, ignore_errors=True)
    tally = Tally()
    extra, trace_out, repeats = {}, None, []
    try:
        if trace:
            metrics, extra, trace_out, ref, traced = measure_traced(workload, seed, base, tally,
                                                                    hard_deadline)
            repeats = [ref, traced]
            units = PER_LAYER
        else:
            repeats = measure(workload, seed, seconds, base, tally, hard_deadline)
            metrics = end_to_end_metrics(repeats)
            if not tally.failed:
                extra = command_figures(repeats)
            units = END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    extra["failed_frac"] = (tally.failed / max(tally.attempted, 1), "failed/attempted")

    print(f"perfbench workload={name} seed={seed} trace={int(trace)} "
          f"repeats={len(repeats)}")
    print("env " + json.dumps(env))
    for problem in tally.problems:
        print("FAILED " + json.dumps(problem))
    result_metrics = {}
    if metrics is not None:
        for metric, unit in units.items():
            result_metrics[metric] = {"value": metrics[metric], "unit": unit}
            print(f"metric {metric} {metrics[metric]!r} {unit}")
    for metric, (value, unit) in extra.items():
        print(f"metric {metric} {value!r} {unit}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": result_metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    report = {"workload": name, "seed": seed, "env": env, "result": result,
              "extra": extra, "problems": tally.problems,
              "repeats": [{"duration_s": r.duration, **r.result}
                          for r in repeats]}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if trace_out:
        Path(f"{stem}-spans.json").write_text(json.dumps(trace_out))
    return result


def _terminate(signum, frame):
    # Unwind on SIGTERM as on Ctrl-C, so that the running child is killed and
    # reaped and the work directory removed.
    raise SystemExit(128 + signum)


def main(argv=None, workloads=WORKLOADS):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netembed" / "cli.py").is_file():
        print(f"perfbench: no netembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, workloads[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                             for metric, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
