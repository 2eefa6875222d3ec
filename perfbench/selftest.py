"""Self-test of the benchmark on tiny configurations (well under a minute).

Usage, from the repository root:  python3 perfbench/selftest.py

It checks that both modes print every metric listed in BENCHMARK.json with
its unit and report no failure on the current code, and that a corrupted
copy of an artifact makes the output checks raise failed_frac above 0.
"""

import contextlib
import io
import json
import shutil

import run

TINY = {
    "tiny-pipeline": run.Workload(
        setup=(),
        timed=("pipeline --space lp:2:3 --delta 1 --r 1.44 --seed {seed} "
               "--samples 200 --pair-cap 100 --out run",),
        artifacts=run.WORKLOADS["pipeline-l2"].artifacts),
    "tiny-embed": run.Workload(
        setup=("net --space lp:inf:3 --delta 1 --r 1.5 -o net.json",
               "graph --net net.json -o graph.json"),
        timed=("embed --graph graph.json --seed {seed} --limit 30 -o embedding.json",
               "audit-tg --embedding embedding.json --samples 200 --seed {seed} "
               "-o tg.json",
               "montecarlo --embedding embedding.json --edge 3 --samples 200 "
               "--seed {seed} -o mc.json"),
        artifacts=run.WORKLOADS["embed-linf"].artifacts),
}


def printed_metrics(argv):
    """Run the benchmark; return the printed `metric` lines and the result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv, workloads=TINY) == 0
    lines = out.getvalue().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _value, unit = line.split(" ")
            printed[name] = unit
    return printed, json.loads(lines[-1])


def check_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for name in TINY:
            printed, result = printed_metrics(
                ["--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            assert set(result["metrics"]) == {m["name"] for m in listed}, result
            for metric in listed:
                assert printed.get(metric["name"]) == metric["unit"], (name, metric)
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"], (name, metric, entry)
            print(f"ok: {name} trace={trace} prints all {len(listed)} metrics")


def check_corruption_fails():
    workload = TINY["tiny-embed"]
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        tally = run.Tally()
        rep = run.run_repeat(workload, 5, base / "good", False, tally,
                             run.clock() + run.HARD_LIMIT_S)
        assert tally.failed == 0, tally.problems
        for name, corrupt in (("tg.json", _unverify), ("embedding.json", _nudge)):
            copy = base / f"bad-{name}"
            shutil.copytree(rep.workdir, copy)
            path = copy / name
            path.write_text(corrupt(path.read_text()))
            before = tally.failed
            for cmd in rep.result["timed"]:
                tally.record(cmd["argv"], cmd["rc"], copy)
            assert tally.failed > before, f"corrupted {name} was not caught"
            print(f"ok: corrupted {name} raises failed_frac to "
                  f"{tally.failed / tally.attempted:.3f}")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _unverify(text):
    obj = json.loads(text)
    obj["reverified"] = False
    return json.dumps(obj)


def _nudge(text):
    obj = json.loads(text)
    obj["edges"][0]["w"][0] += 1e-6
    return json.dumps(obj)


if __name__ == "__main__":
    check_metrics_printed()
    check_corruption_fails()
    print("selftest passed")
