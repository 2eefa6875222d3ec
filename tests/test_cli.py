import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import netembed
from netembed import build_gadget, cli, from_edges, gadget_to_json, gadgets, graphs
from netembed.cli import _dump_json, main


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert run_cli("net", "--space", "lp:2:3", "--delta", "1", "--r", "2",
                   "--mesh", "4", "-o", str(d / "net.json")) == 0
    assert run_cli("graph", "--net", str(d / "net.json"),
                   "-o", str(d / "G.json"), "--dot", str(d / "G.dot")) == 0
    return d


class TestSubcommands:
    def test_net_output(self, workdir):
        obj = read(workdir / "net.json")
        assert obj["space"] == {"kind": "lp", "p": 2, "dim": 3}
        assert obj["delta"] == 1.0 and obj["r"] == 2.0
        assert obj["points"][0] == [0.0, 0.0, 0.0]

    def test_graph_output_carries_audit(self, workdir):
        obj = read(workdir / "G.json")
        assert obj["edge_threshold"] == pytest.approx(3 * obj["net"]["rho"])
        assert obj["audit"]["identity"]["distortion"] <= 3.0 + 1e-9
        assert obj["audit"]["path_bound_ok"]
        assert (workdir / "G.dot").read_text().startswith("graph G {")

    def test_subdivide(self, workdir, tmp_path):
        out = tmp_path / "MG.json"
        assert run_cli("subdivide", "--graph", str(workdir / "G.json"),
                       "--M", "3", "-o", str(out)) == 0
        obj = read(out)
        g = read(workdir / "G.json")
        assert obj["n"] == g["n"] + 2 * len(g["edges"])

    def test_gadget_and_audit_psi(self, workdir, tmp_path):
        h_path = tmp_path / "H.json"
        assert run_cli("gadget", "--graph", str(workdir / "G.json"),
                       "--M", "12", "-o", str(h_path)) == 0
        h = read(h_path)
        assert h["M"] == 12
        rep_path = tmp_path / "psi.json"
        csv_path = tmp_path / "psi.csv"
        assert run_cli("audit-psi", "--graph", str(workdir / "G.json"),
                       "--M", "12", "-o", str(rep_path),
                       "--csv", str(csv_path)) == 0
        rep = read(rep_path)
        assert rep["max_degree_H"] <= 3
        assert rep["report"]["lip_forward"] <= rep["lip_bound"]
        header = csv_path.read_text().splitlines()[0]
        assert header == "pair_u,pair_v,d_source,d_target,ratio"

    @pytest.mark.parametrize("base", ["C5", "K4"])
    def test_audit_psi_csv_against_networkx(self, base, tmp_path):
        # every CSV row against distances computed apart from netembed's metrics
        nx = pytest.importorskip("networkx")
        from netembed import anchor_map, build_gadget, from_edges
        gx = nx.cycle_graph(5) if base == "C5" else nx.complete_graph(4)
        n, edges = gx.number_of_nodes(), sorted(tuple(sorted(e)) for e in gx.edges)
        m_val = 2 * len(edges) + 1
        g_path, csv_path = tmp_path / "g.json", tmp_path / "psi.csv"
        g_path.write_text(json.dumps({"n": n, "edges": edges}))
        assert run_cli("audit-psi", "--graph", str(g_path), "--M", str(m_val),
                       "-o", str(tmp_path / "psi.json"), "--csv", str(csv_path)) == 0
        h = build_gadget(from_edges(n, edges), m_val)
        anchors = anchor_map(h).tolist()
        hx = nx.Graph(h.graph.ends.tolist())
        d_g = dict(nx.all_pairs_shortest_path_length(gx))
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + n * (n - 1) // 2
        for line in lines[1:]:
            u, v, d_source, d_target, ratio = line.split(",")
            u, v, d_source, d_target = int(u), int(v), float(d_source), float(d_target)
            assert d_source == d_g[u][v]
            assert d_target == nx.shortest_path_length(hx, anchors[u], anchors[v])
            assert float(ratio) == d_target / d_source

    def test_embed_audit_tg_montecarlo_phi(self, workdir, tmp_path):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", "--graph", str(workdir / "G.json"),
                       "--mode", "practical", "--seed", "5",
                       "-o", str(emb_path)) == 0
        emb = read(emb_path)
        assert all(e["attempts"] >= 1 for e in emb["edges"])

        tg_path = tmp_path / "tg.json"
        assert run_cli("audit-tg", "--embedding", str(emb_path),
                       "--samples", "500", "-o", str(tg_path)) == 0
        rep = read(tg_path)
        assert rep["forward_ok"] and rep["inverse_ok"] and rep["reverified"]
        assert rep["forward_bound"] == 4.0  # max(4, 3 + 2*mu) at the default mu 0.25

        mc_path = tmp_path / "mc.json"
        assert run_cli("montecarlo", "--embedding", str(emb_path),
                       "--edge", "1", "--samples", "400",
                       "-o", str(mc_path)) == 0
        mc = read(mc_path)
        assert 0.0 <= mc["fraction"] <= 1.0 and mc["samples"] == 400

        phi_path = tmp_path / "phi.json"
        assert run_cli("audit-phi", "--embedding", str(emb_path),
                       "-o", str(phi_path)) == 0
        phi = read(phi_path)
        assert phi["forward_ok"] and phi["inverse_ok"]

    def test_audit_tg_reports_breakpoint_on_an_endpoint(self, workdir, tmp_path):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", "--graph", str(workdir / "G.json"),
                       "--mode", "practical", "--seed", "5", "--limit", "3",
                       "-o", str(emb_path)) == 0
        emb = read(emb_path)
        first = emb["edges"][0]
        first["w"] = emb["net_graph"]["net"]["points"][first["u"]]
        emb_path.write_text(json.dumps(emb))
        tg_path = tmp_path / "tg.json"
        assert run_cli("audit-tg", "--embedding", str(emb_path),
                       "--samples", "100", "-o", str(tg_path)) == 0
        assert read(tg_path)["reverified"] is False

    def test_audit_tg_forward_bound_follows_mu(self, tmp_path):
        # at mu 6 curves run up to 3 + 2*mu = 15 long, and the constant bound 4
        # failed a valid embedding (lip_forward 11.85)
        net, graph, emb, tg = (str(tmp_path / f) for f in
                               ("net.json", "graph.json", "emb.json", "tg.json"))
        assert run_cli("net", "--space", "lp:2:3", "--delta", "1", "--r", "4", "-o", net) == 0
        assert run_cli("graph", "--net", net, "-o", graph) == 0
        assert run_cli("embed", "--graph", graph, "--mu", "6", "--beta", "0.2",
                       "--limit", "600", "--seed", "1", "-o", emb) == 0
        assert run_cli("audit-tg", "--embedding", emb, "--samples", "2000",
                       "--seed", "1", "-o", tg) == 0
        rep = read(Path(tg))
        assert rep["forward_bound"] == 15.0
        assert 4.0 < rep["lip_forward"] <= rep["max_curve_length"] <= rep["forward_bound"]
        assert rep["forward_ok"] and rep["inverse_ok"] and rep["reverified"]

    def test_classify(self, tmp_path):
        c4 = tmp_path / "c4.json"
        c4.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
        out = tmp_path / "verdict.json"
        assert run_cli("classify", "--graph", str(c4), "-o", str(out)) == 0
        assert read(out)["verdict"] == "Neither"


    def test_limited_embed_is_a_prefix_of_the_full_one(self, tmp_path):
        # every edge draws from its own substream, so a limit, which also
        # splits the placement windows at another edge, changes no row
        assert run_cli("net", "--space", "lp:inf:3", "--delta", "1", "--r", "2",
                       "-o", str(tmp_path / "net.json")) == 0
        assert run_cli("graph", "--net", str(tmp_path / "net.json"),
                       "-o", str(tmp_path / "G.json")) == 0

        def embed(*limit):
            out = tmp_path / "emb.json"
            assert run_cli("embed", "--graph", str(tmp_path / "G.json"), "--seed", "0",
                           *limit, "-o", str(out)) == 0
            return read(out)["edges"]

        full = embed()
        for limit in (1, 7, 300):
            assert embed("--limit", str(limit)) == full[:limit]


class TestErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("classify", "--graph", str(bad)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "bad.json" in err["error"]["message"]

    def test_missing_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"edges": [[0, 1]]}))  # no "n"
        assert run_cli("classify", "--graph", str(bad)) == 2
        err = json.loads(capsys.readouterr().err)
        assert "n" in err["error"]["message"]

    def test_bad_space_descriptor_exits_2(self, tmp_path, capsys):
        assert run_cli("net", "--space", "lq:2:3", "--delta", "1", "--r", "2",
                       "-o", str(tmp_path / "x.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"

    def test_runtime_failure_exits_3(self, workdir, tmp_path, capsys):
        # one draw per edge cannot place every edge at these constants
        rc = run_cli("embed", "--graph", str(workdir / "G.json"),
                     "--mode", "practical", "--beta", "0.2", "--gamma", "0.19",
                     "--retry-cap", "1", "--seed", "0",
                     "-o", str(tmp_path / "emb.json"))
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "runtime"

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_audit_phi_explicit_m_zero_exits_2(self, workdir, tmp_path, capsys):
        emb_path = tmp_path / "emb.json"
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                       "-o", str(emb_path)) == 0
        capsys.readouterr()
        assert run_cli("audit-phi", "--embedding", str(emb_path), "--M", "0",
                       "-o", str(tmp_path / "phi.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert not (tmp_path / "phi.json").exists()

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_embed_retry_cap_below_one_exits_2(self, workdir, tmp_path, capsys, cap):
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                       "--retry-cap", cap, "-o", str(tmp_path / "emb.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "retry_cap" in err["error"]["message"]

    def test_embed_on_edgeless_net_graph_exits_2(self, tmp_path, capsys):
        # r = 1.1 < rho: a one-point net, whose graph has no edge to place
        assert run_cli("net", "--space", "lp:2:3", "--delta", "1", "--r", "1.1",
                       "-o", str(tmp_path / "net.json")) == 0
        assert run_cli("graph", "--net", str(tmp_path / "net.json"),
                       "-o", str(tmp_path / "G.json")) == 0
        assert read(tmp_path / "G.json")["edges"] == []
        capsys.readouterr()
        assert run_cli("embed", "--graph", str(tmp_path / "G.json"),
                       "-o", str(tmp_path / "emb.json")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "no edges" in err["message"]
        assert not (tmp_path / "emb.json").exists()

    def test_pipeline_on_one_point_net_writes_nothing(self, tmp_path, capsys):
        # r = 1.1 < rho: a one-point net, which no audit can measure
        out = tmp_path / "p1"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1", "--r", "1.1",
                       "--out", str(out)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "at least two points" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("classify",), ("subdivide", "--M", "2"), ("gadget", "--M", "2"), ("embed",),
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("edit", ["null", "seven"])
    def test_malformed_graph_document_exits_2(self, tmp_path, capsys, command, edit):
        obj = {"null": None, "seven": 7}[edit]
        (tmp_path / "G.json").write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        assert run_cli(command[0], "--graph", str(tmp_path / "G.json"), *command[1:],
                       "-o", str(out)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("embed", "--graph", "gadget.json"),
        ("audit-tg", "--embedding", "G.json"),
        ("montecarlo", "--embedding", "G.json", "--edge", "0"),
    ], ids=lambda a: a[0])
    def test_artifact_of_another_kind_exits_2(self, workdir, tmp_path, capsys, argv):
        # a gadget where a net graph belongs, a graph where an embedding does
        assert run_cli("gadget", "--graph", str(workdir / "G.json"), "--M", "3",
                       "-o", str(tmp_path / "gadget.json")) == 0
        (tmp_path / "G.json").write_bytes((workdir / "G.json").read_bytes())
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert run_cli(argv[0], argv[1], str(tmp_path / argv[2]), *argv[3:], "-o", str(out)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not out.exists()


@pytest.fixture(scope="module")
def ten_edges(workdir):
    """A 10-edge prefix embedding of the l2^3 net graph, as JSON text."""
    path = workdir / "emb10.json"
    assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                   "--limit", "10", "-o", str(path)) == 0
    return path.read_text()


def _set(*path, value):
    """An edit of the embedding JSON that sets the entry at path to value."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _drop_last_coordinate(obj):
    for e in obj["edges"]:
        e["w"] = e["w"][:-1]


def _swap_first_edge(obj):
    first = obj["edges"][0]
    first["u"], first["v"] = first["v"], first["u"]


class TestEmbeddingInput:
    def _audit_tg_exit(self, ten_edges, tmp_path, capsys, edit):
        obj = json.loads(ten_edges)
        edit(obj)
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(obj))
        rc = run_cli("audit-tg", "--embedding", str(path), "--samples", "10",
                     "-o", str(tmp_path / "tg.json"))
        return rc, capsys.readouterr().err

    def test_unedited_embedding_loads(self, ten_edges, tmp_path, capsys):
        assert self._audit_tg_exit(ten_edges, tmp_path, capsys, lambda obj: None)[0] == 0

    def test_retired_gamma_constant_key_is_ignored(self, ten_edges, tmp_path, capsys):
        # params written while they still carried gamma_constant load, and
        # audit as the same params without it
        assert "gamma_constant" not in json.loads(ten_edges)["params"]
        reports = []
        for edit in (lambda obj: None, _set("params", "gamma_constant", value=1.0)):
            assert self._audit_tg_exit(ten_edges, tmp_path, capsys, edit)[0] == 0
            reports.append((tmp_path / "tg.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("w", [[math.nan] * 3, [1.0, math.nan, 0.0],
                                   [math.inf, 0.0, 0.0]],
                             ids=["all-nan", "one-nan", "inf"])
    def test_non_finite_breakpoint_exits_2(self, ten_edges, tmp_path, capsys, w):
        rc, err = self._audit_tg_exit(ten_edges, tmp_path, capsys,
                                      _set("edges", 3, "w", value=w))
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "validation"
        assert not (tmp_path / "tg.json").exists()

    @pytest.mark.parametrize("edit", [
        _set("edges", 3, "w", value=[1.0, 0.0]),
        _drop_last_coordinate,
        _set("params", "alpha", value=-0.002),
        _set("params", "gamma", value=-0.001),
        _set("params", "mode", value="bogus"),
        _set("edges", 0, "u", value=999),
        _swap_first_edge,
        _set("edges", value=[]),
        _set("edges", 2, "attempts", value=0),
        _set("params", "tolerance", value=-1.0),
        _set("params", "tolerance", value=math.nan),
        _set("params", "mu", value=math.inf),
    ], ids=["one-short-w", "all-short-w", "negative-alpha", "negative-gamma",
            "bogus-mode", "vertex-999", "swapped-edge", "no-edges", "zero-attempts",
            "negative-tolerance", "nan-tolerance", "inf-mu"])
    def test_invalid_embedding_exits_2(self, ten_edges, tmp_path, capsys, edit):
        rc, err = self._audit_tg_exit(ten_edges, tmp_path, capsys, edit)
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_embed_limit_below_one_exits_2(self, workdir, tmp_path, capsys, limit):
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                       "--limit", limit, "-o", str(tmp_path / "emb.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "emb.json").exists()

    def test_embed_infinite_mu_exits_2(self, workdir, tmp_path, capsys):
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                       "--mu", "inf", "-o", str(tmp_path / "emb.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "emb.json").exists()

    def test_negative_samples_exit_2(self, ten_edges, tmp_path, capsys):
        path = tmp_path / "emb.json"
        path.write_text(ten_edges)
        assert run_cli("audit-tg", "--embedding", str(path), "--samples", "-5",
                       "-o", str(tmp_path / "tg.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--samples", "-5",
                       "--out", str(tmp_path / "run")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        # checked before the net is built: no artifact at all
        assert not (tmp_path / "run").exists()

    def test_pair_cap_below_one_exits_2(self, workdir, tmp_path, capsys):
        path = tmp_path / "emb.json"
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--seed", "5",
                       "-o", str(path)) == 0
        assert run_cli("audit-phi", "--embedding", str(path), "--pair-cap", "0",
                       "-o", str(tmp_path / "phi.json")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "validation", "message": "pair_cap must be >= 1"}
        assert not (tmp_path / "phi.json").exists()
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--pair-cap", "0",
                       "--out", str(tmp_path / "run")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "validation", "message": "pair_cap must be >= 1"}
        assert not (tmp_path / "run").exists()

    def test_beta_under_strict_mode_exits_2(self, workdir, tmp_path, capsys):
        # strict mode derives beta from mu: an explicit --beta is refused, not dropped
        assert run_cli("embed", "--graph", str(workdir / "G.json"), "--mode", "strict",
                       "--beta", "0.5", "-o", str(tmp_path / "emb.json")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "--beta" in err["message"]
        assert not (tmp_path / "emb.json").exists()
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1", "--r", "1.44",
                       "--mode", "strict", "--beta", "0.5", "--out", str(tmp_path / "run")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "--beta" in err["message"]
        assert not (tmp_path / "run").exists()
        # without --beta: mu/546 in strict mode, 0.02 in practical mode
        for command in (["embed", "--graph", "G.json"],
                        ["pipeline", "--space", "lp:2:3", "--r", "1"]):
            for mode, beta in (("strict", 0.25 / 546), ("practical", 0.02)):
                args = cli._build_parser().parse_args(command + ["--mode", mode])
                assert cli._params(args).beta == beta

    def test_pipeline_checks_embed_params_first(self, tmp_path, capsys):
        # beta 0.5 >= mu violates the practical chain
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--beta", "0.5",
                       "--out", str(tmp_path / "run")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "run").exists()


def _graph_json(workdir, edit):
    """G.json, the l2^3 net graph, edited."""
    obj = read(workdir / "G.json")
    edit(obj)
    return obj


# Each integer field with an edit putting a value into it, and the command
# that reads it.
INTEGER_FIELDS = {
    "n": ("classify", lambda w, x: {"n": x, "edges": [[0, 1], [1, 2]]}),
    "edge end": ("classify", lambda w, x: {"n": 3, "edges": [[0, x], [1, 2]]}),
    "dim": ("classify", lambda w, x: _graph_json(
        w, _set("net", "space", "dim", value=x))),
    "u": ("audit-tg", lambda w, x: _set("edges", 0, "u", value=x)),
    "v": ("audit-tg", lambda w, x: _set("edges", 0, "v", value=x)),
    "attempts": ("audit-tg", lambda w, x: _set("edges", 2, "attempts", value=x)),
    "retry_cap": ("audit-tg", lambda w, x: _set("params", "retry_cap", value=x)),
    "seed": ("audit-tg", lambda w, x: _set("params", "seed", value=x)),
}


class TestIntegerFields:
    """A bool, a string or a non-integral number in an integer field exits
    2 with a message naming the field; an integral number passes."""

    def _exit(self, workdir, ten_edges, tmp_path, capsys, field, value):
        command, make = INTEGER_FIELDS[field]
        path = tmp_path / "in.json"
        if command == "classify":
            path.write_text(json.dumps(make(workdir, value)))
            rc = run_cli("classify", "--graph", str(path))
        else:
            obj = json.loads(ten_edges)
            make(workdir, value)(obj)
            path.write_text(json.dumps(obj))
            rc = run_cli("audit-tg", "--embedding", str(path), "--samples", "10")
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_non_integers_exit_2(self, workdir, ten_edges, tmp_path, capsys, field):
        for value in (True, "2", 1.5, 2.7):
            rc, err = self._exit(workdir, ten_edges, tmp_path, capsys, field, value)
            assert rc == 2, (field, value)
            message = json.loads(err)["error"]["message"]
            assert f"{field} must be an integer, got {value!r}" in message

    @pytest.mark.parametrize("field", ["edge end", "u", "v", "attempts"])
    def test_beyond_int64_exits_2(self, workdir, ten_edges, tmp_path, capsys, field):
        # these fields are read into int64 arrays
        rc, err = self._exit(workdir, ten_edges, tmp_path, capsys, field, 2 ** 70)
        assert rc == 2 and json.loads(err)["error"]["type"] == "validation"

    def test_integral_numbers_pass(self, workdir, ten_edges, tmp_path, capsys):
        obj = json.loads(ten_edges)
        for field in ("retry_cap", "seed"):
            assert self._exit(workdir, ten_edges, tmp_path, capsys, field,
                              float(obj["params"][field]))[0] == 0
        assert self._exit(workdir, ten_edges, tmp_path, capsys, "n", 3.0)[0] == 0


class TestNetScales:
    def test_infinite_radius_exits_2(self, tmp_path, capsys):
        assert run_cli("net", "--space", "lp:2:3", "--delta", "1", "--r", "inf",
                       "-o", str(tmp_path / "net.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("rho", 0.0), ("rho", -1.0), ("delta", math.nan), ("r", math.inf),
    ], ids=["zero-rho", "negative-rho", "nan-delta", "inf-r"])
    def test_bad_net_scale_exits_2(self, workdir, tmp_path, capsys, field, value):
        obj = read(workdir / "net.json")
        obj[field] = value
        (tmp_path / "net.json").write_text(json.dumps(obj))
        assert run_cli("graph", "--net", str(tmp_path / "net.json"),
                       "-o", str(tmp_path / "G.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "G.json").exists()

    def test_zero_rho_in_net_graph_exits_2(self, workdir, tmp_path, capsys):
        obj = read(workdir / "G.json")
        obj["net"]["rho"] = 0.0
        (tmp_path / "G.json").write_text(json.dumps(obj))
        assert run_cli("embed", "--graph", str(tmp_path / "G.json"), "--seed", "5",
                       "-o", str(tmp_path / "emb.json")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"
        assert not (tmp_path / "emb.json").exists()


    @pytest.mark.parametrize("edit", ["repeated", "close"])
    def test_unseparated_net_points_exit_2(self, workdir, tmp_path, capsys, edit):
        # a repeated point used to reach the identity audit and exit 3
        obj = read(workdir / "net.json")
        p = obj["points"][1]
        obj["points"].append(p if edit == "repeated" else [0.9 * x for x in p])
        (tmp_path / "net.json").write_text(json.dumps(obj))
        assert run_cli("graph", "--net", str(tmp_path / "net.json"),
                       "-o", str(tmp_path / "G.json")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "under the separation" in err["message"]
        assert not (tmp_path / "G.json").exists()

    def test_repeated_point_in_net_graph_exits_2(self, workdir, tmp_path, capsys):
        obj = read(workdir / "G.json")
        obj["net"]["points"][1] = obj["net"]["points"][2]
        (tmp_path / "G.json").write_text(json.dumps(obj))
        assert run_cli("embed", "--graph", str(tmp_path / "G.json"), "--seed", "5",
                       "-o", str(tmp_path / "emb.json")) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "under the separation" in err["message"]
        assert not (tmp_path / "emb.json").exists()


def _far_edge_graph():
    """A net graph whose edge (0, 2) is 7 long, over its threshold 3 * rho = 3."""
    return {"n": 3, "edges": [[0, 2], [1, 2]], "edge_threshold": 3.0,
            "net": {"space": {"kind": "lp", "p": 2, "dim": 3}, "delta": 0.5, "r": 8.0,
                    "rho": 1.0, "points": [[0, 0, 0], [6, 0, 0], [7, 0, 0]]}}


def _extra_edge(obj):
    """Add an edge to obj between its first two non-adjacent vertices."""
    edges = {tuple(e) for e in obj["edges"]}
    obj["edges"].append(next([u, v] for u in range(obj["n"]) for v in range(u + 1, obj["n"])
                             if (u, v) not in edges))


def _bad_threshold(obj):
    obj["edge_threshold"] *= 1.5


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    """A net graph that is not complete (34 vertices, 486 edges), and a
    10-edge prefix embedding of it."""
    d = tmp_path_factory.mktemp("sparse")
    assert run_cli("net", "--space", "lp:2:3", "--delta", "1", "--r", "2.6",
                   "-o", str(d / "net.json")) == 0
    assert run_cli("graph", "--net", str(d / "net.json"), "-o", str(d / "G.json")) == 0
    assert run_cli("embed", "--graph", str(d / "G.json"), "--seed", "5", "--limit", "10",
                   "-o", str(d / "emb.json")) == 0
    return d


class TestEdgeRule:
    """A net graph loads only with edge_threshold = 3 * rho and exactly the
    pairs within it as edges: placement certifies each curve only against
    the vertices near its edge."""

    def _expect_exit_2(self, capsys, argv, out):
        assert run_cli(*argv, "-o", str(out)) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation" and "edge_threshold" in err["message"]
        assert not out.exists()

    def test_embed_rejects_an_edge_over_the_threshold(self, tmp_path, capsys):
        # unchecked, seed 13 places edge (0, 2) 0.0114 from vertex 1, under
        # beta = 0.02, and verify_embedding passes it
        (tmp_path / "G.json").write_text(json.dumps(_far_edge_graph()))
        self._expect_exit_2(capsys, ("embed", "--graph", str(tmp_path / "G.json"),
                                     "--seed", "13"), tmp_path / "emb.json")

    @pytest.mark.parametrize("edit", [_extra_edge, _bad_threshold], ids=["edge", "threshold"])
    @pytest.mark.parametrize("command", [("embed",), ("classify",), ("gadget", "--M", "2")],
                             ids=lambda c: c[0])
    def test_edited_graph_exits_2(self, sparse, tmp_path, capsys, edit, command):
        obj = read(sparse / "G.json")
        edit(obj)
        (tmp_path / "G.json").write_text(json.dumps(obj))
        self._expect_exit_2(capsys, (command[0], "--graph", str(tmp_path / "G.json"),
                                     *command[1:]), tmp_path / "out.json")

    @pytest.mark.parametrize("edit", [_extra_edge, _bad_threshold], ids=["edge", "threshold"])
    @pytest.mark.parametrize("command", [
        ("audit-tg", "--samples", "10"), ("montecarlo", "--edge", "3", "--samples", "10"),
        ("audit-phi",),
    ], ids=lambda c: c[0])
    def test_edited_embedding_exits_2(self, sparse, tmp_path, capsys, edit, command):
        obj = read(sparse / "emb.json")
        edit(obj["net_graph"])
        (tmp_path / "emb.json").write_text(json.dumps(obj))
        self._expect_exit_2(capsys, (command[0], "--embedding", str(tmp_path / "emb.json"),
                                     *command[1:]), tmp_path / "out.json")


class TestPipeline:
    def test_reproducible_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                           "--r", "1.44", "--seed", "7", "--samples", "500",
                           "--out", str(out)) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["dossier.json", "embedding.json", "gadget.json",
                         "graph.json", "net.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dossier_asserts_bounds(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--seed", "3", "--samples", "200",
                       "--out", str(out)) == 0
        d = read(out / "dossier.json")
        assert d["graph"]["identity_audit"]["distortion"] <= 3.0 + 1e-9
        assert d["gadget"]["max_degree"] <= 3
        assert d["gadget"]["psi_audit"]["lip_forward"] <= d["gadget"]["psi_lip_bound"]
        assert d["embedding"]["reverified"]

    def test_one_hop_table_per_run(self, tmp_path, monkeypatch):
        # the path bound, identity, TG, anchor and subdivision metrics all
        # read the base graph's one cached hop table: one pass over all n
        # sources, plus the one-source BFS of the is_connected checks of
        # net_graph_from_net and build_gadget
        bfs, rows, calls, sources = graphs.bfs_from, graphs._bfs_rows, [], []
        monkeypatch.setattr(graphs, "bfs_from", lambda g, s: calls.append(s) or bfs(g, s))
        monkeypatch.setattr(graphs, "_bfs_rows",
                            lambda g, s: sources.append(len(s)) or rows(g, s))
        out = tmp_path / "run"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--seed", "3", "--samples", "200",
                       "--out", str(out)) == 0
        n = read(out / "dossier.json")["graph"]["vertices"]
        assert len(calls) == 2 and sorted(sources) == [1, 1, n]

    def test_artifacts_equal_the_subcommands_output(self, tmp_path):
        run, seed = tmp_path / "run", "3"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1", "--r", "1.44",
                       "--seed", seed, "--samples", "200", "--pair-cap", "500",
                       "--out", str(run)) == 0
        d = read(run / "dossier.json")
        graph, emb = str(tmp_path / "graph.json"), str(tmp_path / "embedding.json")
        assert run_cli("graph", "--net", str(run / "net.json"), "-o", graph) == 0
        assert run_cli("embed", "--graph", graph, "--seed", seed, "-o", emb) == 0
        assert run_cli("gadget", "--graph", graph, "--M", str(d["config"]["M"]),
                       "-o", str(tmp_path / "gadget.json")) == 0
        for name in ("graph.json", "embedding.json", "gadget.json"):
            assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name

        assert run_cli("audit-tg", "--embedding", emb, "--samples", "200", "--seed", seed,
                       "-o", str(tmp_path / "tg.json")) == 0
        tg = read(tmp_path / "tg.json")
        assert tg.pop("reverified") is d["embedding"]["reverified"] is True
        assert {tg.pop(k) for k in ("samples_requested", "seed")} == {200, 3}
        assert tg.pop("params") == d["config"]["params"]
        assert tg == d["embedding"]["tg_audit"]
        assert run_cli("audit-phi", "--embedding", emb, "--seed", seed, "--pair-cap", "500",
                       "-o", str(tmp_path / "phi.json")) == 0
        phi = read(tmp_path / "phi.json")
        assert phi.pop("M") == d["config"]["M"] and phi.pop("params") == d["config"]["params"]
        assert phi == d["gadget"]["phi_audit"]

    def test_report_keys(self, tmp_path):
        # the reports are asdict() of their dataclasses: their keys are the fields
        distortion = {"lip_forward", "lip_inverse", "distortion", "witness_forward",
                      "witness_inverse", "pairs_checked", "exhaustive"}
        tg = {"lip_forward", "lip_inverse", "distortion", "forward_bound",
              "inverse_bound", "forward_ok", "inverse_ok", "vertex_pairs",
              "interior_pairs", "max_curve_length"}
        phi = {"report", "normalization_factor", "lip_positions_inverse",
               "inverse_bound", "forward_ok", "inverse_ok"}
        params = {"alpha", "beta", "gamma", "mu", "mode", "retry_cap", "seed",
                  "tolerance"}
        run = tmp_path / "run"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1", "--r", "1.44",
                       "--seed", "3", "--samples", "200", "--pair-cap", "200",
                       "--out", str(run)) == 0
        d = read(run / "dossier.json")
        assert set(d["graph"]["identity_audit"]) == distortion
        assert set(d["embedding"]["tg_audit"]) == tg
        assert set(d["gadget"]["psi_audit"]) == distortion
        assert set(d["gadget"]["phi_audit"]) == phi
        assert set(d["gadget"]["phi_audit"]["report"]) == distortion
        assert set(d["config"]["params"]) == params

        graph, emb = str(run / "graph.json"), str(run / "embedding.json")
        commands = {
            "audit-tg": ("--embedding", emb, "--samples", "100"),
            "montecarlo": ("--embedding", emb, "--edge", "3", "--samples", "100"),
            "classify": ("--graph", graph),
            "audit-psi": ("--graph", graph, "--M", "5"),
            "audit-phi": ("--embedding", emb, "--pair-cap", "200"),
        }
        out = {}
        for name, argv in commands.items():
            assert run_cli(name, *argv, "-o", str(tmp_path / f"{name}.json")) == 0, name
            out[name] = read(tmp_path / f"{name}.json")
        assert set(out["audit-tg"]) == tg | {"reverified", "params", "samples_requested",
                                             "seed"}
        assert set(out["montecarlo"]) == {"fraction", "ci_low", "ci_high", "half_width",
                                          "samples", "successes", "params", "edge", "seed"}
        assert set(out["classify"]) == {"verdict", "certificate", "both"}
        assert set(out["audit-psi"]) == {"report", "M", "edges", "max_degree_H", "lip_bound",
                                         "lip_inverse_bound"}
        assert set(out["audit-psi"]["report"]) == distortion
        assert set(out["audit-phi"]) == phi | {"M", "params"}
        assert set(out["audit-phi"]["report"]) == distortion
        for name in ("audit-tg", "montecarlo", "audit-phi"):
            assert set(out[name]["params"]) == params, name


def reference_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def written_text(obj):
    """What _dump_json writes to stdout for obj."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _dump_json(obj, "-")
    return out.getvalue()


def outcome(fn, obj):
    """fn(obj), or the type of what it raised."""
    try:
        return fn(obj)
    except Exception as exc:  # the writer must fail as json.dumps does
        return type(exc)


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | SPECIAL_FLOATS
           | st.text())


def int_rows(width):
    # equal-length rows, now and then holding a True (written "true", not 1)
    return st.lists(st.lists(st.integers() | st.just(True), min_size=width, max_size=width))


JSON_VALUES = st.recursive(
    SCALARS | st.integers(0, 3).flatmap(int_rows)
    | st.lists(st.lists(st.floats() | SPECIAL_FLOATS, min_size=2, max_size=2)),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner, max_size=3)
                   | st.dictionaries(st.integers() | st.text(), inner, max_size=2)),
    max_leaves=25)


# _WRITE_ROWS while the array tests run: their row counts straddle it
SMALL_WRITE_ROWS = 3
INT_DTYPES = [np.int64, np.int32, np.int8, np.uint8, np.uint32, np.uint64]


@st.composite
def int_arrays(draw):
    """Integer arrays of every width, their extreme values included, with
    row counts around SMALL_WRITE_ROWS."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    rows = draw(st.sampled_from([0, 1, SMALL_WRITE_ROWS - 1, SMALL_WRITE_ROWS,
                                 SMALL_WRITE_ROWS + 1, 3 * SMALL_WRITE_ROWS + 2]))
    shape = draw(st.sampled_from([(), (rows,), (rows, 2), (rows, 0), (rows, 2, 1)]))
    values = st.sampled_from([info.min, info.max, 0]) | st.integers(info.min, info.max)
    return draw(hnp.arrays(dtype, shape, elements=values))


MARKS = st.sampled_from([cli._mark(k) for k in range(3)])  # the writer's stand-ins
WITH_ARRAYS = st.recursive(
    SCALARS | int_arrays() | MARKS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text() | MARKS, inner, max_size=3)),
    max_leaves=12)


def listed(obj):
    """obj with each integer array replaced by its .tolist()."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(value) for value in obj]
    return obj


def redumps_to_its_bytes(path):
    text = path.read_text(encoding="utf-8")
    return reference_text(json.loads(text)) == text


class TestJsonWriter:
    """_dump_json writes json.dumps(obj, sort_keys=True) and a newline:
    compact, sorted keys, ASCII escapes, and no file when encoding fails."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(obj=JSON_VALUES)
    def test_matches_json_dumps(self, obj):
        assert outcome(written_text, obj) == outcome(reference_text, obj)

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], [[], []], {"é\u2603\U0001f600": {"": []}},
        [1, True], [[1, 2], [3, True]], [[1, 2], [3]], [[1, 2], (3, 4)],
        [-0.0, 1e300, math.nan, math.inf, -math.inf], [[0.5, -0.0], [1e-300, 2.0]],
        {1: "int key", 2: [1]}, {"a": 1, 2: 3}, {1.5: 0, True: None},
        [{"b": 1, "a": [[1]]}], "text", 7, 2.5, None, [10**30, -5],
    ], ids=repr)
    def test_edge_cases(self, obj, tmp_path):
        path = tmp_path / "out.json"
        want = outcome(reference_text, obj)
        got = outcome(lambda x: _dump_json(x, path), obj)
        if isinstance(want, type):  # json.dumps fails, and the writer leaves no file
            assert got is want and not path.exists()
        else:
            assert got is None and path.read_text(encoding="utf-8") == want

    def test_unsupported_values_fail_alike(self, tmp_path):
        cyclic = []
        cyclic.append(cyclic)
        path = tmp_path / "out.json"
        for obj in (cyclic, [1, {2}], {"a": object()}):
            with pytest.raises((TypeError, ValueError)) as got:
                _dump_json(obj, path)
            with pytest.raises((TypeError, ValueError)) as want:
                reference_text(obj)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
            assert not path.exists()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(obj=WITH_ARRAYS)
    def test_integer_arrays_written_as_their_lists(self, obj):
        # a user string equal to a stand-in is written as itself
        with mock.patch.object(cli, "_WRITE_ROWS", SMALL_WRITE_ROWS):
            assert outcome(written_text, obj) == outcome(reference_text, listed(obj))

    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10_000])
    def test_listing_rows_at_the_chunk_size(self, rows, tmp_path):
        ends = np.arange(2 * rows, dtype=np.int64).reshape(rows, 2) * 7919
        obj = {"n": 2 * rows, "edges": ends, "x": [ends[:, 0], cli._mark(0)]}
        path = tmp_path / "out.json"
        _dump_json(obj, path)
        assert cli._WRITE_ROWS == 4096
        assert path.read_text(encoding="utf-8") == reference_text(listed(obj))

    def test_unsupported_arrays_fail_alike(self, tmp_path):
        cyclic = []
        cyclic.append(cyclic)
        cyclic.append(np.arange(3))
        path = tmp_path / "out.json"
        for obj in ([np.arange(3), np.array([1.5])], {"a": np.array([True, False])},
                    [np.int64(1)], {"a": np.arange(2), "b": {3}}, np.array(["x"]),
                    np.array([[1, 2]], dtype=object), cyclic):
            with pytest.raises((TypeError, ValueError)) as got:
                _dump_json(obj, path)
            with pytest.raises((TypeError, ValueError)) as want:
                reference_text(obj if obj is cyclic else listed(obj))
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
            assert not path.exists()

    def test_listing_memory_is_bounded_per_edge(self, tmp_path):
        # The listing is one int64 array (16 B an edge; sorting it peaks at
        # 41), and the writer holds one chunk of rows on top of it.  As
        # lists, the listing and its encoding took 178 B an edge.
        h = build_gadget(from_edges(3, [(0, 1), (0, 2), (1, 2)]), 30_001)
        edges = 3 * 30_001 + 3 * 2
        tracemalloc.start()
        try:
            obj = gadget_to_json(h)
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _dump_json(obj, tmp_path / "H.json")
            written = tracemalloc.get_traced_memory()[1] - built
            del obj
            tracemalloc.reset_peak()
            _dump_json(gadget_to_json(h), tmp_path / "H.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written < 2_000_000, written
        assert peak < 48 * edges + 2_000_000, peak / edges
        assert redumps_to_its_bytes(tmp_path / "H.json")

    def test_pipeline_artifacts_redump_to_their_bytes(self, tmp_path):
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--seed", "3", "--samples", "200",
                       "--out", str(tmp_path)) == 0
        for path in sorted(tmp_path.iterdir()):
            assert redumps_to_its_bytes(path), path.name

    def test_subcommand_outputs_redump_to_their_bytes(self, tmp_path):
        run = tmp_path / "run"
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--seed", "3", "--samples", "200",
                       "--out", str(run)) == 0
        graph, emb = str(run / "graph.json"), str(run / "embedding.json")
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        commands = {
            "subdivide": ("--graph", graph, "--M", "3"),
            "audit-psi": ("--graph", graph, "--M", "5"),
            "audit-phi": ("--embedding", emb, "--pair-cap", "200"),
            "audit-tg": ("--embedding", emb, "--samples", "100"),
            "montecarlo": ("--embedding", emb, "--edge", "3", "--samples", "100"),
            "classify": ("--graph", str(path)),
        }
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert run_cli(name, *argv, "-o", str(out)) == 0, name
            assert redumps_to_its_bytes(out), name


class TestNoGadgetGraph:
    def test_commands_build_no_gadget_adjacency(self, workdir, tmp_path, monkeypatch):
        # the gadget modules may list edges through from_edges, but no command
        # reads the adjacency of a Graph built there
        from netembed import Graph, gadgets

        class Refused(Graph):
            @property
            def adj(self):
                raise AssertionError("adjacency of a Graph built in netembed.gadgets")

        def marked(*args, **kwargs):
            g = build(*args, **kwargs)
            g.__class__ = Refused
            return g

        build = gadgets.from_edges
        monkeypatch.setattr(gadgets, "from_edges", marked)
        g = str(workdir / "G.json")
        assert run_cli("pipeline", "--space", "lp:2:3", "--delta", "1",
                       "--r", "1.44", "--seed", "3", "--samples", "200",
                       "--out", str(tmp_path / "run")) == 0
        assert run_cli("gadget", "--graph", g, "--M", "12",
                       "-o", str(tmp_path / "H.json")) == 0
        assert run_cli("subdivide", "--graph", g, "--M", "3",
                       "-o", str(tmp_path / "MG.json")) == 0
        assert run_cli("audit-psi", "--graph", g, "--M", "12",
                       "-o", str(tmp_path / "psi.json"),
                       "--csv", str(tmp_path / "psi.csv")) == 0
        assert run_cli("audit-phi", "--embedding", str(tmp_path / "run" / "embedding.json"),
                       "-o", str(tmp_path / "phi.json")) == 0


def run_module(*argv, timeout=None):
    """netembed.cli run as a module in a child process; the child imports
    the same netembed as this process, installed or not."""
    src = str(Path(netembed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "netembed.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = run_module("net", "--space", "lp:inf:2", "--delta", "1", "--r", "2",
                          "-o", str(tmp_path / "n.json"))
        assert proc.returncode == 0
        assert (tmp_path / "n.json").exists()

    @pytest.mark.parametrize("command", [("classify",), ("gadget", "--M", "3"),
                                         ("audit-psi", "--M", "3")], ids=lambda c: c[0])
    def test_too_few_edges_exit_2_at_once(self, tmp_path, command):
        # fewer than n - 1 edges cannot connect n vertices: no BFS over the
        # 10^8 vertices, which took 18-21 s
        path = tmp_path / "G.json"
        path.write_text(json.dumps({"n": 100_000_000, "edges": [[0, 1]]}))
        start = time.monotonic()
        proc = run_module(command[0], "--graph", str(path), *command[1:],
                          "-o", str(tmp_path / "out.json"), timeout=10)
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["type"] == "validation"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, base", [
        (("subdivide", "--M", "1000000000000"), "k3"),
        (("gadget", "--M", "1000000000000"), "k3"),
        (("gadget", "--M", "3"), "path"),
        (("audit-psi", "--M", "3"), "path")], ids=lambda c: c if isinstance(c, str) else c[0])
    def test_sizes_over_the_cap_exit_2(self, tmp_path, command, base):
        # the vertex count is checked before anything is allocated: these
        # ended in MemoryErrors (21.8 TiB of ids; 11.9 GiB of ports)
        n = 3 if base == "k3" else 40_000
        edges = [[0, 1], [0, 2], [1, 2]] if base == "k3" else [[i, i + 1] for i in range(n - 1)]
        path = tmp_path / "G.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        proc = run_module(command[0], "--graph", str(path), *command[1:],
                          "-o", str(tmp_path / "out.json"), timeout=10)
        assert proc.returncode == 2
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "validation"
        assert f"over the cap {gadgets._VERTEX_CAP}" in error["message"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("n", ["1e30", "100000000000000000000"])
    @pytest.mark.parametrize("command", [("classify",), ("subdivide", "--M", "2")],
                             ids=lambda c: c[0])
    def test_vertex_counts_over_int64_keys_exit_2(self, tmp_path, command, n):
        # the edge keys u*n + v must fit in int64, so n is capped before any is built
        path = tmp_path / "G.json"
        path.write_text('{"n": %s, "edges": [[0, 1]]}' % n)
        proc = run_module(command[0], "--graph", str(path), *command[1:],
                          "-o", str(tmp_path / "out.json"), timeout=10)
        assert proc.returncode == 2
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "validation"
        assert f"over the cap {graphs._MAX_N}" in error["message"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["net", "pipeline"])
    def test_huge_dimension_exits_2(self, tmp_path, command):
        # the lattice cap is decided without forming 17 ** 10**20
        out = ["-o", str(tmp_path / "out.json")] if command == "net" else [
            "--out", str(tmp_path / "run")]
        proc = run_module(command, "--space", "lp:2:100000000000000000000", "--delta", "1",
                          "--r", "2", *out, timeout=10)
        assert proc.returncode == 2
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "validation" and "over the cap" in error["message"]
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "run").exists()
