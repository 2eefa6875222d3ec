import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netembed
from netembed.cli import main


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

    def test_classify(self, tmp_path):
        c4 = tmp_path / "c4.json"
        c4.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
        out = tmp_path / "verdict.json"
        assert run_cli("classify", "--graph", str(c4), "-o", str(out)) == 0
        assert read(out)["verdict"] == "Neither"


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
    ], ids=["one-short-w", "all-short-w", "negative-alpha", "negative-gamma",
            "bogus-mode", "vertex-999", "swapped-edge", "no-edges", "zero-attempts"])
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
        assert not (tmp_path / "run" / "dossier.json").exists()


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
        assert d["config"]["params"]["gamma_constant"] == 1.0


class TestNoGadgetGraph:
    def test_commands_build_no_gadget_adjacency(self, workdir, tmp_path, monkeypatch):
        from netembed import gadgets

        def refuse(*args, **kwargs):
            raise AssertionError("adjacency Graph built in netembed.gadgets")

        monkeypatch.setattr(gadgets, "from_edges", refuse)
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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the same netembed as this process, installed or not
        src = str(Path(netembed.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "netembed.cli", "net", "--space", "lp:inf:2",
             "--delta", "1", "--r", "2", "-o", str(tmp_path / "n.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert (tmp_path / "n.json").exists()
