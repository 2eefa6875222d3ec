import json
import subprocess
import sys

import pytest

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
        # a retry cap of zero draws cannot place anything
        rc = run_cli("embed", "--graph", str(workdir / "G.json"),
                     "--mode", "practical", "--beta", "0.2", "--gamma", "0.19",
                     "--retry-cap", "1", "--seed", "0",
                     "-o", str(tmp_path / "emb.json"))
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "runtime"

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2


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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "netembed.cli", "net", "--space", "lp:inf:2",
             "--delta", "1", "--r", "2", "-o", str(tmp_path / "n.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "n.json").exists()
