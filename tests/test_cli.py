"""End-to-end CLI behaviour: files, reports, exit codes, determinism."""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import identity_ensemble, pauli_ensemble, raw_haar_ensemble
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from qtpe.cli import main
from qtpe.ensemble import load, sample_random_qtpe, save
from qtpe.linalg import SeededRng
from qtpe.zigzag import bound_genzigzag, bound_zigzag, bound_zigzag_derandomised


def run(*argv):
    return main(list(argv))


class TestSample:
    def test_creates_ensemble_file(self, tmp_path, capsys):
        out = tmp_path / "g.qtpe"
        assert run("sample", "--dim", "4", "--degree", "4", "--seed", "7", "--out", str(out)) == 0
        e = load(out)
        assert e.size == 4 and e.dim == 4
        sidecar = json.loads((tmp_path / "g.json").read_text())
        assert sidecar["seed"] == 7
        assert "sampled" in capsys.readouterr().out

    def test_identical_seeds_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.qtpe", tmp_path / "b.qtpe"
        run("sample", "--dim", "3", "--degree", "6", "--seed", "5", "--out", str(a))
        run("sample", "--dim", "3", "--degree", "6", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_odd_degree_exit_2(self, tmp_path, capsys):
        code = run("sample", "--dim", "4", "--degree", "3", "--out", str(tmp_path / "x.qtpe"))
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_huge_dim_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        import qtpe.ensemble as ens

        draws = []
        monkeypatch.setattr(ens, "haar_unitary", lambda *args: draws.append(args))
        code = run("sample", "--dim", "100000", "--degree", "4", "--out", str(tmp_path / "x.qtpe"))
        assert code == 2
        assert draws == []
        assert "iterative limit" in capsys.readouterr().err
        assert not (tmp_path / "x.qtpe").exists()


class TestLambda:
    def test_pauli_t1_zero(self, tmp_path, capsys):
        path = tmp_path / "pauli.qtpe"
        save(pauli_ensemble(), path)
        out = tmp_path / "report.json"
        assert run("lambda", "--ensemble", str(path), "--t", "1", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["lambda"]) <= 1e-10
        assert doc["t"] == 1

    def test_identity_t1_one(self, tmp_path):
        path = tmp_path / "i.qtpe"
        save(identity_ensemble(2), path)
        out = tmp_path / "report.json"
        assert run("lambda", "--ensemble", str(path), "--t", "1", "--out", str(out)) == 0
        assert json.loads(out.read_text())["lambda"] == pytest.approx(1.0, abs=1e-9)

    def test_guard_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "i.qtpe"
        save(identity_ensemble(2), path)
        assert run("lambda", "--ensemble", str(path), "--t", "9") == 2
        assert "guard" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        path = tmp_path / "h.qtpe"
        save(raw_haar_ensemble(4, 3, seed=3), path)
        code = run(
            "lambda", "--ensemble", str(path), "--t", "1", "--method", "power-iteration",
            "--tol", "1e-14", "--max-iters", "2", "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert json.loads((tmp_path / "r.json").read_text())["converged"] is False

    @pytest.mark.parametrize(
        "method,setting",
        [
            ("power-iteration", ("--max-iters", "0")),
            ("power-iteration", ("--max-iters", "-5")),
            ("power-iteration", ("--tol", "0")),
            ("power-iteration", ("--tol", "-1")),
            ("dense-svd", ("--tol", "-1")),
            ("dense-svd", ("--max-iters", "0")),
        ],
    )
    def test_malformed_solver_settings_exit_2(self, tmp_path, capsys, method, setting):
        path = tmp_path / "h.qtpe"
        save(raw_haar_ensemble(3, 3, seed=3), path)
        out = tmp_path / "r.json"
        assert run("lambda", "--ensemble", str(path), "--t", "2", "--method", method, *setting, "--out", str(out)) == 2
        assert not out.exists()
        assert ("max_iters" if setting[0] == "--max-iters" else "tol") in capsys.readouterr().err

    def test_auto_is_iterative_above_the_dense_limit(self, tmp_path):
        path = tmp_path / "h.qtpe"
        save(raw_haar_ensemble(65, 2, seed=3), path)  # t=1 ambient 65^2 = 4225 > 4096
        out = tmp_path / "r.json"
        assert run("lambda", "--ensemble", str(path), "--t", "1", "--max-iters", "2", "--out", str(out)) == 3
        assert json.loads(out.read_text())["method"] == "power-iteration"

    def test_csv_serialisation(self, tmp_path):
        path = tmp_path / "pauli.qtpe"
        save(pauli_ensemble(), path)
        out = tmp_path / "r.csv"
        assert run("lambda", "--ensemble", str(path), "--t", "1", "--csv", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "lambda" in lines[0]

    def test_bound_reference_from_sidecar(self, tmp_path):
        out = tmp_path / "g.qtpe"
        run("sample", "--dim", "4", "--degree", "4", "--seed", "1", "--out", str(out))
        rep = tmp_path / "r.json"
        run("lambda", "--ensemble", str(out), "--t", "1", "--out", str(rep))
        assert json.loads(rep.read_text())["bound_reference"] == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "sidecar",
        ["[1]", '{"bound_reference": "x"}', '{"bound_reference": 1e999}', '{"bound_reference": 1' + "0" * 400 + "}"],
    )
    def test_malformed_sidecar_gives_no_bound(self, tmp_path, sidecar):
        out = tmp_path / "g.qtpe"
        run("sample", "--dim", "2", "--degree", "4", "--out", str(out))
        (tmp_path / "g.json").write_text(sidecar)
        rep = tmp_path / "r.json"
        assert run("lambda", "--ensemble", str(out), "--t", "1", "--out", str(rep)) == 0
        assert json.loads(rep.read_text())["bound_reference"] is None

    def test_too_deep_sidecar_is_unreadable(self, tmp_path):
        # json raises RecursionError, not ValueError, on nesting this deep
        out = tmp_path / "g.qtpe"
        run("sample", "--dim", "2", "--degree", "4", "--out", str(out))
        (tmp_path / "g.json").write_text("[" * 100000)
        rep = tmp_path / "r.json"
        assert run("lambda", "--ensemble", str(out), "--t", "1", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        assert doc["bound_reference"] is None and doc["ensemble-label"] == ""

    def test_report_is_the_step_result(self, tmp_path):
        path = tmp_path / "pauli.qtpe"
        save(pauli_ensemble(), path)
        out = tmp_path / "r.json"
        assert run("lambda", "--ensemble", str(path), "--t", "1", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert (doc["name"], doc["kind"], doc["pass"]) == ("step-0", "lambda", True)

    @pytest.mark.parametrize("method", ["dense-svd", "power-iteration"])
    def test_involution_defect_measured_once_per_call(self, tmp_path, monkeypatch, method):
        # validate, the Hermitian gate of lambda_report and sector_lambda all read it
        import qtpe.ensemble as ens

        measured = []
        real = ens._measure_involution_defect
        monkeypatch.setattr(ens, "_measure_involution_defect", lambda e: measured.append(e.label) or real(e))
        path = tmp_path / "g.qtpe"
        save(sample_random_qtpe(3, 4, SeededRng(1)), path)
        argv = ("lambda", "--ensemble", str(path), "--t", "1", "--method", method, "--out", str(tmp_path / "r.json"))
        assert run(*argv) == 0
        assert measured == ["haar-d3-s4"]


class TestZigzagCommand:
    def _sample(self, tmp_path, name, dim, degree, seed):
        path = tmp_path / name
        assert run("sample", "--dim", str(dim), "--degree", str(degree), "--seed", str(seed), "--out", str(path)) == 0
        return path

    def test_product_file_and_count(self, tmp_path):
        g = self._sample(tmp_path, "g.qtpe", 8, 4, 1)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        out = tmp_path / "gh.qtpe"
        rep = tmp_path / "rep.json"
        assert run("zigzag", "--g", str(g), "--h", str(h), "--out", str(out), "--report", str(rep)) == 0
        assert load(out).size == 16
        assert json.loads(rep.read_text())["members"] == 16

    def test_generalised_k2(self, tmp_path):
        g = self._sample(tmp_path, "g.qtpe", 4, 4, 3)
        h = tmp_path / "h.qtpe"
        save(raw_haar_ensemble(8, 2, seed=4), h)  # dim = degree(g) * 2
        out = tmp_path / "prod.qtpe"
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--kind", "generalised", "--k", "2",
            "--out", str(out), "--report", str(tmp_path / "rep.json"),
        )
        assert code == 0
        assert load(out).size == 4

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        g = self._sample(tmp_path, "g.qtpe", 8, 4, 5)
        h = tmp_path / "h.qtpe"
        save(raw_haar_ensemble(5, 4, seed=6), h)
        code = run("zigzag", "--g", str(g), "--h", str(h), "--out", str(tmp_path / "x.qtpe"))
        assert code == 2
        err = capsys.readouterr().err
        assert "5" in err and "4" in err

    def test_report_is_the_step_result(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths resolve against the working directory
        self._sample(tmp_path, "g.qtpe", 4, 4, 1)
        self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        code = run("zigzag", "--g", "g.qtpe", "--h", "h.qtpe", "--kind", "derandomised", "--out", "gh.qtpe",
                   "--report", "rep.json")
        assert code == 0
        assert load(tmp_path / "gh.qtpe").size == 64
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["kind"] == "zigzag" and doc["zz_kind"] == "derandomised"
        assert doc["out"] == "gh.qtpe" and doc["members"] == 64
        assert doc["outer"] == {"dim": 4, "degree": 4} and doc["inner"] == {"dim": 4, "degree": 4}
        assert doc["pass"] and "bound_check" not in doc

    def test_derandomised_degree_guard_exit_2(self, tmp_path, capsys):
        g = self._sample(tmp_path, "g.qtpe", 2, 20, 9)
        h = self._sample(tmp_path, "h.qtpe", 20, 20, 10)
        out = tmp_path / "gh.qtpe"
        code = run("zigzag", "--g", str(g), "--h", str(h), "--kind", "derandomised", "--out", str(out))
        assert code == 2  # 20^3 = 8000 members
        assert "guard" in capsys.readouterr().err
        assert not out.exists()

    def test_member_entry_guard_exit_2(self, tmp_path, capsys):
        g, h, out = tmp_path / "g.qtpe", tmp_path / "h.qtpe", tmp_path / "gh.qtpe"
        save(sample_random_qtpe(64, 8, SeededRng(1)), g)
        save(sample_random_qtpe(8, 64, SeededRng(2)), h)
        code = run("zigzag", "--g", str(g), "--h", str(h), "--out", str(out))
        assert code == 2  # 4096 members of 512 x 512 would take 16 GiB
        assert "PRODUCT_ENTRY_LIMIT" in capsys.readouterr().err
        assert not out.exists()

    def test_generalised_bound_at_large_k(self, tmp_path, capsys):
        g, h, out = tmp_path / "g.qtpe", tmp_path / "h.qtpe", tmp_path / "p.qtpe"
        save(sample_random_qtpe(2, 4, SeededRng(1)), g)
        save(identity_ensemble(4), h)
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--kind", "generalised", "--k", "600",
            "--check-bound-t", "1", "--out", str(out),
        )
        # the bound does not evaluate the d' threshold, whose d^(2k+1) = 4^1201 overflows
        assert code == 0
        check = json.loads(capsys.readouterr().out)["bound_check"]
        assert np.isfinite(check["bound"]) and check["vacuous"]
        assert load(out).size == 1  # s^k members with s = 1

    def test_bound_check_malformed_tol_exit_2(self, tmp_path, capsys):
        g = self._sample(tmp_path, "g.qtpe", 2, 4, 1)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--check-bound-t", "1", "--tol", "0",
            "--out", str(tmp_path / "z.qtpe"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "z.qtpe").exists() and not (tmp_path / "z.json").exists()
        assert "tol must be a finite number > 0" in capsys.readouterr().err

    def test_bound_check_size_refused_before_save(self, tmp_path, capsys):
        g = self._sample(tmp_path, "g.qtpe", 8, 4, 1)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--check-bound-t", "3",
            "--out", str(tmp_path / "z.qtpe"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 2  # product dim 32: 32^6 exceeds the iterative limit
        assert "exceeds iterative limit" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("r.json", "z.qtpe", "z.json"))

    def test_bound_check_refused_before_any_solve(self, tmp_path, capsys, monkeypatch):
        import qtpe.moments as mom

        solves = []
        monkeypatch.setattr(mom, "sector_lambda", lambda *args: solves.append(args))
        monkeypatch.setattr(mom, "spectral_norm", lambda *args, **kwargs: solves.append(args))
        g = self._sample(tmp_path, "g.qtpe", 8, 4, 1)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        code = run("zigzag", "--g", str(g), "--h", str(h), "--check-bound-t", "3", "--out", str(tmp_path / "z.qtpe"))
        assert code == 2  # product dim 32: 32^6 exceeds the iterative limit
        assert solves == []

    def test_negative_bound_tol_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        import qtpe.moments as m

        solves = []
        monkeypatch.setattr(m, "lambda_report", lambda *args, **kwargs: solves.append(args))
        g = self._sample(tmp_path, "g.qtpe", 2, 4, 1)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 2)
        out = tmp_path / "z.qtpe"
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--check-bound-t", "1", "--bound-tol=-1e-3", "--out", str(out)
        )
        assert code == 2
        assert capsys.readouterr().err == "error: steps[0].bound_tol: expected a number >= 0, got -0.001\n"
        assert solves == [] and not out.exists()

    def test_bound_check_report(self, tmp_path):
        g = self._sample(tmp_path, "g.qtpe", 8, 4, 7)
        h = self._sample(tmp_path, "h.qtpe", 4, 4, 8)
        rep = tmp_path / "rep.json"
        code = run(
            "zigzag", "--g", str(g), "--h", str(h), "--out", str(tmp_path / "gh.qtpe"),
            "--report", str(rep), "--check-bound-t", "1",
        )
        assert code == 0
        check = json.loads(rep.read_text())["bound_check"]
        assert check["satisfied"]
        assert check["lambda_product"] <= check["bound"] + 1e-6


class TestCertify:
    def _write_config(self, tmp_path, steps, seed=9):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": seed, "steps": steps}))
        return cfg

    def test_zigzag_bound_pipeline_passes(self, tmp_path):
        steps = [
            {"kind": "sample", "name": "g", "dim": 8, "degree": 4, "out": "g.qtpe"},
            {"kind": "sample", "name": "h", "dim": 4, "degree": 4, "out": "h.qtpe"},
            {
                "kind": "zigzag",
                "name": "product",
                "g": "g.qtpe",
                "h": "h.qtpe",
                "zz_kind": "zigzag",
                "out": "gh.qtpe",
                "check_bound_t": 1,
                "bound_tol": 1e-6,
            },
        ]
        cfg = self._write_config(tmp_path, steps)
        out = tmp_path / "report.json"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and doc["failures"] == []
        assert doc["steps"][2]["bound_check"]["satisfied"]

    def test_readme_config_passes(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        cfg = tmp_path / "config.json"
        cfg.write_text(blocks[0])
        out = tmp_path / "report.json"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads(out.read_text())["pass"]

    def test_vacuous_bound_flagged_but_passes(self, tmp_path):
        steps = [{"kind": "bound", "name": "vac", "bound": "zigzag", "l1": 0.0, "l2": 0.0, "t": 2, "d": 40}]
        cfg = self._write_config(tmp_path, steps)
        out = tmp_path / "report.json"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        step = json.loads(out.read_text())["steps"][0]
        assert step["vacuous"] and step["pass"]

    def test_failed_check_nonzero_exit_and_enumerated(self, tmp_path):
        steps = [
            {"kind": "sample", "name": "g", "dim": 2, "degree": 4, "out": "g.qtpe"},
            {"kind": "lambda", "name": "impossible", "ensemble": "g.qtpe", "t": 1, "assert_below": 1e-12},
        ]
        cfg = self._write_config(tmp_path, steps)
        out = tmp_path / "report.json"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["failures"] == ["impossible"]

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert run("certify", "--config", str(cfg)) == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [b'{"schema_version": 1, "steps": ["\xff"]}', b"[" * 100000, b'{"seed": 1' + b"0" * 5000 + b"}"],
        ids=["not-utf8", "too-deep", "long-integer"],
    )
    def test_unparsable_config_exit_2(self, tmp_path, capsys, payload):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(payload)
        assert run("certify", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("config: malformed JSON: ")

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, [{"kind": "sample", "name": "g", "dim": 2}])
        assert run("certify", "--config", str(cfg)) == 2
        assert "steps[0]" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 99, "steps": [{}]}))
        assert run("certify", "--config", str(cfg)) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        steps = [
            {"kind": "sample", "name": "g", "dim": 3, "degree": 4, "out": "g.qtpe"},
            {"kind": "lambda", "name": "lam", "ensemble": "g.qtpe", "t": 1},
            {"kind": "closeness", "name": "close", "D": 2, "d": 4, "t": 2},
        ]
        cfg = self._write_config(tmp_path, steps)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run("certify", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("certify", "--config", str(cfg), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_replicates_zigzag_acceptance_criterion(self, tmp_path):
        # same shape as the zigzag acceptance check: (D=32, d=8) against
        # (d=8, s=4), measured lambdas compared to the closed-form bound
        steps = [
            {"kind": "sample", "name": "g", "dim": 32, "degree": 8, "out": "g.qtpe"},
            {"kind": "sample", "name": "h", "dim": 8, "degree": 4, "out": "h.qtpe"},
            {
                "kind": "zigzag",
                "name": "product",
                "g": "g.qtpe",
                "h": "h.qtpe",
                "zz_kind": "zigzag",
                "out": "gh.qtpe",
                "check_bound_t": 1,
                "bound_tol": 1e-6,
                "tol": 1e-6,
            },
        ]
        cfg = self._write_config(tmp_path, steps, seed=2)
        out = tmp_path / "report.json"
        assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"]
        step = doc["steps"][2]
        assert step["members"] == 16
        assert step["bound_check"]["satisfied"]

    @pytest.mark.parametrize("method", ["auto", "dense-svd", "power-iteration"])
    def test_lambda_method_field(self, tmp_path, method):
        steps = [
            {"kind": "sample", "name": "g", "dim": 2, "degree": 4, "out": "g.qtpe"},
            {"kind": "lambda", "name": "lam", "ensemble": "g.qtpe", "t": 1, "method": method, "tol": 1e-8},
        ]
        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._write_config(tmp_path, steps)), "--out", str(out)) == 0
        step = json.loads(out.read_text())["steps"][1]
        assert step["method"] == ("dense-svd" if method == "auto" else method)

    @pytest.mark.parametrize("method", ["svd", "", "Auto"])
    def test_unknown_method_exit_2_before_the_basis(self, tmp_path, capsys, monkeypatch, method):
        import qtpe.moments as m

        def no_basis(*args, **kwargs):
            raise AssertionError("the fixed-space basis was built")

        monkeypatch.setattr(m, "fixed_space_basis", no_basis)
        steps = [
            {"kind": "sample", "name": "g", "dim": 2, "degree": 4, "out": "g.qtpe"},
            {"kind": "lambda", "name": "lam", "ensemble": "g.qtpe", "t": 1, "method": method},
        ]
        assert run("certify", "--config", str(self._write_config(tmp_path, steps))) == 2
        assert "config.steps[1].method: expected one of auto, dense-svd, power-iteration" in capsys.readouterr().err

    def test_closeness_at_t1_passes(self, tmp_path):
        steps = [{"kind": "closeness", "name": "c1", "D": 2, "d": 2, "t": 1}]
        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._write_config(tmp_path, steps)), "--out", str(out)) == 0
        assert json.loads(out.read_text())["steps"][0]["pass"]

    def test_epsgood_size_checked_before_drawing(self, tmp_path, capsys, monkeypatch):
        import qtpe.cli as cli

        draws = []
        monkeypatch.setattr(cli, "haar_unitary", lambda *args: draws.append(args))
        steps = [{"kind": "epsgood", "name": "big", "d": 2, "dprime": 2, "k": 40, "eps": 0.2}]
        assert run("certify", "--config", str(self._write_config(tmp_path, steps))) == 2
        assert draws == []
        assert "sampled mode" in capsys.readouterr().err

    def _sampled_step_refused_before_drawing(self, tmp_path, capsys, monkeypatch, d, k):
        import qtpe.cli as cli

        draws = []
        monkeypatch.setattr(cli, "haar_unitary", lambda *args: draws.append(args))
        steps = [
            {"kind": "epsgood", "name": "big", "d": d, "dprime": 2, "k": k, "eps": 0.2, "mode": "sampled", "budget": 5}
        ]
        assert run("certify", "--config", str(self._write_config(tmp_path, steps))) == 2
        assert draws == []
        return capsys.readouterr().err

    def test_epsgood_sampled_count_checked_before_drawing(self, tmp_path, capsys, monkeypatch):
        err = self._sampled_step_refused_before_drawing(tmp_path, capsys, monkeypatch, 2, 5000)
        assert "config.steps[0]: sampled configuration count" in err

    def test_epsgood_sampled_walk_checked_before_drawing(self, tmp_path, capsys, monkeypatch):
        # d = 1: 2 * 79999 configurations fit the sampler, but 5 picks may walk 79999 steps each
        err = self._sampled_step_refused_before_drawing(tmp_path, capsys, monkeypatch, 1, 80000)
        assert "config.steps[0]: sampled walk" in err

    def test_epsgood_sampled_long_tuple_runs(self, tmp_path):
        # 4*(2^40 - 2) configurations, of which the step visits only the 5 picks
        steps = [
            {"kind": "epsgood", "name": "long", "d": 2, "dprime": 2, "k": 40, "eps": 0.9, "mode": "sampled", "budget": 5}
        ]
        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._write_config(tmp_path, steps)), "--out", str(out)) == 0
        step = json.loads(out.read_text())["steps"][0]
        assert step["good"] and step["coverage"] == pytest.approx(5 / (4 * (2**40 - 2)), rel=1e-12)

    def test_sample_step_huge_dim_exit_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        import qtpe.ensemble as ens

        draws = []
        monkeypatch.setattr(ens, "haar_unitary", lambda *args: draws.append(args))
        steps = [{"kind": "sample", "name": "g", "dim": 100000, "degree": 4, "out": "g.qtpe"}]
        assert run("certify", "--config", str(self._write_config(tmp_path, steps))) == 2
        assert draws == []
        assert "config.steps[0]: dimension 100000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step",
        [
            {"bound": "generalised", "l1": 0.1, "l2": 2.0, "k": 2000, "t": 1, "d": 2, "dprime": 2, "eps": 1e-3},
            {"bound": "improved", "l1": 1e200, "l2": 0.2, "t": 1, "d": 8},
        ],
    )
    def test_overflowing_bound_exit_2(self, tmp_path, capsys, step):
        cfg = self._write_config(tmp_path, [dict(step, kind="bound")])
        assert run("certify", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config.steps[0]: numeric inputs out of range")

    def test_generalised_bound_at_large_k(self, tmp_path):
        step = {"kind": "bound", "bound": "generalised", "l1": 0.1, "l2": 0.2, "k": 600, "t": 1, "d": 4, "dprime": 1,
                "eps": 1e-3}
        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._write_config(tmp_path, [step])), "--out", str(out)) == 0
        assert json.loads(out.read_text())["steps"][0]["value"] == pytest.approx(8 * 0.107, abs=1e-12)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"eps": -1.0}, "eps must be positive"),
            ({"eps": 0.0}, "eps must be positive"),
            ({"d": -1, "dprime": -1}, "d and d' must be >= 1"),
        ],
        ids=["eps-negative", "eps-zero", "d-negative"],
    )
    def test_generalised_bound_bad_input_exit_2(self, tmp_path, capsys, fields, message):
        step = {"kind": "bound", "bound": "generalised", "l1": 0.1, "l2": 0.2, "k": 2, "t": 1, "d": 8, "dprime": 8,
                "eps": 1e-3}
        assert run("certify", "--config", str(self._write_config(tmp_path, [dict(step, **fields)]))) == 2
        assert f"config.steps[0]: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("d,dprime,k,eps", [(2, 2, 2, -0.1), (1, 4, 3, 0.0)])
    def test_epsgood_nonpositive_eps_exit_2(self, tmp_path, capsys, monkeypatch, d, dprime, k, eps):
        import qtpe.cli as cli

        draws = []
        monkeypatch.setattr(cli, "haar_unitary", lambda *args: draws.append(args))
        step = {"kind": "epsgood", "d": d, "dprime": dprime, "k": k, "eps": eps, "expect_good": False}
        assert run("certify", "--config", str(self._write_config(tmp_path, [step]))) == 2
        assert draws == []  # refused before the k draws
        assert "config.steps[0]: eps must be positive" in capsys.readouterr().err

    def test_epsgood_step(self, tmp_path):
        steps = [
            {
                "kind": "epsgood",
                "name": "identity-rejected",
                "d": 2,
                "dprime": 2,
                "k": 2,
                "eps": 0.2,
                "expect_good": True,
            }
        ]
        cfg = self._write_config(tmp_path, steps, seed=3)
        out = tmp_path / "r.json"
        code = run("certify", "--config", str(cfg), "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["steps"][0]["kind"] == "epsgood"
        assert code in (0, 1)


class TestCertifyProducts:
    """Each product kind is checked against its own bound, as `qtpe zigzag` does."""

    def _run(self, tmp_path, zz_step, g_dim=4, h_dim=4, seed=3):
        steps = [
            {"kind": "sample", "name": "g", "dim": g_dim, "degree": 4, "out": "g.qtpe"},
            {"kind": "sample", "name": "h", "dim": h_dim, "degree": 4, "out": "h.qtpe"},
            dict({"kind": "zigzag", "name": "p", "g": "g.qtpe", "h": "h.qtpe", "out": "gh.qtpe"}, **zz_step),
        ]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": seed, "steps": steps}))
        out = tmp_path / "report.json"
        code = run("certify", "--config", str(cfg), "--out", str(out))
        return code, (json.loads(out.read_text()) if out.exists() else None)

    def test_derandomised_uses_its_own_bound(self, tmp_path):
        # seed 3, g and h of dim 4 and degree 4: the plain zigzag formula gives
        # 2.6711 here, the derandomised one 2.6038
        code, doc = self._run(tmp_path, {"zz_kind": "derandomised", "check_bound_t": 1})
        assert code == 0
        check = doc["steps"][2]["bound_check"]
        expected = bound_zigzag_derandomised(check["lambda1"], check["lambda2"], 1, 4).value
        assert check["bound"] == expected
        assert check["bound"] == pytest.approx(2.6038, abs=1e-4)
        assert check["bound"] != pytest.approx(bound_zigzag(check["lambda1"], check["lambda2"], 1, 4).value)

    def test_generalised_uses_its_own_bound(self, tmp_path):
        code, doc = self._run(tmp_path, {"zz_kind": "generalised", "k": 2, "check_bound_t": 1})
        assert code == 0
        step = doc["steps"][2]
        assert step["members"] == 16
        check = step["bound_check"]
        # epsilon is fixed at the `qtpe zigzag --eps` default: the config has no field for it
        assert check["bound"] == bound_genzigzag(check["lambda1"], check["lambda2"], 2, 1, 4, 1, 1e-3).value

    def test_generalised_inner_dimension_must_split(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, {"zz_kind": "generalised", "k": 2}, h_dim=6)
        assert code == 2
        assert "not a multiple of outer degree" in capsys.readouterr().err

    def test_unknown_product_kind_exit_2(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, {"zz_kind": "spiral"})
        assert code == 2
        assert "spiral" in capsys.readouterr().err


class TestCertifyFields:
    def _config(self, tmp_path, steps, seed=1):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": seed, "steps": steps}))
        return cfg

    @pytest.mark.parametrize(
        "step,field",
        [
            ({"kind": "sample", "dim": "abc", "degree": 4, "out": "g.qtpe"}, "steps[0].dim"),
            ({"kind": "sample", "dim": 2.5, "degree": 4, "out": "g.qtpe"}, "steps[0].dim"),
            ({"kind": "sample", "dim": True, "degree": 4, "out": "g.qtpe"}, "steps[0].dim"),
            ({"kind": "sample", "dim": 2, "degree": 4, "out": 7}, "steps[0].out"),
            ({"kind": "bound", "bound": "zigzag", "l1": "x", "l2": 0.1, "t": 1, "d": 8}, "steps[0].l1"),
            ({"kind": "bound", "bound": "zigzag", "l1": 0.1, "l2": 0.1, "t": [1], "d": 8}, "steps[0].t"),
            ({"kind": "closeness", "D": 2, "d": {}, "t": 1}, "steps[0].d"),
            ({"kind": 3}, "steps[0].kind"),
            ({"kind": "sample", "dim": 2, "degree": 4, "out": "g\0.qtpe"}, "steps[0].out"),
        ],
    )
    def test_wrong_type_exit_2_names_field(self, tmp_path, capsys, step, field):
        assert run("certify", "--config", str(self._config(tmp_path, [step]))) == 2
        err = capsys.readouterr().err
        assert f"config.{field}:" in err
        assert "Traceback" not in err

    def test_missing_field_names_path(self, tmp_path, capsys):
        cfg = self._config(tmp_path, [{"kind": "bound", "bound": "zigzag", "l1": 0.1, "t": 1, "d": 8}])
        assert run("certify", "--config", str(cfg)) == 2
        assert "config.steps[0].l2: missing field" in capsys.readouterr().err

    def test_missing_kind_names_field(self, tmp_path, capsys):
        assert run("certify", "--config", str(self._config(tmp_path, [{"name": "x", "dim": 2}]))) == 2
        assert capsys.readouterr().err == "config.steps[0].kind: missing field\n"

    @pytest.mark.parametrize(
        "step",
        [
            {"kind": "design_error", "ensemble": "g.qtpe", "t": 1, "tol": -5},
            {"kind": "zigzag", "g": "g.qtpe", "h": "h.qtpe", "out": "gh.qtpe", "check_bound_t": 1, "bound_tol": -5},
        ],
        ids=["design_error-tol", "zigzag-bound_tol"],
    )
    def test_negative_margin_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch, step):
        # a check passes when a measured value is at most its bound plus the margin:
        # a negative margin would fail a check that holds
        import qtpe.moments as m

        solves = []
        monkeypatch.setattr(m, "lambda_report", lambda *args, **kwargs: solves.append(args))
        samples = [
            {"kind": "sample", "dim": 2, "degree": 4, "out": "g.qtpe"},
            {"kind": "sample", "dim": 4, "degree": 4, "out": "h.qtpe"},
        ]
        assert run("certify", "--config", str(self._config(tmp_path, samples + [step]))) == 2
        field = "tol" if step["kind"] == "design_error" else "bound_tol"
        assert capsys.readouterr().err == f"config.steps[2].{field}: expected a number >= 0, got -5.0\n"
        assert solves == [] and not (tmp_path / "gh.qtpe").exists()

    @pytest.mark.parametrize("seed", ["7", -1, 1.5])
    def test_bad_seed_exit_2(self, tmp_path, capsys, seed):
        cfg = self._config(tmp_path, [{"kind": "bound", "bound": "zigzag", "l1": 0.1, "l2": 0.1, "t": 1, "d": 8}], seed)
        assert run("certify", "--config", str(cfg)) == 2
        assert "config.seed" in capsys.readouterr().err

    def test_zero_dimension_in_bound_exit_2(self, tmp_path):
        cfg = self._config(tmp_path, [{"kind": "bound", "bound": "zigzag", "l1": 0.1, "l2": 0.1, "t": 1, "d": 0}])
        assert run("certify", "--config", str(cfg)) == 2


_BASE_STEPS = [
    {"kind": "sample", "name": "g", "dim": 2, "degree": 4, "out": "g.qtpe"},
    {"kind": "sample", "name": "h", "dim": 4, "degree": 4, "out": "h.qtpe"},
    {"kind": "lambda", "name": "lam", "ensemble": "g.qtpe", "t": 1, "tol": 1e-8, "assert_below": 1.0},
    {"kind": "zigzag", "name": "zz", "g": "g.qtpe", "h": "h.qtpe", "zz_kind": "zigzag", "out": "gh.qtpe"},
    {"kind": "design_error", "name": "de", "ensemble": "g.qtpe", "t": 1, "ks": [1, 2]},
    {"kind": "closeness", "name": "close", "D": 2, "d": 4, "t": 2},
    {"kind": "epsgood", "name": "eg", "d": 2, "dprime": 2, "k": 2, "eps": 0.5, "expect_good": True},
    {"kind": "bound", "name": "b", "bound": "generalised", "l1": 0.1, "l2": 0.2, "k": 2, "t": 1, "d": 8, "dprime": 8,
     "eps": 0.005},
]

# Type confusion is the point, so values stay small: a valid dimension of
# 10^5 would legitimately ask for gigabytes, and that is not what is tested.
_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.integers(10**20, 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="ab.0\0", max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(alphabet="ab", max_size=2), st.integers(0, 2), max_size=2),
)


def _certify_code(folder, steps, seed):
    cfg = folder / "config.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": seed, "steps": steps}))
    return run("certify", "--config", str(cfg), "--out", str(folder / "report.json"))


# 0 pass, 1 a check failed, 2 usage, 3 non-convergence, 4 I/O
_DOCUMENTED_EXIT_CODES = (0, 1, 2, 3, 4)


def test_fuzz_base_config_passes(tmp_path):
    assert _certify_code(tmp_path, _BASE_STEPS, 1) == 0


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(0, len(_BASE_STEPS) - 1), field=st.integers(0, 20), value=_FUZZ_VALUES)
def test_fuzzed_step_fields_give_documented_exit_codes(tmp_path_factory, index, field, value):
    steps = [dict(step) for step in _BASE_STEPS]
    names = sorted(steps[index]) + ["unknown"]
    steps[index][names[field % len(names)]] = value
    assert _certify_code(tmp_path_factory.mktemp("fuzz"), steps, 1) in _DOCUMENTED_EXIT_CODES


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=_FUZZ_VALUES)
def test_fuzzed_seed_gives_documented_exit_codes(tmp_path_factory, seed):
    assert _certify_code(tmp_path_factory.mktemp("fuzz"), _BASE_STEPS[:3], seed) in _DOCUMENTED_EXIT_CODES


class TestDesignErrorStep:
    def _config(self, tmp_path, ks=(1, 2), dim=2, t=2):
        steps = [
            {"kind": "sample", "name": "g", "dim": dim, "degree": 4, "out": "g.qtpe"},
            {"kind": "design_error", "name": "de", "ensemble": "g.qtpe", "t": t, "ks": list(ks)},
        ]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": 5, "steps": steps}))
        return cfg

    def test_matches_monomial_errors(self, tmp_path):
        import itertools

        from qtpe.moments import design_error_monomial, lambda_report

        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._config(tmp_path)), "--out", str(out)) == 0
        step = json.loads(out.read_text())["steps"][1]
        e = load(tmp_path / "g.qtpe")
        lam = step["lambda"]
        tuples = list(itertools.product(range(2), repeat=2))
        worst = 0.0
        for k in (1, 2):
            for rows in tuples:
                for cols in tuples:
                    worst = max(worst, design_error_monomial(e, 2, k, rows, cols) - lam**k)
        assert step["converged"] and step["pass"]
        assert step["worst_excess"] == worst

    def test_unconverged_lambda_fails_the_step(self, tmp_path, monkeypatch):
        import dataclasses

        import qtpe.moments as m

        real = m.lambda_report

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(m, "lambda_report", unconverged)
        out = tmp_path / "r.json"
        assert run("certify", "--config", str(self._config(tmp_path)), "--out", str(out)) == 1
        step = json.loads(out.read_text())["steps"][1]
        assert step["converged"] is False and step["pass"] is False
        assert "worst_excess" not in step

    def test_nonpositive_k_exit_2(self, tmp_path):
        assert run("certify", "--config", str(self._config(tmp_path, ks=(1, 0)))) == 2

    @pytest.mark.parametrize("ks", [(0,), (2**31 - 1,)], ids=["zero", "huge"])
    def test_powers_checked_before_lambda(self, tmp_path, capsys, monkeypatch, ks):
        # 3 * (2^31 - 1) applies would run for hours; k = 0 bounds nothing
        import qtpe.moments as m

        solves = []
        monkeypatch.setattr(m, "lambda_report", lambda *args, **kwargs: solves.append(args))
        assert run("certify", "--config", str(self._config(tmp_path, ks, dim=3, t=1))) == 2
        assert solves == []
        assert "config.steps[1].ks: " in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exit_2(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag_exit_2(self):
        assert run("sample", "--dim", "4") == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run("lambda", "--ensemble", str(tmp_path / "nope.qtpe"), "--t", "1")
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--ensemble", "g.qtpe", "--t", "1", "--bound", "0.5"],
            ["zigzag", "--g", "g.qtpe", "--h", "h.qtpe", "--out", "gh.qtpe", "--double-g"],
            ["zigzag", "--g", "g.qtpe", "--h", "h.qtpe", "--out", "gh.qtpe", "--double-h"],
            ["zigzag", "--g", "g.qtpe", "--h", "h.qtpe", "--out", "gh.qtpe", "--eps", "0.01"],
        ],
    )
    def test_removed_flags_exit_2(self, argv):
        assert run(*argv) == 2

    def test_subcommand_overflow_exit_2(self, capsys, monkeypatch):
        import qtpe.cli as cli

        def overflow(*args):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli, "_run_step", overflow)
        assert run("lambda", "--ensemble", "g.qtpe", "--t", "1") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: numeric inputs out of range")


# magic 4 bytes, version 1, dim 4, count 4, involution flag 1
_HEADER = 14
_DIM, _COUNT = 2, 4
_INVOLUTION = (2, 3, 0, 1)  # that of sample_random_qtpe at degree 4
_PAYLOAD_FLOATS = 2 * _COUNT * _DIM * _DIM

_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, _HEADER - 1), st.integers(1, 255)),
    st.tuples(st.just("size"), st.sampled_from([5, 9]), st.integers(2**16, 2**32 - 1)),
    st.tuples(st.just("truncate"), st.integers(0, _HEADER + 4 * _COUNT + 8 * _PAYLOAD_FLOATS - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)),
    st.tuples(st.just("nan"), st.integers(0, _PAYLOAD_FLOATS - 1)),
    st.tuples(st.just("involution"), st.lists(st.integers(0, 2**32 - 1), min_size=_COUNT, max_size=_COUNT)),
)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, where, *rest = mutation
    out = bytearray(raw)
    if kind == "flip":
        out[where] ^= rest[0]
    elif kind == "size":  # dim at byte 5, count at byte 9
        out[where : where + 4] = struct.pack("<I", rest[0])
    elif kind == "truncate":
        del out[where:]
    elif kind == "append":
        out += where
    elif kind == "nan":
        offset = len(raw) - 8 * _PAYLOAD_FLOATS + 8 * where
        out[offset : offset + 8] = struct.pack("<d", float("nan"))
    else:
        assume(tuple(where) != _INVOLUTION)
        out[_HEADER : _HEADER + 4 * _COUNT] = struct.pack(f"<{_COUNT}I", *where)
    return bytes(out)


def _valid_qtpe(folder) -> bytes:
    path = folder / "valid.qtpe"
    save(sample_random_qtpe(_DIM, _COUNT, SeededRng(0)), path)
    return path.read_bytes()


def test_unmutated_qtpe_is_accepted(tmp_path):
    path = tmp_path / "m.qtpe"
    path.write_bytes(_valid_qtpe(tmp_path))
    assert run("lambda", "--ensemble", str(path), "--t", "1") == 0


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_MUTATIONS)
def test_mutated_qtpe_gives_exit_2_or_4(tmp_path_factory, capsys, mutation):
    folder = tmp_path_factory.mktemp("qtpe")
    path = folder / "m.qtpe"  # no sidecar: the binary file alone is read
    path.write_bytes(_mutate(_valid_qtpe(folder), mutation))
    capsys.readouterr()
    assert run("lambda", "--ensemble", str(path), "--t", "1") in (2, 4)
    assert "Traceback" not in capsys.readouterr().err
