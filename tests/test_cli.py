import dataclasses
import json
import sys

import numpy as np

from koopsyn import cli, controller, edmd, sdp


def run_pipeline(tmp_path, example="cooked_up", d=400, extra=()):
    out = str(tmp_path)
    for cmd in ("collect", "fit", "design"):
        rc = cli.main([cmd, "--example", example, "--out", out,
                       "--d", str(d), *extra])
        assert rc == 0, cmd
    return tmp_path


class TestConfig:
    def test_example_dump(self, capsys):
        assert cli.main(["example-config", "cooked_up"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_bound"]["c_r"] == 0.1

    def test_unknown_example(self):
        assert cli.main(["example-config", "nope"]) == cli.EXIT_BAD_INPUT

    def test_bad_config_rejected(self, tmp_path):
        cfg = cli.example_config("cooked_up")
        cfg["error_bound"]["c_r"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["collect", "--config", str(path)]) == cli.EXIT_BAD_INPUT

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KOOPSYN_OUT", str(tmp_path))
        rc = cli.main(["collect", "--example", "cooked_up", "--out", "sub",
                       "--d", "5"])
        assert rc == 0
        assert (tmp_path / "sub" / "samples_u0.csv").exists()


class TestCollect:
    def test_files_and_rows(self, tmp_path):
        rc = cli.main(["collect", "--example", "cooked_up",
                       "--out", str(tmp_path), "--d", "50"])
        assert rc == 0
        for k in (0, 1):
            rows = (tmp_path / f"samples_u{k}.csv").read_text().strip().splitlines()
            assert len(rows) == 51  # header + d

    def test_single_sample_smoke(self, tmp_path):
        assert cli.main(["collect", "--example", "cooked_up",
                         "--out", str(tmp_path), "--d", "1"]) == 0
        rows = (tmp_path / "samples_u0.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["collect", "--example", "cooked_up",
                             "--out", str(out), "--d", "20"]) == 0
        for k in (0, 1):
            assert (a / f"samples_u{k}.csv").read_bytes() == \
                (b / f"samples_u{k}.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        cli.main(["collect", "--example", "cooked_up", "--out", str(tmp_path),
                  "--d", "5"])
        man = json.loads((tmp_path / "manifest_collect.json").read_text())
        assert man["command"] == "collect"
        assert any("samples_u0.csv" in o for o in man["outputs"])


class TestFitAndDesign:
    def test_fit_requires_samples(self, tmp_path):
        assert cli.main(["fit", "--example", "cooked_up",
                         "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT

    def test_design_requires_surrogate(self, tmp_path):
        assert cli.main(["design", "--example", "cooked_up",
                         "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT

    def test_pipeline_artifacts(self, tmp_path):
        run_pipeline(tmp_path)
        for name in ("surrogate.json", "fit_report.json", "design.json",
                     "region.json", "roa.dat", "design_log.json"):
            assert (tmp_path / name).exists()
        log = json.loads((tmp_path / "design_log.json").read_text())
        names = [c["name"] for c in log["constraint_manifest"]["constraints"]]
        assert "invariance" in names

    def test_design_gain_structure(self, tmp_path):
        run_pipeline(tmp_path, d=2000)
        design = json.loads((tmp_path / "design.json").read_text())
        K = np.asarray(design["K"]["data"]).reshape(design["K"]["shape"])
        assert abs(K[0, 0]) < 0.05

    def test_infeasible_exit_code(self, tmp_path):
        out = str(tmp_path)
        assert cli.main(["collect", "--example", "cooked_up", "--out", out,
                         "--d", "200"]) == 0
        assert cli.main(["fit", "--example", "cooked_up", "--out", out,
                         "--d", "200", "--c-r", "10.0"]) == 0
        rc = cli.main(["design", "--example", "cooked_up", "--out", out,
                       "--d", "200", "--c-r", "10.0"])
        assert rc == cli.EXIT_INFEASIBLE

    def test_missing_backend_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "cvxopt", None)
        out = str(tmp_path)
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--example", "cooked_up", "--out", out,
                             "--d", "200"]) == 0
        capsys.readouterr()
        rc = cli.main(["design", "--example", "cooked_up", "--out", out,
                       "--d", "200", "--backend", "cvxopt"])
        assert rc == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "cvxopt" in err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "design.json").exists()

    def test_unknown_backend_in_config(self, tmp_path, capsys):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path)
        cfg["sampling"]["d"] = 200
        cfg["solver"]["backend"] = "foo"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["design", "--config", str(path)]) == cli.EXIT_BAD_INPUT
        assert "unknown solver backend 'foo'" in capsys.readouterr().err
        assert not (tmp_path / "design.json").exists()

    def test_objective_failure_falls_back_to_feasibility(self, tmp_path,
                                                          monkeypatch):
        out = str(tmp_path)
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--example", "cooked_up", "--out", out,
                             "--d", "400"]) == 0
        solve, reports = sdp.solve, []

        def objective_stalls(program, options=None):
            report = solve(program, options)
            if np.any(program.c):
                report.status = "iteration_limit"
            reports.append(report)
            return report

        monkeypatch.setattr(sdp, "solve", objective_stalls)
        assert cli.main(["design", "--example", "cooked_up", "--out", out,
                         "--d", "400"]) == 0
        assert [r.status for r in reports] == ["iteration_limit", "feasible"]
        log = json.loads((tmp_path / "design_log.json").read_text())
        assert log["status"] == "feasible"
        assert log["iterations"] == reports[1].iterations
        manifest = log["constraint_manifest"]
        assert manifest["objective"] is None
        assert "roa_radius" not in [c["name"] for c in manifest["constraints"]]
        design = json.loads((tmp_path / "design.json").read_text())
        assert "roa_radius" not in design["margins"]

    def test_design_deterministic(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for out in (a, b):
            rc = cli.main(["verify", "--example", "cooked_up", "--out",
                           str(out), "--d", "400"])
            assert rc == 0
        for name in ("design.json", "roa.dat", "surrogate.json",
                     "verify_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_pendulum_both_designs_feasible(self, tmp_path):
        for thm in ("1", "2"):
            out = tmp_path / f"thm{thm}"
            for cmd in ("collect", "fit", "design"):
                rc = cli.main([cmd, "--example", "pendulum", "--out", str(out),
                               "--d", "4000", "--theorem", thm])
                assert rc == 0, (cmd, thm)

    def test_heuristic_design_logs_step1(self, tmp_path):
        out = str(tmp_path)
        for cmd in ("collect", "fit", "design"):
            rc = cli.main([cmd, "--example", "pendulum_shaped", "--out", out,
                           "--d", "3000"])
            assert rc == 0, cmd
        log = json.loads((tmp_path / "design_log.json").read_text())
        assert "heuristic" in log
        assert "invariance" not in log["heuristic"]["step1_constraints"]
        final_names = [c["name"]
                       for c in log["constraint_manifest"]["constraints"]]
        assert "invariance" in final_names


class TestReproduceCommand:
    def test_verifier_rejection_exit_code(self, tmp_path, monkeypatch, capsys):
        verify = sdp.verify

        def reject(problem, assignment, slack=1e-7):
            return dataclasses.replace(verify(problem, assignment, slack), ok=False)

        monkeypatch.setattr(sdp, "verify", reject)
        rc = cli.main(["reproduce", "fig2", "--out", str(tmp_path)])
        assert rc == cli.EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "verifier rejected" in err
        assert not (tmp_path / "fig2_design.json").exists()


class TestVerifyCommand:
    def test_verify_reports(self, tmp_path):
        run_pipeline(tmp_path)
        rc = cli.main(["verify", "--example", "cooked_up",
                       "--out", str(tmp_path), "--d", "400"])
        assert rc == 0
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep["n_converged"] == len(rep["trajectories"])
        assert (tmp_path / "traj_000.dat").exists()
        cols = np.loadtxt(tmp_path / "traj_000.dat", ndmin=2)
        assert cols.shape[1] == 1 + 2 + 1 + 1  # t, states, input, V
        # the batched start sampler keeps the one-draw-per-try stream
        design = controller.DesignResult.from_json(
            (tmp_path / "design.json").read_text())
        lifting = edmd.Surrogate.from_json(
            (tmp_path / "surrogate.json").read_text()).lifting
        vcfg = cli.example_config("cooked_up")["verify"]
        rng = np.random.default_rng(vcfg["seed"])
        rmax = float(np.max(controller.roa_boundary_2d(
            design, lifting, resolution=180).radii))
        expected = []
        while len(expected) < vcfg["n_starts"]:
            x = rng.uniform(-rmax, rmax, size=2)
            if controller.roa_membership(design, lifting, x)[1] <= 0.99:
                expected.append(x.tolist())
        assert [r["x0"] for r in rep["trajectories"]] == expected

    def test_verify_lqr_grid(self, tmp_path):
        cfg = cli.example_config("cooked_up")
        cfg["sampling"]["d"] = 400
        cfg["output_dir"] = str(tmp_path)
        cfg["verify"] = {"n_starts": 3, "seed": 5, "horizon": 20.0,
                         "rtol": 1e-7, "lqr": True, "lqr_weights": [1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "design", "verify"):
            assert cli.main([cmd, "--config", str(path)]) == 0, cmd
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(rep["lqr_grid"]) == 1
        entry = rep["lqr_grid"][0]
        assert entry["care_relative_residual"] <= 1e-8
        assert len(entry["trajectories"]) == 3


class TestD0Command:
    def test_report(self, tmp_path):
        rc = cli.main(["d0", "--example", "cooked_up", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "d0_report.json").read_text())
        assert 16.8 <= doc["log10_d0"] <= 18.8
