import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from koopsyn import cli, controller, edmd, lmi, sdp, verify
from koopsyn.matops import encode_matrix


def run_pipeline(tmp_path, example="cooked_up", d=400, extra=()):
    out = str(tmp_path)
    for cmd in ("collect", "fit", "design"):
        rc = cli.main([cmd, "--example", example, "--out", out,
                       "--d", str(d), *extra])
        assert rc == 0, cmd
    return tmp_path


@pytest.fixture(scope="module")
def pendulum_run(tmp_path_factory):
    """An output directory after collect, fit, design and verify of the
    pendulum example (one sine observable) with d = 4000."""
    out = tmp_path_factory.mktemp("pendulum_run")
    run_pipeline(out, example="pendulum", d=4000)
    assert cli.main(["verify", "--example", "pendulum", "--out", str(out),
                     "--d", "4000"]) == 0
    return out


def run_cli_subprocess(threads, *argv):
    """``koopsyn`` in a fresh interpreter limited to ``threads`` BLAS threads."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "koopsyn.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# the heuristic region of pendulum_shaped
SHAPED_REGION = cli.example_config("pendulum_shaped")["region"]


def _place(cfg, section, key, value):
    """Set ``key`` in the dotted ``section`` of ``cfg`` ("" for the top
    level; a number indexes a list)."""
    for part in filter(None, section.split(".")):
        cfg = cfg[int(part)] if part.isdigit() else cfg[part]
    cfg[key] = value


class TestConfig:
    def test_example_dump(self, capsys):
        assert cli.main(["example-config", "cooked_up"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_bound"]["c_r"] == 0.1

    def test_unknown_example(self):
        assert cli.main(["example-config", "nope"]) == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("flags", [["--theorem", "3"], ["--backend", "ipm"]],
                             ids=["theorem", "backend"])
    def test_bad_command_line_exit_code(self, tmp_path, capsys, flags):
        rc = cli.main(["design", "--example", "cooked_up", "--out",
                       str(tmp_path / "out"), *flags])
        assert rc == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert flags[0] in captured.err
        assert not (tmp_path / "out").exists()

    def test_bad_config_rejected(self, tmp_path):
        cfg = cli.example_config("cooked_up")
        cfg["error_bound"]["c_r"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["collect", "--config", str(path)]) == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("where", ["solver.objectve", "verfy", "d0.points"])
    def test_unknown_config_key(self, tmp_path, capsys, where):
        # a misspelt key would otherwise fall back to its default unnoticed
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        section, _, key = where.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[key] = {}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "d0"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err == f"error: unknown config key '{where}'\n"
        assert not (tmp_path / "out").exists()

    def test_config_section_not_object(self, tmp_path, capsys):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["verify"] = 5
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["collect", "--config", str(path)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err == "error: config section 'verify' must be an object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"region": 5}', "config section 'region' must be an object"),
        ("[1]", "a config must be a JSON object"),
    ], ids=["section", "list"])
    def test_flag_on_config_that_is_not_an_object(self, tmp_path, capsys, text,
                                                   message):
        # --rz looks into the region before the config is validated
        path = tmp_path / "shape.json"
        path.write_text(text)
        assert cli.main(["collect", "--config", str(path), "--rz", "2"]) == \
            cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_region_theorem_rejected(self, tmp_path, capsys):
        cfg = cli.example_config("pendulum_shaped")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["region"]["theorem"] = 3
        path = tmp_path / "pilot.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "design"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: region.theorem must be 1 or 2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("example", ["cooked_up", "cooked_up_xy",
                                         "pendulum", "pendulum_shaped"])
    def test_known_config_keys_accepted(self, example):
        cfg = cli.example_config(example)
        assert cli.validate_config(cfg) is cfg
        cfg.update(resolution=90, d0={"method": "mc", "samples": 1 << 21,
                                      "replicates": 8, "seed": 0, "sobol": True})
        cfg["solver"].update(t_cap=1.0, backend="ipm")
        assert cli.validate_config(cfg) is cfg

    @pytest.mark.parametrize("section, key, value, message", [
        ("error_bound", "c_r", "0.1",
         "error_bound.c_r must be a positive finite number"),
        ("error_bound", "delta", True, "error_bound.delta must be a number in (0, 1)"),
        ("sampling", "d", "500", "sampling.d must be an integer of at least 1"),
        ("sampling", "d", 500.0, "sampling.d must be an integer of at least 1"),
        ("sampling", "d", True, "sampling.d must be an integer of at least 1"),
        ("lifting", "extras", 5, "lifting.extras must be a list"),
        ("plant", "params", [1], "plant.params must be an object"),
        ("", "output_dir", 5, "output_dir must be a string"),
        ("lifting.extras.0", "params", [1],
         "lifting.extras[0].params must be an object"),
        ("plant.params", "rho", [1], "plant parameter 'rho' must be a number, not [1]"),
        ("region", "Qz", "x", "region.Qz must be a list of rows of finite numbers"),
        ("region", "heuristic", "false", "region.heuristic must be true or false"),
        ("verify", "lqr", "no", "verify.lqr must be true or false"),
        ("error_bound", "c_r", float("nan"),
         "error_bound.c_r must be a positive finite number"),
        ("error_bound", "c_r", float("inf"),
         "error_bound.c_r must be a positive finite number"),
        ("plant.params", "rho", float("nan"), "plant parameter 'rho' must be finite, not nan"),
        ("plant.params", "lam", -float("inf"),
         "plant parameter 'lam' must be finite, not -inf"),
        ("lifting.extras.0", "parms", {"terms": [[1.0, [0, 1]]]},
         "unknown config key 'lifting.extras[0].parms'"),
        ("lifting.extras.0.params", "scale", 2,
         "observable 'poly' has no parameter 'scale' (it takes terms)"),
    ], ids=["c_r-string", "delta-bool", "d-string", "d-float", "d-bool",
            "extras-number", "params-list", "output-dir-number",
            "extra-params-list", "plant-param-list", "Qz-string",
            "heuristic-string", "lqr-string", "c_r-nan", "c_r-infinity",
            "plant-param-nan", "plant-param-infinity", "extra-unknown-key",
            "extra-unknown-param"])
    def test_non_numeric_value_rejected(self, tmp_path, capsys, section, key,
                                        value, message):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        _place(cfg, section, key, value)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["collect", "--config", str(path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("lifting.extras.0", "params", {"index": 0, "scale": 2},
         "observable 'sine' has no parameter 'scale' (it takes index)"),
        ("lifting.extras.0", "parms", {"index": 0},
         "unknown config key 'lifting.extras[0].parms'"),
        ("plant.params", "rho", float("nan"), "plant parameter 'rho' must be finite, not nan"),
    ], ids=["observable-param", "extra-key", "plant-param-nan"])
    def test_ignored_or_non_finite_value_rejected_by_every_stage(
            self, tmp_path, capsys, section, key, value, message):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"] = [{"kind": "sine", "params": {"index": 0}}]
        cfg["region"] = {"heuristic": True}
        _place(cfg, section, key, value)
        path = tmp_path / "ignored.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "d0", "design", "verify"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_observable_kind_rejected(self, tmp_path, capsys):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"].append({"kind": "tanh", "params": {"index": 0}})
        path = tmp_path / "tanh.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "d0", "design", "verify"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: unknown observable kind 'tanh'")
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"kind": "sine", "params": {"index": 5}},
         "observable 'sine' index 5 is outside 0..1 (the plant has 2 states)"),
        ({"kind": "sine", "params": {"index": -1}},
         "observable 'sine' index -1 is outside 0..1 (the plant has 2 states)"),
        ({"kind": "poly", "params": {"terms": [[1.0, [1, 0, 2]]]}},
         "observable 'poly' exponent list [1, 0, 2] has length 3, but the "
         "plant has 2 states"),
    ], ids=["index-5", "index-negative", "poly-3-exponents"])
    def test_observable_outside_state_dimension_rejected(self, tmp_path, capsys,
                                                         extra, message):
        cfg = cli.example_config("pendulum")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"] = [extra]
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("verify", "n_starts", 0, "verify.n_starts must be an integer of at least 1"),
        ("verify", "n_starts", -3, "verify.n_starts must be an integer of at least 1"),
        ("verify", "n_starts", 2.5, "verify.n_starts must be an integer of at least 1"),
        ("verify", "n_starts", True, "verify.n_starts must be an integer of at least 1"),
        ("verify", "seed", 1.5, "verify.seed must be an integer of at least 0"),
        ("verify", "lqr_weights", [-1.0],
         "verify.lqr_weights must be a list of positive finite numbers"),
        ("verify", "lqr_weights", [1.0, 0.0],
         "verify.lqr_weights must be a list of positive finite numbers"),
        ("verify", "lqr_weights", 1.0,
         "verify.lqr_weights must be a list of positive finite numbers"),
        ("verify", "rtol", 0, "verify.rtol must be a positive finite number"),
        ("verify", "rtol", float("nan"), "verify.rtol must be a positive finite number"),
        ("verify", "horizon", 0.0, "verify.horizon must be a positive finite number"),
        ("verify", "horizon", -5.0, "verify.horizon must be a positive finite number"),
        ("sampling", "seed", 1.5, "sampling.seed must be an integer of at least 0"),
        ("sampling", "noise_bound", -1.0,
         "sampling.noise_bound must be a non-negative finite number"),
        ("solver", "tol", 0.0, "solver.tol must be a positive finite number"),
        ("solver", "tol", -1e-8, "solver.tol must be a positive finite number"),
        ("solver", "max_iters", 0, "solver.max_iters must be an integer of at least 1"),
        ("solver", "epsilon", 0.0, "solver.epsilon must be a positive finite number"),
        ("solver", "epsilon", -1.0, "solver.epsilon must be a positive finite number"),
        ("solver", "t_cap", 0.0, "solver.t_cap must be a positive finite number"),
        ("solver", "t_cap", -1.0, "solver.t_cap must be a positive finite number"),
        ("region", "Qz", [[-1.0]], "region.Qz must be 3x3 and region.Sz of length "
         "3, N = n + len(lifting.extras) = 2 + 1"),
        ("region", "Qz", np.eye(3).tolist(), "region.Qz must be negative definite"),
        ("region", "Sz", [0.0, 0.0], "region.Qz must be 3x3 and region.Sz of "
         "length 3, N = n + len(lifting.extras) = 2 + 1"),
        ("region", "Rz", -5.0, "region.Rz must be a positive finite number"),
        ("", "region", {**SHAPED_REGION, "rz": -5.0},
         "region.rz must be a positive finite number"),
        ("", "region", {**SHAPED_REGION, "rz_step1": "a"},
         "region.rz_step1 must be a positive finite number"),
        ("error_bound", "c_r", float("inf"),
         "error_bound.c_r must be a positive finite number"),
        ("error_bound", "delta", 1.0, "error_bound.delta must be a number in (0, 1)"),
    ], ids=["n_starts-0", "n_starts-negative", "n_starts-float", "n_starts-bool",
            "verify-seed-float", "lqr-weight-negative", "lqr-weight-zero",
            "lqr-weights-number", "rtol-0", "rtol-nan", "horizon-0", "horizon-negative",
            "sampling-seed-float", "noise-bound-negative", "tol-0",
            "tol-negative", "max-iters-0", "epsilon-0", "epsilon-negative",
            "t_cap-0", "t_cap-negative", "Qz-1x1", "Qz-positive", "Sz-short",
            "Rz-negative", "heuristic-rz-negative", "heuristic-rz-step1-string",
            "c_r-infinity", "delta-1"])
    def test_bad_setting_rejected(self, tmp_path, capsys, section, key, value,
                                  message):
        cfg = cli.example_config("pendulum")
        cfg["output_dir"] = str(tmp_path / "out")
        _place(cfg, section, key, value)
        path = tmp_path / "setting.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "design", "verify"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -5, 2.5, True],
                             ids=["0", "negative", "float", "bool"])
    def test_bad_resolution_rejected(self, tmp_path, capsys, value):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["resolution"] = value
        path = tmp_path / "resolution.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "design"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == \
                "error: resolution must be an integer of at least 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["Qz", "Sz", "Rz"])
    def test_fixed_region_keys_in_heuristic_region_rejected(self, tmp_path,
                                                            capsys, key):
        cfg = cli.example_config("pendulum_shaped")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["region"][key] = cli.example_config("pendulum")["region"][key]
        path = tmp_path / "heuristic.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["design", "--config", str(path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a heuristic region builds its own Qz, Sz and Rz; "
            f"drop region.{key} (its radius is region.rz)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [
        "output_dir", "plant.id", "lifting.extras", "lifting.extras[0].kind",
        "sampling.d", "error_bound.c_r", "error_bound.delta", "region",
        "region.Qz", "region.Sz", "region.Rz"])
    def test_missing_key_rejected(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = "out"
        if key == "lifting.extras[0].kind":
            del cfg["lifting"]["extras"][0]["kind"]
        else:
            section, _, leaf = key.rpartition(".")
            del (cfg[section] if section else cfg)[leaf]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "d0", "design", "verify"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: missing config key '{key}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["missing.json"]

    def test_extra_not_an_object_rejected(self, tmp_path, capsys):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"].append(5)
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["collect", "--config", str(path)]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == \
            "error: lifting.extras[1] must be an object\n"
        assert not (tmp_path / "out").exists()

    def test_empty_lqr_weights_accepted(self):
        cfg = cli.example_config("pendulum")
        cfg["verify"]["lqr_weights"] = []
        assert cli.validate_config(cfg) is cfg

    def test_cosine_minus_one_extra(self, tmp_path):
        cfg = cli.example_config("pendulum")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"].append(
            {"kind": "cosine_minus_one", "params": {"index": 0}})
        cfg["region"] = {"Qz": (-np.eye(4)).tolist(), "Sz": [0.0] * 4, "Rz": 12.0}
        cfg["d0"] = {"points_per_axis": 21}
        path = tmp_path / "cos.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "d0"):
            assert cli.main([cmd, "--config", str(path), "--d", "200"]) == 0, cmd
        desc = json.loads((tmp_path / "out" / "surrogate.json").read_text())["lifting"]
        assert desc["observables"][-1] == {"kind": "cosine_minus_one",
                                           "params": {"index": 0}}

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KOOPSYN_OUT", str(tmp_path))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = cli.main(["collect", "--example", "cooked_up", "--out", "sub",
                       "--d", "5"])
        assert rc == 0
        assert (tmp_path / "sub" / "samples_u0.npy").exists()
        # the figure files and their stage directory land under the same root
        assert cli.main(["reproduce", "fig2", "--out", "figs"]) == 0
        assert (tmp_path / "figs" / "fig2_design.json").exists()
        assert (tmp_path / "figs" / "fig2" / "manifest_design.json").exists()
        assert not list(cwd.iterdir())


def _schema_sections():
    """The README's "Config schema" block as the lines of each top-level key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema\n\n```jsonc\n", 1)[1].split("\n```", 1)[0]
    sections, name = {}, None
    for line in block.splitlines():
        found = re.match(r'  "(\w+)":', line)
        name = found[1] if found else name
        sections.setdefault(name, []).append(line)
    return sections


def test_readme_schema_gives_every_key_and_its_default():
    # one comment line "// <leaf>: <range>; ..." per key of the table, under
    # the key's section, saying "required" or "default <the table's default>"
    sections = _schema_sections()
    for key, (default, _) in cli.CONFIG.items():
        head, _, leaf = key.rpartition(".")
        lines = [found[1] for line in sections.get(head or key, [])
                 if (found := re.search(rf"// {leaf}: (.*)", line))]
        assert len(lines) == 1, key
        if default is cli.REQUIRED:
            expected = "; required"
        elif default is None:       # a fallback to another key's value
            expected = r"; default \w"
        else:
            shown = json.dumps(default).replace("e-0", "e-")
            expected = rf"; default {re.escape(shown)}(?![\w.])"
        assert re.search(expected, lines[0]), (key, lines[0])


def test_every_flag_sets_a_config_key():
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    flags = {action.dest for action in parser._actions} - {"help", "config", "example"}
    assert flags == set(cli.FLAG_KEYS)
    assert set(cli.FLAG_KEYS.values()) <= set(cli.CONFIG)


def test_setting_leaves_the_config_as_loaded():
    cfg = cli.example_config("pendulum_shaped")
    loaded = json.loads(json.dumps(cfg))
    cli.validate_config(cfg)
    assert cli._setting(cfg, "region.rz") == 5.0
    assert cli._setting(cfg, "solver.t_cap") == cli.CONFIG["solver.t_cap"][0]
    assert cli._setting(cfg, "d0.method") == "grid"
    assert cli._theorems(cfg) == (1, 2)
    assert cfg == loaded


class TestCollect:
    def test_files_and_rows(self, tmp_path):
        rc = cli.main(["collect", "--example", "cooked_up",
                       "--out", str(tmp_path), "--d", "50"])
        assert rc == 0
        meta = json.loads((tmp_path / "samples_meta.json").read_text())
        assert meta["columns"] == ["x_1", "x_2", "xdot_1", "xdot_2"]
        for k in (0, 1):
            rows = np.load(tmp_path / f"samples_u{k}.npy", allow_pickle=False)
            assert rows.dtype == np.float64 and rows.shape == (50, 4)

    def test_single_sample_smoke(self, tmp_path):
        assert cli.main(["collect", "--example", "cooked_up",
                         "--out", str(tmp_path), "--d", "1"]) == 0
        rows = np.load(tmp_path / "samples_u0.npy", allow_pickle=False)
        assert rows.shape == (1, 4)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["collect", "--example", "cooked_up",
                             "--out", str(out), "--d", "20"]) == 0
        for k in (0, 1):
            assert (a / f"samples_u{k}.npy").read_bytes() == \
                (b / f"samples_u{k}.npy").read_bytes()

    def test_missing_seed_collects_as_seed_0(self, tmp_path):
        for name, seed in (("zero", 0), ("unset", None)):
            cfg = cli.example_config("cooked_up")
            cfg["output_dir"] = str(tmp_path / name)
            cfg["sampling"]["d"] = 20
            if seed is None:
                del cfg["sampling"]["seed"]
            else:
                cfg["sampling"]["seed"] = seed
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main(["collect", "--config", str(path)]) == 0
        for k in (0, 1):
            assert (tmp_path / "unset" / f"samples_u{k}.npy").read_bytes() == \
                (tmp_path / "zero" / f"samples_u{k}.npy").read_bytes()

    def test_manifest_written(self, tmp_path):
        cli.main(["collect", "--example", "cooked_up", "--out", str(tmp_path),
                  "--d", "5"])
        man = json.loads((tmp_path / "manifest_collect.json").read_text())
        assert man["command"] == "collect"
        assert man["inputs"] == {}
        assert man["outputs"] == ["samples_meta.json", "samples_u0.npy",
                                  "samples_u1.npy"]


def test_manifests_do_not_depend_on_the_directory(tmp_path):
    # every stage of one config, run in two directories of different depth,
    # writes the same bytes, manifests included, and no manifest names its
    # directory
    dirs = [tmp_path / "a", tmp_path / "b" / "c" / "d"]
    for out in dirs:
        for cmd in cli.STAGES:
            assert cli.main([cmd, "--example", "cooked_up", "--out", str(out),
                             "--d", "400"]) == 0, cmd
    trees = [{p.name: p.read_bytes() for p in out.iterdir()} for out in dirs]
    assert trees[0] == trees[1]
    manifests = [trees[0][f"manifest_{cmd}.json"] for cmd in cli.STAGES]
    assert not [out for out in dirs for text in manifests if str(out).encode() in text]


class TestFitAndDesign:
    @pytest.mark.parametrize("d", [1, 2, None], ids=["d1", "d2", "example"])
    def test_fit_warns_below_the_regressor_count(self, tmp_path, d):
        # pendulum regresses on N = 3 and N + 1 = 4 rows: fewer samples fit
        # them exactly but not uniquely; the example's d = 15000 does not warn
        argv = ["--example", "pendulum", "--out", str(tmp_path)]
        argv += [] if d is None else ["--d", str(d)]
        assert cli.main(["collect", *argv]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["fit", *argv]) == 0
        rank = [str(w.message) for w in caught if "rank-deficient" in str(w.message)]
        assert bool(rank) == (d is not None), rank
        if d is not None:
            assert f"(rank {d} of 3 regressors" in rank[0]

    @pytest.mark.parametrize("argv, message", [
        (["reproduce", "fig9"], "unknown figure id 'fig9' (use fig1..fig5)"),
        (["fit", "--example", "cooked_up"],
         "missing samples_meta.json in {out}; run collect first"),
        (["design", "--example", "cooked_up"],
         "missing surrogate.json in {out}; run fit first"),
        (["verify", "--example", "cooked_up"],
         "missing surrogate.json in {out}; run fit first"),
    ], ids=["reproduce", "fit", "design", "verify"])
    def test_refused_command_makes_no_directory(self, tmp_path, capsys, argv,
                                                message):
        # a refused command writes nothing, its output directory included
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda out, meta: (out / "samples_u1.npy").write_bytes(
            (out / "samples_u1.npy").read_bytes()[:-8]),
         "samples_u1.npy: not a readable .npy array"),
        (lambda out, meta: meta.update(counts=[5, 5]),
         "samples_u0.npy has shape (50, 4), but counts[0] is 5"),
        (lambda out, meta: [np.save(out / f, np.load(out / f)[:, :3])
                            for f in meta["files"]],
         "samples_u0.npy has shape (50, 3), but counts[0] is 50 and every batch "
         "needs one even width 2n"),
        (lambda out, meta: np.save(out / "samples_u1.npy", np.load(
            out / "samples_u1.npy").astype(np.float32)),
         "samples_u1.npy must hold a 2-D float64 array"),
        (lambda out, meta: meta.update(files=["samples_u0.csv", "samples_u1.csv"]),
         "samples_meta.json: files[0] = 'samples_u0.csv' is not a .npy file; it "
         "is the text format of an earlier version, run collect again"),
        (lambda out, meta: np.save(out / "samples_u0.npy",
                                   np.array([[1.0, "a"]], dtype=object)),
         "samples_u0.npy: not a readable .npy array (Object arrays cannot be "
         "loaded when allow_pickle=False)"),
        (lambda out, meta: meta.update(counts=[50]),
         "samples_meta.json must be an object whose 'files', 'counts' and "
         "'inputs' are lists of one length"),
        (lambda out, meta: meta.update(inputs=[[0.0], [1.0, 0.0]]),
         "samples_meta.json: inputs[1] must be a list of numbers as long as "
         "inputs[0]"),
        (lambda out, meta: "[]",
         "samples_meta.json must be an object whose 'files', 'counts' and "
         "'inputs' are lists of one length"),
        (lambda out, meta: "{",
         "samples_meta.json: not JSON (Expecting property name"),
    ], ids=["truncated-batch", "wrong-counts", "odd-width", "float32", "csv-entry",
            "object-array", "lengths-differ", "input-length", "top-level-list",
            "not-json"])
    def test_bad_samples_are_bad_input(self, tmp_path, capsys, edit, message):
        # fit refuses sample files that disagree with their metadata in one
        # error line naming the file and the field, and writes nothing
        out = tmp_path / "out"
        argv = ["--example", "cooked_up", "--out", str(out), "--d", "50"]
        assert cli.main(["collect", *argv]) == 0
        meta_path = out / "samples_meta.json"
        meta = json.loads(meta_path.read_text())
        text = edit(out, meta)      # a string replaces the whole meta file
        meta_path.write_text(text if isinstance(text, str) else json.dumps(meta))
        capsys.readouterr()
        assert cli.main(["fit", *argv]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {out}")
        assert message in err
        assert not (out / "surrogate.json").exists()

    def test_measured_data_need_files_counts_and_inputs(self, tmp_path):
        # a meta of only the three keys the loader reads, as for measured
        # data, fits the surrogate that collect's full meta fits
        argv = ["--example", "cooked_up", "--d", "50"]
        assert cli.main(["collect", "--out", str(tmp_path / "a"), *argv]) == 0
        assert cli.main(["fit", "--out", str(tmp_path / "a"), *argv]) == 0
        meta = json.loads((tmp_path / "a" / "samples_meta.json").read_text())
        (tmp_path / "b").mkdir()
        for name in meta["files"]:
            shutil.copy(tmp_path / "a" / name, tmp_path / "b" / name)
        (tmp_path / "b" / "samples_meta.json").write_text(json.dumps(
            {key: meta[key] for key in ("files", "counts", "inputs")}))
        assert cli.main(["fit", "--out", str(tmp_path / "b"), *argv]) == 0
        assert ((tmp_path / "b" / "surrogate.json").read_bytes()
                == (tmp_path / "a" / "surrogate.json").read_bytes())

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

    def test_infeasible_exit_code(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli.main(["collect", "--example", "cooked_up", "--out", out,
                         "--d", "200"]) == 0
        assert cli.main(["fit", "--example", "cooked_up", "--out", out,
                         "--d", "200", "--c-r", "10.0"]) == 0
        capsys.readouterr()
        rc = cli.main(["design", "--example", "cooked_up", "--out", out,
                       "--d", "200", "--c-r", "10.0"])
        assert rc == cli.EXIT_INFEASIBLE
        # the named constraint misses its required margin by the most, which
        # need not be the one with the smallest eigenvalue
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: design infeasible \(status \w+\); most "
                             r"violated constraint '(\w+)' with margin (\S+)\n",
                             err)
        assert found and found[1] == "stability" and float(found[2]) < 0.0

    def test_missing_backend_exit_code(self, tmp_path, monkeypatch, capsys):
        # Asking for cvxopt on the command line is still bad input, not a
        # crash: the flag is gone, so argparse refuses it in one error line.
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
        for key, value, message in (
                ("backend", "foo", 'solver.backend must be "ipm"'),
                ("backend", "cvxopt", 'solver.backend must be "ipm"'),
                ("objective", "maximise_roa",
                 'solver.objective must be "feasibility" or "maximize_roa"')):
            cfg = cli.example_config("cooked_up")
            cfg["output_dir"] = str(tmp_path / value)
            cfg["solver"][key] = value
            path = tmp_path / f"{value}.json"
            path.write_text(json.dumps(cfg))
            for cmd in ("collect", "design"):
                rc = cli.main([cmd, "--config", str(path)])
                assert rc == cli.EXIT_BAD_INPUT, (value, cmd)
                assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / value).exists()
        cfg = cli.example_config("cooked_up")
        cfg["solver"]["backend"] = "ipm"
        assert cli.validate_config(cfg) is cfg

    def test_fit_report_independent_of_blas_threads(self, tmp_path):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            for cmd in ("collect", "fit"):
                run_cli_subprocess(threads, cmd, "--example", "cooked_up",
                                   "--out", str(out))
            reports.append((out / "fit_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_objective_failure_falls_back_to_feasibility(self, tmp_path,
                                                          monkeypatch):
        out = str(tmp_path)
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--example", "cooked_up", "--out", out,
                             "--d", "400"]) == 0
        solve, reports = sdp.solve, []

        def objective_stalls(program, options=None):
            report = solve(program, options)
            if not program.phase_one:
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

    @pytest.mark.parametrize("objective_stalls", [False, True],
                             ids=["objective", "fallback"])
    def test_design_log_records_every_solve(self, tmp_path, monkeypatch,
                                            objective_stalls):
        out = str(tmp_path)
        for cmd in ("collect", "fit"):
            assert cli.main([cmd, "--example", "cooked_up", "--out", out,
                             "--d", "400"]) == 0
        solve, reports, sizes = sdp.solve, [], []

        def recording(program, options=None):
            sizes.append((program.nvars,
                          max(F0.shape[0] for _, F0, _, _ in program.blocks)))
            report = solve(program, options)
            if objective_stalls and not program.phase_one:
                report.status = "iteration_limit"
            reports.append(report)
            return report

        monkeypatch.setattr(sdp, "solve", recording)
        assert cli.main(["design", "--example", "cooked_up", "--out", out,
                         "--d", "400"]) == 0
        solves = json.loads((tmp_path / "design_log.json").read_text())["solves"]
        stages = ["objective", "feasibility"] if objective_stalls else ["objective"]
        assert [e["stage"] for e in solves] == stages
        assert sum(e["iterations"] for e in solves) == sum(r.iterations for r in reports)
        for entry, report, size in zip(solves, reports, sizes):
            assert entry["status"] == report.status
            for key in ("primal_infeas", "dual_infeas", "rel_gap", "vars",
                        "largest_block"):
                assert entry[key] == report.diagnostics[key]
            # the size of the program as lowered, without the phase-I margin
            assert (entry["vars"], entry["largest_block"]) == size
            # t* belongs to the phase-I (feasibility) solve only; no wall time
            assert ("t_star" in entry) == (entry["stage"] == "feasibility")
            assert set(entry) <= {"stage", "status", "iterations", "primal_infeas",
                                  "dual_infeas", "rel_gap", "vars",
                                  "largest_block", "t_star"}

    @pytest.mark.parametrize("example", ["cooked_up", "cooked_up_xy",
                                         "pendulum", "pendulum_shaped"])
    def test_state_box_holds_the_certified_set(self, tmp_path, example):
        # V <= 1 gives |x_i| <= sqrt(P_ii): the reduced lift starts with x
        out = str(tmp_path)
        for cmd in ("collect", "fit", "design"):
            assert cli.main([cmd, "--example", example, "--out", out]) == 0, cmd
        box = np.array(json.loads((tmp_path / "design_log.json").read_text())
                       ["state_box"])
        design = controller.DesignResult.from_json(
            (tmp_path / "design.json").read_text())
        lifting = edmd.Surrogate.from_json(
            (tmp_path / "surrogate.json").read_text()).lifting
        assert np.array_equal(box, controller.certified_box(design, lifting))
        assert np.array_equal(box[:, 1], np.sqrt(np.diag(design.P)[:2]))
        rng = np.random.default_rng(7)
        X = rng.uniform(2.0 * box[:, 0], 2.0 * box[:, 1], size=(100_000, 2))
        inside = X[controller.ClosedLoop.of(design, lifting).value_many(X) <= 1.0]
        assert len(inside) > 0
        assert np.all(np.abs(inside) <= box[:, 1] * (1.0 + 1e-12))

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
        region = log["solves"][0]
        assert region["stage"] == "region"
        assert region["vars"] > 0 and region["largest_block"] > 1
        assert "invariance" not in log["heuristic"]["step1_constraints"]
        final_names = [c["name"]
                       for c in log["constraint_manifest"]["constraints"]]
        assert "invariance" in final_names

    def test_rz_flag_sets_heuristic_radius(self, tmp_path):
        run_pipeline(tmp_path, example="pendulum_shaped", d=3000,
                     extra=("--rz", "2.0"))
        assert json.loads((tmp_path / "region.json").read_text())["Rz"] == 2.0
        manifest = json.loads((tmp_path / "manifest_design.json").read_text())
        assert manifest["config"]["region"]["rz"] == 2.0
        assert "Rz" not in manifest["config"]["region"]


    @pytest.mark.parametrize("theorem", [None, 1, 2])
    def test_heuristic_pilot_follows_design_theorem(self, surrogate_pendulum,
                                                    theorem, monkeypatch):
        # without region.theorem the pilot runs the design's theorem, which
        # is 1 when the config names none
        cfg = cli.example_config("pendulum_shaped")
        del cfg["region"]["theorem"], cfg["theorem"]
        if theorem is not None:
            cfg["theorem"] = theorem
        built = []
        for thm in (1, 2):
            def recording(*args, thm=thm, build=getattr(lmi, f"build_theorem{thm}")):
                built.append(thm)
                return build(*args)

            monkeypatch.setattr(lmi, f"build_theorem{thm}", recording)
        cli._resolve_region(cli.validate_config(cfg), surrogate_pendulum)
        assert built == [theorem or 1]


class TestReproduceCommand:
    @pytest.mark.parametrize("failure, code, message", [
        ("verifier_rejection", cli.EXIT_VERIFICATION, "verifier rejected"),
        ("infeasible", cli.EXIT_INFEASIBLE, "design infeasible"),
    ], ids=["verifier_rejection", "infeasible"])
    def test_verifier_rejection_exit_code(self, failure, code, message, tmp_path,
                                          monkeypatch, capsys):
        if failure == "verifier_rejection":
            verify = sdp.verify

            def reject(problem, assignment, slack=1e-7):
                return dataclasses.replace(verify(problem, assignment, slack), ok=False)

            monkeypatch.setattr(sdp, "verify", reject)
        else:
            # a remainder budget that no design meets
            example = cli.example_config
            monkeypatch.setattr(cli, "example_config", lambda name: {
                **example(name), "error_bound": {"c_r": 10.0, "delta": 0.05}})
        rc = cli.main(["reproduce", "fig2", "--out", str(tmp_path)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert not list(tmp_path.glob("fig2_*"))

    def test_figure_designs_are_stage_directories(self, figures_dir, tmp_path):
        configs = {}
        for example, changes in cli.FIGURES.values():
            for stem, change in changes.items():
                configs[stem] = json.loads(
                    (figures_dir / stem / "manifest_design.json").read_text())["config"]
                expected = {**cli.example_config(example), **change}
                del expected["output_dir"]
                assert configs[stem] == json.loads(json.dumps(expected)), stem
        # a figure design's directory verifies like any stage directory
        stage_dir = figures_dir / "fig3_tuned"
        before = {p.name: p.read_bytes() for p in stage_dir.iterdir()}
        copy = tmp_path / "fig3_tuned"
        shutil.copytree(stage_dir, copy)
        path = tmp_path / "fig3_tuned.json"
        path.write_text(json.dumps(configs["fig3_tuned"]))
        assert cli.main(["verify", "--config", str(path), "--out", str(copy)]) == 0
        assert (copy / "verify_report.json").exists()
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before


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
        # the batched start sampler keeps the one-draw-per-try stream from
        # the certified box
        design = controller.DesignResult.from_json(
            (tmp_path / "design.json").read_text())
        lifting = edmd.Surrogate.from_json(
            (tmp_path / "surrogate.json").read_text()).lifting
        vcfg = cli.example_config("cooked_up")["verify"]
        rng = np.random.default_rng(vcfg["seed"])
        box = controller.certified_box(design, lifting)
        expected, tries = [], 0
        while len(expected) < vcfg["n_starts"]:
            x = rng.uniform(box[:, 0], box[:, 1], size=2)
            tries += 1
            if controller.roa_membership(design, lifting, x)[1] <= 0.99:
                expected.append(x.tolist())
        assert [r["x0"] for r in rep["trajectories"]] == expected
        # tries counts whole blocks of 1000 draws
        assert rep["start_sampling"] == {"box": box.tolist(),
                                         "tries": 1000 * -(-tries // 1000),
                                         "requested": vcfg["n_starts"]}

    def test_verify_warns_when_starts_run_short(self, tmp_path, monkeypatch,
                                                capsys):
        run_pipeline(tmp_path)
        certified_starts = cli._certified_starts

        def short(*args):
            starts, sampling = certified_starts(*args)
            return starts[:3], {**sampling, "tries": 100000}

        monkeypatch.setattr(cli, "_certified_starts", short)
        capsys.readouterr()
        rc = cli.main(["verify", "--example", "cooked_up",
                       "--out", str(tmp_path), "--d", "400"])
        assert rc == 0
        err = capsys.readouterr().err
        assert err == "warning: found 3 of 20 starts with V <= 0.99 in 100000 draws\n"
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(rep["trajectories"]) == 3
        assert rep["start_sampling"]["tries"] == 100000
        assert rep["start_sampling"]["requested"] == 20

    def test_verify_without_starts_fails(self, tmp_path, monkeypatch, capsys):
        # no start passes: nothing was verified, so verify exits 3, and its
        # report keeps the draw that found none
        run_pipeline(tmp_path)
        certified_starts = cli._certified_starts
        drawn = {}

        def none(*args):
            _, sampling = certified_starts(*args)
            drawn.update(sampling, tries=100000)
            return [], dict(drawn)

        monkeypatch.setattr(cli, "_certified_starts", none)
        capsys.readouterr()
        rc = cli.main(["verify", "--example", "cooked_up",
                       "--out", str(tmp_path), "--d", "400"])
        assert rc == cli.EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: no start with V <= 0.99 in 100000 draws")
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep == {"trajectories": [], "n_converged": 0,
                       "start_sampling": drawn}
        assert not (tmp_path / "traj_000.dat").exists()
        assert not (tmp_path / "manifest_verify.json").exists()

    def test_verify_replaces_earlier_run(self, tmp_path, monkeypatch):
        # a smaller run, then a run without starts, in the directory of a
        # 20-start run leaves only its own files
        run_pipeline(tmp_path)
        argv = ["--example", "cooked_up", "--out", str(tmp_path), "--d", "400"]
        assert cli.main(["verify", *argv]) == 0
        assert len(list(tmp_path.glob("traj_*.dat"))) == 20
        cfg = cli.example_config("cooked_up")
        cfg["sampling"]["d"] = 400
        cfg["output_dir"] = str(tmp_path)
        cfg["verify"]["n_starts"] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("traj_*.dat")) == [
            "traj_000.dat", "traj_001.dat", "traj_002.dat"]
        assert (tmp_path / "manifest_verify.json").exists()
        monkeypatch.setattr(cli, "_certified_starts",
                            lambda *args: ([], {"tries": 100000}))
        assert cli.main(["verify", *argv]) == cli.EXIT_VERIFICATION
        assert not list(tmp_path.glob("traj_*.dat"))
        assert not (tmp_path / "manifest_verify.json").exists()

    def test_verify_refuses_stale_design(self, tmp_path, capsys):
        # a design.json of the format with a scalar "lam" and no "Lambda", one
        # with a NaN multiplier and one whose theorem disagrees with its Lw
        # are each refused before anything is written: the earlier run stays
        run_pipeline(tmp_path)
        argv = ["verify", "--example", "cooked_up", "--out", str(tmp_path), "--d", "400"]
        assert cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("traj_*.dat")}
        assert len(before) == 20
        path = tmp_path / "design.json"
        good = json.loads(path.read_text())
        for edit in ({"lam": good["Lambda"]["data"][0], "Lambda": None},
                     {"Lambda": {**good["Lambda"], "data": [float("nan")]}},
                     {"theorem": 2}):
            path.write_text(json.dumps({**good, **edit}))
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_BAD_INPUT, edit
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert err.rstrip().endswith("re-run design")
            assert {p.name: p.read_bytes() for p in tmp_path.glob("traj_*.dat")} == before

    @pytest.mark.parametrize("artifact, edit, commands, message", [
        ("design.json", lambda doc: doc.update(Lambda=5), ("verify",),
         "a stored matrix must be an object"),
        ("surrogate.json", lambda doc: doc.update(A=[1, 2]), ("design", "verify"),
         "a stored matrix must be an object"),
        ("surrogate.json",
         lambda doc: doc["lifting"]["observables"][-1]["params"].update(index=5),
         ("design", "verify"),
         "observable 'sine' index 5 is outside 0..1 (the plant has 2 states)"),
        ("surrogate.json",
         lambda doc: doc["lifting"]["observables"][-1]["params"].update(index=-1),
         ("design", "verify"),
         "observable 'sine' index -1 is outside 0..1 (the plant has 2 states)"),
        ("surrogate.json", lambda doc: doc.update(B=5), ("design", "verify"),
         "surrogate 'B' must be a list of stored matrices"),
        ("surrogate.json", lambda doc: doc["lifting"].update(observables=5),
         ("design", "verify"), "lifting 'observables' must be a list of objects"),
        ("surrogate.json", lambda doc: doc["lifting"].update(observables=[5]),
         ("design", "verify"), "lifting 'observables' must be a list of objects"),
        ("surrogate.json", lambda doc: doc["lifting"].update(n=2.7), ("design", "verify"),
         "lifting 'n' must be an integer of at least 1, not 2.7"),
        ("surrogate.json", lambda doc: doc["lifting"].update(N=99), ("design", "verify"),
         "lifting 'N' must be 3, the number of observables after the constant, not 99"),
        ("surrogate.json", lambda doc: doc["lifting"].pop("n"), ("design", "verify"),
         "lifting 'n' must be an integer of at least 1, not None"),
        ("surrogate.json", lambda doc: doc["lifting"]["observables"].insert(
            1, doc["lifting"]["observables"].pop(2)), ("design", "verify"),
         "lifting 'observables' must start with the constant "
         "and the coordinate maps x_1..x_2, in order"),
        ("surrogate.json", lambda doc: doc["lifting"]["observables"].__setitem__(
            -1, {"kind": "coordinate", "params": {"index": 0}}), ("design", "verify"),
         "observable 'coordinate' is implied, not an extra"),
        ("surrogate.json", lambda doc: doc["A"]["data"].__setitem__(0, float("nan")),
         ("design", "verify"), "surrogate.json 'A' must hold finite numbers; re-run fit"),
        ("surrogate.json",
         lambda doc: doc.update(A={"shape": [2, 2], "data": [1, 2, 3, 4]}),
         ("design", "verify"),
         "surrogate matrix 'A' has shape [2, 2], but N = 3 and m = 1 need [3, 3]"),
        ("design.json", lambda doc: doc.pop("P"), ("verify",),
         "design.json needs 'P'; re-run design"),
        ("design.json", lambda doc: doc["P"]["data"].__setitem__(0, float("inf")),
         ("verify",), "design.json 'P' must hold finite numbers; re-run design"),
        ("design.json", lambda doc: doc["P"]["data"].__setitem__(0, float("nan")),
         ("verify",), "design.json 'P' must hold finite numbers; re-run design"),
        ("design.json", lambda doc: doc.update(P=encode_matrix(np.eye(4)),
                                               L=encode_matrix(np.ones((1, 4)))),
         ("verify",), "design.json has N = 4 and m = 1, but surrogate.json has N = 3 "
         "and m = 1; re-run design"),
        ("design.json", lambda doc: doc.update(P=encode_matrix(np.eye(2)),
                                               L=encode_matrix(np.ones((1, 4)))),
         ("verify",), "design.json 'L' has shape [1, 4], but N = 2 and m = 1 need "
         "[1, 2]; re-run design"),
        ("design.json", lambda doc: doc.pop("tau"), ("verify",),
         "design.json needs 'tau' as a finite number; re-run design"),
        ("design.json", lambda doc: doc.update(tau=None), ("verify",),
         "design.json needs 'tau' as a finite number; re-run design"),
        ("design.json", lambda doc: doc.update(nu=[1]), ("verify",),
         "design.json needs 'nu' as a finite number; re-run design"),
        ("surrogate.json", lambda doc: doc.update(c_r="x"), ("design", "verify"),
         "surrogate.json needs 'c_r' as a finite number or null; re-run fit"),
        ("surrogate.json", lambda doc: doc.update(delta=[0.1]), ("design", "verify"),
         "surrogate.json needs 'delta' as a finite number or null; re-run fit"),
    ], ids=["design-Lambda-int", "surrogate-A-list", "sine-index-5",
            "sine-index-negative", "surrogate-B-int", "surrogate-observables-int",
            "surrogate-observable-int", "lifting-n-float", "lifting-N-wrong",
            "lifting-no-n", "lifting-coordinates-swapped", "lifting-coordinate-extra",
            "surrogate-A-nan", "surrogate-A-wrong-size", "design-no-P",
            "design-P-inf", "design-P-nan", "design-other-surrogate",
            "design-blocks-disagree",
            "design-no-tau", "design-tau-null", "design-nu-list",
            "surrogate-c_r-string", "surrogate-delta-list"])
    def test_malformed_artifact_is_bad_input(self, pendulum_run, tmp_path, capsys,
                                             artifact, edit, commands, message):
        # a malformed or non-finite matrix, a missing or non-numeric field, a
        # lifting descriptor that breaks the dictionary's structure or an
        # observable reading past the n states in an artifact, and a design
        # whose blocks do not fit each other or the surrogate, is refused in
        # one error line, before anything is written
        shutil.copytree(pendulum_run, tmp_path, dirs_exist_ok=True)
        path = tmp_path / artifact
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for cmd in commands:
            capsys.readouterr()
            assert cli.main([cmd, "--example", "pendulum", "--out", str(tmp_path),
                             "--d", "4000"]) == cli.EXIT_BAD_INPUT, cmd
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {message}")
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("artifact, text, commands, message", [
        ("surrogate.json", "[]\n", ("design", "verify"),
         "surrogate.json must hold a JSON object; re-run fit"),
        ("design.json", "[]\n", ("verify",),
         "design.json must hold a JSON object; re-run design"),
        ("surrogate.json", "\n", ("design", "verify"),
         "surrogate.json is not readable JSON (Expecting value: line 2 column 1 "
         "(char 1)); re-run fit"),
        ("design.json", "{\n", ("verify",),
         "design.json is not readable JSON (Expecting property name enclosed in "
         "double quotes: line 2 column 1 (char 2)); re-run design"),
    ], ids=["surrogate", "design", "surrogate-empty", "design-unreadable"])
    def test_non_object_artifact_is_bad_input(self, pendulum_run, tmp_path, capsys,
                                              artifact, text, commands, message):
        shutil.copytree(pendulum_run, tmp_path, dirs_exist_ok=True)
        (tmp_path / artifact).write_text(text)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for cmd in commands:
            capsys.readouterr()
            assert cli.main([cmd, "--example", "pendulum", "--out", str(tmp_path),
                             "--d", "4000"]) == cli.EXIT_BAD_INPUT, cmd
            assert capsys.readouterr().err == f"error: {message}\n"
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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


class TestCertifiedStarts:
    """The verify sampler on the cooked_up_xy design of ``reproduce fig3``,
    whose certified set reaches past the polar sweep's outermost crossing."""

    @staticmethod
    def design_xy(figures_dir):
        design = controller.DesignResult.from_json(
            (figures_dir / "fig3_ball_design.json").read_text())
        lifting = edmd.Surrogate.from_json(
            (figures_dir / "fig3_surrogate.json").read_text()).lifting
        return design, lifting

    def test_starts_cover_the_whole_certified_set(self, figures_dir):
        design, lifting = self.design_xy(figures_dir)
        starts, _ = cli._certified_starts(design, lifting, 300, 123)
        X = np.array(starts)
        assert X.shape == (300, 2)
        box = controller.certified_box(design, lifting)
        assert np.all((box[:, 0] <= X) & (X <= box[:, 1]))
        assert np.all(controller.ClosedLoop.of(design, lifting).value_many(X)
                      <= 0.99)
        # a square sized by the sweep's first crossings could not hold these
        swept = np.max(controller.roa_boundary_2d(design, lifting, 180).radii)
        assert np.any(np.abs(X[:, 0]) > swept)

    def test_try_cap(self, figures_dir):
        # about 1 draw in 69 lands in the set, so 100000 tries yield fewer
        # than 2000 starts
        design, lifting = self.design_xy(figures_dir)
        starts, sampling = cli._certified_starts(design, lifting, 2000, 123)
        assert 0 < len(starts) < 2000
        assert sampling == {"box": controller.certified_box(design, lifting).tolist(),
                            "tries": 100000, "requested": 2000}


def _same_run(traj, ref, fields=("t", "states", "inputs")):
    return traj.reason == ref.reason and all(
        getattr(traj, f).tobytes() == getattr(ref, f).tobytes() for f in fields)


def test_lqr_grid_one_batch_equals_one_batch_per_weight(
        plant_pendulum, surrogate_pendulum):
    # every (weight, start) row integrates in one batch under its own gain;
    # each weight's rows must be the runs of that weight's gain alone
    starts = list(np.random.default_rng(4).uniform(-1.5, 1.5, size=(4, 2)))
    weights = [0.01, 0.1, 1.0, 10.0]
    X, gains, report = cli._lqr_grid(surrogate_pendulum, starts, weights)
    assert X.shape == (len(weights) * len(starts), 2)
    assert gains.shape == (len(X), 1, surrogate_pendulum.N)
    lifting = surrogate_pendulum.lifting
    entries, grid = report(verify.simulate_many(
        plant_pendulum, controller.ClosedLoop(lifting, gains), X, horizon=50.0,
        rtol=1e-8, atol=1e-8))
    for w, entry, trajs in zip(weights, entries, grid):
        K_w, _, _ = verify.lqr_baseline(surrogate_pendulum,
                                        R=w * np.eye(surrogate_pendulum.m))
        assert entry["K"] == K_w.ravel().tolist()
        alone = verify.simulate_many(plant_pendulum,
                                     controller.ClosedLoop(lifting, -K_w),
                                     np.array(starts), horizon=50.0, rtol=1e-8,
                                     atol=1e-8)
        assert len(trajs) == len(alone) == len(starts)
        for traj, ref in zip(trajs, alone):
            assert _same_run(traj, ref), w
    # the weights steer differently, so a shared gain would show
    assert grid[0][0].states.tobytes() != grid[-1][0].states.tobytes()
    assert cli._lqr_grid(surrogate_pendulum, starts, [])[2]([]) == ([], [])


@pytest.fixture(scope="module")
def cooked_up_xy_lqr_run(tmp_path_factory):
    """Collect, fit and design of the scheduled cooked_up_xy example with
    ``verify.lqr`` on; returns the config path."""
    out = tmp_path_factory.mktemp("cooked_up_xy_lqr")
    cfg = cli.example_config("cooked_up_xy")
    cfg["verify"]["lqr"] = True
    cfg["output_dir"] = str(out)
    path = out / "cfg.json"
    path.write_text(json.dumps(cfg))
    for cmd in ("collect", "fit", "design"):
        assert cli.main([cmd, "--config", str(path)]) == 0, cmd
    return path


@pytest.mark.parametrize("case", ["pendulum", "cooked_up_xy-lqr"])
def test_verify_runs_one_batch(request, monkeypatch, tmp_path, case):
    # verify integrates its certified starts and every (weight, start) row
    # of the LQR grid in one batch; the certified rows, and each weight's
    # rows, are the runs of a batch of their own
    if case == "pendulum":
        shutil.copytree(request.getfixturevalue("pendulum_run"), tmp_path,
                        dirs_exist_ok=True)
        argv = ["verify", "--example", "pendulum", "--out", str(tmp_path)]
    else:
        cfg = request.getfixturevalue("cooked_up_xy_lqr_run")
        shutil.copytree(cfg.parent, tmp_path, dirs_exist_ok=True)
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path)]
    calls = []
    simulate_many = verify.simulate_many

    def recorded(plant, loop, X0, **options):
        runs = simulate_many(plant, loop, X0, **options)
        calls.append((plant, X0, options, runs))
        return runs

    monkeypatch.setattr(verify, "simulate_many", recorded)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    plant, X0, options, runs = calls[0]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    surrogate = edmd.Surrogate.from_json((tmp_path / "surrogate.json").read_text())
    design = controller.DesignResult.from_json((tmp_path / "design.json").read_text())
    assert (design.theorem == 2) == (case == "cooked_up_xy-lqr")
    n_cert, weights = len(report["trajectories"]), [e["R"] for e in report["lqr_grid"]]
    assert n_cert == 20 and len(weights) == 4 and len(X0) == 52
    lifting = surrogate.lifting
    alone = simulate_many(plant, controller.ClosedLoop.of(design, lifting),
                          X0[:n_cert], **options)
    for i, ref in enumerate(alone):
        assert _same_run(runs[i], ref, ("t", "states", "inputs", "V")), i
        assert report["trajectories"][i]["reason"] == ref.reason
    for j, (w, entry) in enumerate(zip(weights, report["lqr_grid"])):
        K_w, _, _ = verify.lqr_baseline(surrogate, R=w * np.eye(surrogate.m))
        lo = n_cert + 8 * j
        alone = simulate_many(plant, controller.ClosedLoop(lifting, -K_w),
                              X0[lo:lo + 8], **options)
        for i, ref in enumerate(alone):
            assert _same_run(runs[lo + i], ref), (w, i)
            assert entry["trajectories"][i] == cli._run_record(X0[lo + i], ref)


class TestD0Command:
    def test_report(self, tmp_path):
        rc = cli.main(["d0", "--example", "cooked_up", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "d0_report.json").read_text())
        assert 16.8 <= doc["log10_d0"] <= 18.8

    @pytest.mark.parametrize("spec, message", [
        ({"method": "mc", "replicates": 0},
         "d0 quadrature: replicates must be an integer >= 1"),
        ({"method": "grid", "points_per_axis": 0},
         "d0 quadrature: points_per_axis must be an integer >= 1"),
        ({"method": "qmc"}, "unknown quadrature method 'qmc'")])
    def test_degenerate_quadrature_rejected(self, tmp_path, capsys, spec, message):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["d0"] = spec
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "d0"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"seed": "a"}, "d0 quadrature: seed must be an integer >= 0"),
        ({"seed": 1.5}, "d0 quadrature: seed must be an integer >= 0"),
        ({"seed": -1}, "d0 quadrature: seed must be an integer >= 0"),
        ({"seed": True}, "d0 quadrature: seed must be an integer >= 0"),
        ({"sobol": "no"}, "d0 quadrature: sobol must be true or false")],
        ids=["seed-string", "seed-float", "seed-negative", "seed-bool",
             "sobol-string"])
    def test_bad_seed_or_sobol_rejected(self, tmp_path, capsys, spec, message):
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["d0"] = {"method": "mc", **spec}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "fit", "d0"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sobol_refused_past_16_states(self, tmp_path, monkeypatch, capsys):
        # validate_config reads only the plant's state dimension
        monkeypatch.setattr(cli, "_plant", lambda cfg: SimpleNamespace(n=17))
        cfg = cli.example_config("cooked_up")
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["lifting"]["extras"] = []
        cfg["region"] = {"Qz": (-np.eye(17)).tolist(), "Sz": [0.0] * 17, "Rz": 1.0}
        for spec in ({"method": "grid"}, {"method": "mc", "sobol": False}):
            assert cli.validate_config({**cfg, "d0": spec})
        cfg["d0"] = {"method": "mc", "sobol": True}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("collect", "d0"):
            assert cli.main([cmd, "--config", str(path)]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: the bundled Sobol generator draws at most 16 dimensions, "
                "but the plant has 17 states; set d0 \"sobol\": false for plain "
                "Monte Carlo\n")
        assert not (tmp_path / "out").exists()

    def test_report_independent_of_blas_threads_and_run(self, tmp_path):
        # grid: 10201 rows; Monte Carlo: two replicates of 16384 Sobol points,
        # so both stream through more than one row block
        specs = {"grid": {"method": "grid", "points_per_axis": 101},
                 "mc": {"method": "mc", "samples": 1 << 15, "replicates": 2,
                        "seed": 3, "sobol": True}}
        for name, spec in specs.items():
            reports = []
            # one run in this process, then one each at 1 and 2 BLAS threads
            for run, threads in enumerate((None, "1", "2")):
                cfg = cli.example_config("cooked_up")
                cfg["output_dir"] = str(tmp_path / f"{name}{run}")
                cfg["d0"] = spec
                path = tmp_path / f"{name}{run}.json"
                path.write_text(json.dumps(cfg))
                if threads is None:
                    assert cli.main(["d0", "--config", str(path)]) == 0
                else:
                    run_cli_subprocess(threads, "d0", "--config", str(path))
                reports.append((tmp_path / f"{name}{run}" / "d0_report.json")
                               .read_bytes())
            assert reports[0] == reports[1] == reports[2], name
