"""Command-line front end: problem files, commands, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
import fracrec.cli as cli
from fracrec.cli import (
    EXIT_EIGENVALUE,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_SLOPE,
    EXIT_VALIDATION,
    ProblemValidationError,
    config_hash,
    load_problem,
    main,
    parse_problem,
    serialize_problem,
)


def base_problem():
    return {
        "version": 1,
        "dimension": 1,
        "box": {"radius": 16.0, "points": 512},
        "s": 0.5,
        "omega": {"intervals": [[-1.0, 1.0]]},
        "w1": {"intervals": [[4.0, 5.0]]},
        "w2": {"intervals": [[-3.0, -1.25], [1.25, 3.0]]},
        "q": {"kind": "bump", "params": {"center": 0.0, "width": 0.5, "amplitude": 2.0}},
        "f": {"kind": "bump", "params": {"center": 4.5, "width": 0.45, "amplitude": 1.0}},
        "noise": {"level": 0.0, "seed": 1},
        "scheme": {"name": "tikhonov", "alpha_schedule": "auto", "stop_rule": "auto"},
        "tau": 0.001,
    }


EXAMPLE = Path(__file__).resolve().parents[1] / "problem.example.json"


def child_env(**overrides):
    """This environment without the BLAS thread variables, fracrec's src/
    on PYTHONPATH, then `overrides`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(fr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestProblemFile:
    def test_round_trip(self, tmp_path):
        cfg = parse_problem(base_problem())
        text = serialize_problem(cfg)
        cfg2 = parse_problem(json.loads(text))
        assert cfg == cfg2
        assert serialize_problem(cfg2) == text

    def test_unknown_key_rejected(self):
        doc = base_problem()
        doc["mystery"] = 1
        with pytest.raises(ProblemValidationError, match="unknown keys"):
            parse_problem(doc)

    def test_nested_unknown_key_rejected(self):
        doc = base_problem()
        doc["box"]["depth"] = 3
        with pytest.raises(ProblemValidationError, match="unknown keys"):
            parse_problem(doc)

    def test_wrong_version_rejected(self):
        doc = base_problem()
        doc["version"] = 2
        with pytest.raises(ProblemValidationError, match="version"):
            parse_problem(doc)

    def test_malformed_json_exits_validation(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["forward", str(p), str(tmp_path / "o.json")]) == EXIT_VALIDATION

    def test_config_hash_stable(self):
        cfg = parse_problem(base_problem())
        assert config_hash(cfg) == config_hash(parse_problem(base_problem()))

    def test_example_config_hash_pinned(self):
        assert config_hash(load_problem(str(EXAMPLE))) == (
            "5519efb26ee5df2a9022db88d525a973f83e2304af5db71d3b9ad7b7122e087f"
        )


class TestMalformedInput:
    @pytest.mark.parametrize("key, value", [("s", [1]), ("tau", None)])
    def test_wrong_json_type_exits_1(self, tmp_path, capsys, key, value):
        doc = base_problem()
        doc[key] = value
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_finite_measured_g_exits_1(self, tmp_path, capsys):
        doc = base_problem()
        box = fr.build_box(doc["box"]["radius"], doc["box"]["points"])
        sets = fr.build_index_sets(box, doc["omega"]["intervals"], doc["w1"]["intervals"],
                                   doc["w2"]["intervals"])
        g = [0.0] * len(sets.w2)
        g[3] = float("nan")
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"values": g}))
        doc["g"] = {"path": str(gpath)}
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    @pytest.mark.parametrize("data", [{"vals": [1.0]}, {"values": [1.0, None]}, [1.0]])
    def test_malformed_profile_file_exits_1(self, tmp_path, capsys, data):
        fpath = tmp_path / "q.json"
        fpath.write_text(json.dumps(data))
        doc = base_problem()
        doc["q"] = {"kind": "file", "params": {"path": str(fpath)}}
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "values" in err[0]

    @pytest.mark.parametrize("key, profile", [
        ("q", {"kind": "constant", "params": {"value": None}}),
        ("q", {"kind": "bump", "params": {"center": None, "width": 0.5}}),
        ("q", {"kind": "bump", "params": {"width": 0.5}}),
        ("q", {"kind": "piecewise", "params": {"breaks": [0.0], "values": [1.0, "2"]}}),
        ("q", {"kind": "piecewise", "params": {"breaks": [0.5, 0.0], "values": [1, 2, 3]}}),
        ("q", {"kind": "file", "params": {"path": 3}}),
        ("f", {"kind": "sine", "params": {"mode": 1.5}}),
        ("f", {"kind": "bump", "params": {"center": 4.5, "width": True}}),
    ], ids=["constant-null", "bump-null-center", "bump-no-center", "piecewise-string",
            "piecewise-unsorted", "file-path-number", "sine-mode-float", "bump-width-bool"])
    def test_profile_param_type_exits_1(self, tmp_path, capsys, key, profile):
        doc = base_problem()
        doc[key] = profile
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]

    @pytest.mark.parametrize("scheme, extra", [
        ({"stop_rule": {"kind": "discrepancy", "delta": None}}, []),
        ({"stop_rule": {"kind": "discrepancy", "delta": [1]}}, []),
        ({"stop_rule": {"kind": "discrepancy", "delta": float("nan")}}, []),
        ({"stop_rule": {"kind": "discrepancy", "delta": -1.0}}, []),
        ({"alpha_schedule": [1e-2, float("nan"), 1e-4]}, []),
        ({}, ["--alpha-list", "1e-2,nan,1e-4"]),
    ], ids=["delta-null", "delta-list", "delta-nan", "delta-negative", "schedule-nan",
            "alpha-list-nan"])
    def test_malformed_scheme_number_exits_1(self, tmp_path, capsys, scheme, extra):
        doc = base_problem()
        doc["scheme"].update(scheme)
        path = write_problem(tmp_path, doc)
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out)] + extra) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["reconstruct", "p.json", "o.json", "--bogus"],
        ["stability", "p.json", "o.csv", "--trials", "abc"],
        ["stability", "p.json", "o.csv", "--threads", "2"],
        [],
    ], ids=["unknown-option", "non-integer-trials", "threads-option", "missing-verb"])
    def test_usage_error_exits_1_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--alpha-list" in capsys.readouterr().out


class TestGlobalFlags:
    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--quiet"]], ids=["seed", "quiet"])
    def test_flag_before_verb_acts_as_after(self, tmp_path, capsys, flag):
        doc = base_problem()
        doc["noise"]["level"] = 1e-4
        path = write_problem(tmp_path, doc)
        out = tmp_path / "rep.json"
        runs = []
        for argv in (flag + ["reconstruct", path, str(out)],
                     ["reconstruct", path, str(out)] + flag):
            assert main(argv) == EXIT_OK
            runs.append((out.read_bytes(), capsys.readouterr().err))
        assert runs[0] == runs[1]
        if flag[0] == "--seed":
            assert json.loads(runs[0][0])["seed"] == 7
        else:
            assert runs[0][1] == ""


class TestOsErrors:
    def test_directory_as_problem_exits_1(self, tmp_path, capsys):
        assert main(["forward", str(tmp_path), str(tmp_path / "f.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "f.json").exists()

    def test_directory_as_output_exits_1_without_temp_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["forward", path, str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert out.is_dir() and not list(tmp_path.rglob(".tmp-*~"))


class TestBlasThreadDefault:
    @pytest.mark.parametrize("overrides, want", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ({"OMP_NUM_THREADS": "2"}, None),
    ], ids=["unset", "caller-openblas", "caller-omp"])
    def test_import_sets_one_thread_unless_caller_chose(self, overrides, want):
        script = "import os, fracrec; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(**overrides),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(want)


class TestFootprintBudget:
    REGIONS = [(-1.0, 1.0), (4.0, 5.0), (-3.0, -1.25), (1.25, 3.0)]

    def test_estimate_tracks_region_nodes(self):
        # 16 nodes per unit length over 6.5 units of regions, 4 intervals
        k = 6.5 * 16 + 4
        assert cli.footprint_bytes(16.0, 512, self.REGIONS) == int(8 * (4 * k * k + 64 * 512))

    def test_estimate_refuses_oversized_grids_only(self):
        assert cli.footprint_bytes(16.0, 16384, self.REGIONS) < cli.FOOTPRINT_BUDGET_BYTES
        assert cli.footprint_bytes(16.0, 2**20, self.REGIONS) > cli.FOOTPRINT_BUDGET_BYTES
        doc = base_problem()
        doc["box"]["points"] = 2**20
        with pytest.raises(ProblemValidationError, match="budget"):
            parse_problem(doc)

    def test_over_budget_exits_1_before_any_output(self, tmp_path, capsys, monkeypatch):
        # a tiny budget refuses the default problem without building anything
        monkeypatch.setattr(cli, "FOOTPRINT_BUDGET_BYTES", 1)
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out)]) == EXIT_VALIDATION
        assert main(["instability", str(tmp_path / "i.csv"), "--R", "13"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(e.startswith("error:") and "budget" in e for e in err)
        assert not out.exists() and not (tmp_path / "i.csv").exists()


class TestForwardCommand:
    def test_zero_potential_runs(self, tmp_path):
        doc = base_problem()
        doc["q"] = {"kind": "zero"}
        path = write_problem(tmp_path, doc)
        out = tmp_path / "fw.json"
        assert main(["forward", path, str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        g = np.array([float(v) for v in rep["g"]])
        assert np.isfinite(g).all()
        assert float(rep["interior_residual"]) <= 1e-8

    def test_eigenvalue_potential_exits_2(self, tmp_path):
        box = fr.build_box(16.0, 512)
        m = fr.build_sobolev(box, fr.FractionalOrder(0.5))
        sets = fr.build_index_sets(
            box, [(-1, 1)], [(4, 5)], [(-3, -1.25), (1.25, 3)]
        )
        a_oo = m.frac_lap[np.ix_(sets.omega, sets.omega)]
        lam1 = float(sla.eigvalsh(a_oo)[0])
        doc = base_problem()
        doc["q"] = {"kind": "constant", "params": {"value": -lam1}}
        path = write_problem(tmp_path, doc)
        assert main(["forward", path, str(tmp_path / "o.json")]) == EXIT_EIGENVALUE

    def test_malformed_region_exits_1(self, tmp_path):
        doc = base_problem()
        doc["w1"] = {"intervals": [[0.5, 2.0]]}
        path = write_problem(tmp_path, doc)
        assert main(["forward", path, str(tmp_path / "o.json")]) == EXIT_VALIDATION


class TestReconstructCommand:
    def test_zero_potential_recovery(self, tmp_path):
        doc = base_problem()
        doc["q"] = {"kind": "zero"}
        doc["scheme"]["name"] = "spectral"
        path = write_problem(tmp_path, doc)
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out), "--quiet"]) == EXIT_OK
        rep = json.loads(out.read_text())
        q_rec = np.array([float(v) for v in rep["q_rec"]])
        mask = np.array(rep["nodal_mask"])
        assert np.abs(q_rec[~mask]).max() <= 1e-2
        assert rep["config_hash"] == config_hash(load_problem(path))

    def test_zero_datum_exits_1(self, tmp_path, capsys):
        doc = base_problem()
        doc["f"]["params"]["amplitude"] = 0.0
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "o.json")]) == EXIT_VALIDATION
        assert "nonzero" in capsys.readouterr().err

    def test_no_minimizer_exits_3(self, tmp_path, capsys):
        # at noise 1e-4 the datum's null-space component (about 2e-6) exceeds alpha
        doc = base_problem()
        doc["noise"]["level"] = 1e-4
        path = write_problem(tmp_path, doc)
        out = tmp_path / "o.json"
        code = main(["reconstruct", path, str(out), "--scheme", "minimal_l2",
                     "--alpha-list", "1e-9"])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_NONCONVERGENCE
        assert len(err) == 1 and err[0].startswith("error:") and "no minimizer" in err[0]
        assert not out.exists()

    def test_child_run_loads_no_scipy(self, tmp_path):
        # the command line path is numpy-only: scipy is a test dependency
        script = (
            "import sys\n"
            "from fracrec.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "reconstruct", str(EXAMPLE),
             str(tmp_path / "rep.json"), "--quiet"],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scheme_cross_check_at_matched_depth(self, tmp_path):
        # spectral and tikhonov runs at matched cutoffs give the same interior part
        box = fr.build_box(16.0, 512)
        m = fr.build_sobolev(box, fr.FractionalOrder(0.5))
        sets = fr.build_index_sets(box, [(-1, 1)], [(4, 5)], [(-3, -1.25), (1.25, 3)])
        op = fr.assemble_ucp(m, sets)
        svd = fr.ucp_svd(op)
        r = svd.numerical_rank
        a_spec = float(svd.sigmas[r - 1] * 0.999)
        a_tik = float(1e-5 * svd.sigmas[r - 1] ** 2)
        doc = base_problem()
        path = write_problem(tmp_path, doc)
        out_s, out_t = tmp_path / "s.json", tmp_path / "t.json"
        assert main(["reconstruct", path, str(out_s), "--scheme", "spectral",
                     "--alpha-list", f"{a_spec}", "--quiet"]) == EXIT_OK
        assert main(["reconstruct", path, str(out_t), "--scheme", "tikhonov",
                     "--alpha-list", f"{a_tik}", "--quiet"]) == EXIT_OK
        v_s = np.array([float(v) for v in json.loads(out_s.read_text())["v"]])
        v_t = np.array([float(v) for v in json.loads(out_t.read_text())["v"]])
        rel = np.linalg.norm(v_s - v_t) / np.linalg.norm(v_t)
        assert rel <= 5e-3

    def test_measured_g_from_file(self, tmp_path):
        doc = base_problem()
        path = write_problem(tmp_path, doc)
        fw = tmp_path / "fw.json"
        assert main(["forward", path, str(fw)]) == EXIT_OK
        g = [float(v) for v in json.loads(fw.read_text())["g"]]
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"values": g}))
        doc2 = base_problem()
        doc2["q"] = {"kind": "zero"}
        doc2["g"] = {"path": str(gpath)}
        path2 = write_problem(tmp_path, doc2, "prob_g.json")
        out = tmp_path / "rep_g.json"
        assert main(["reconstruct", path2, str(out), "--scheme", "spectral",
                     "--quiet"]) == EXIT_OK
        rep = json.loads(out.read_text())
        q_rec = np.array([float(v) for v in rep["q_rec"]])
        mask = np.array(rep["nodal_mask"])
        # the measured data came from the amplitude-2 bump potential
        assert 1.5 <= np.nanmax(q_rec[~mask]) <= 2.5

    def test_report_reserialization_byte_stable(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out), "--quiet"]) == EXIT_OK
        text = out.read_text()
        again = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_tau_override(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out), "--tau", "0.05", "--quiet"]) == EXIT_OK
        assert float(json.loads(out.read_text())["tau"]) == 0.05

    @pytest.mark.parametrize("scheme", ["spectral", "minimal_l2"])
    def test_byte_identical_reports(self, tmp_path, scheme):
        # acceptance 11 covers tikhonov
        doc = base_problem()
        doc["noise"] = {"level": 1e-3, "seed": 9}
        doc["scheme"]["name"] = scheme
        path = write_problem(tmp_path, doc)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["reconstruct", path, str(out), "--quiet"]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSpectrumCommand:
    def test_csv_and_svg(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        csv = tmp_path / "spec.csv"
        svg = tmp_path / "spec.svg"
        assert main(["spectrum", path, str(csv), "--plot", str(svg)]) == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "j,sigma,log10_sigma"
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert len(rows) >= 20
        footer = {l.split(",")[0]: float(l.split(",")[1]) for l in lines if l.startswith("#")}
        rank = int(footer["# numerical_rank"])
        sigma = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(sigma[:rank]) < 0)
        assert footer["# slope"] <= -0.5
        # SVG parses and contains a nonempty polyline
        tree = ET.parse(svg)
        polylines = [
            e for e in tree.iter() if e.tag.endswith("polyline") and e.get("points")
        ]
        assert polylines and len(polylines[0].get("points").split()) > 5


class TestInstabilityCommand:
    def test_exit_code_tracks_slope_contract(self, tmp_path):
        csv = tmp_path / "inst.csv"
        code = main(["instability", str(csv), "--R", "13", "--kmax", "12", "--quiet"])
        lines = csv.read_text().splitlines()
        slope = float(next(l for l in lines if l.startswith("# slope")).split(",")[1])
        expected = EXIT_OK if slope <= -np.log(2.0) else EXIT_SLOPE
        assert code == expected
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 12
        norms = np.array([float(r[1]) for r in rows])
        assert np.all(norms > 0)

    def test_small_radius_exits_1(self, tmp_path, capsys):
        code = main(["instability", str(tmp_path / "i.csv"), "--R", "5"])
        assert code == EXIT_VALIDATION
        assert "12" in capsys.readouterr().err

    def test_default_run_meets_bound_and_records_fit(self, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["instability", str(out), "--R", "13", "--quiet"]) == EXIT_OK
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        footer = {l.split(",")[0]: l.split(",")[1] for l in lines if l.startswith("#")}
        k_fit = [int(k) for k in footer["# k_fit"].split()]
        assert len(k_fit) >= 2 and k_fit == sorted(k_fit) and k_fit[0] == 2
        norms = {int(l.split(",")[0]): float(l.split(",")[1])
                 for l in lines[1:] if not l.startswith("#")}
        assert all(norms[k] > float(footer["# floor"]) for k in k_fit)

    def test_too_coarse_grid_for_kmax_exits_1(self, tmp_path, capsys):
        out = tmp_path / "i.csv"
        code = main(["instability", str(out), "--R", "13", "--N", "512", "--kmax", "12"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "kmax 12" in err[0]
        assert not out.exists()


class TestStabilityCommand:
    def test_deterministic_csv_and_fit(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        csvs = []
        for name in ("st1.csv", "st2.csv"):
            out = tmp_path / name
            assert main(["stability", path, str(out), "--trials", "2",
                         "--levels", "1e-2,1e-4,1e-6"]) == EXIT_OK
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        lines = csvs[0].decode().splitlines()
        errs = np.array([float(l.split(",")[1]) for l in lines[1:] if not l.startswith("#")])
        assert np.all(np.diff(errs) <= 1e-12)
        sigma = float(next(l for l in lines if "log_modulus_sigma" in l).split(",")[1])
        assert sigma > 0

    @pytest.mark.parametrize("extra", [
        ["--trials", "0"],
        ["--levels", "1e-2,-1e-4,1e-6"],
        ["--levels", "1e-2,nan,1e-6"],
        ["--levels", "0,1e-3"],
    ], ids=["no-trials", "negative-level", "nan-level", "one-positive-level"])
    def test_malformed_noise_ladder_exits_1(self, tmp_path, capsys, extra):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "st.csv"
        assert main(["stability", path, str(out), "--trials", "1"] + extra) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


    def test_negative_s_prime_exits_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "st.csv"
        code = main(["stability", path, str(out), "--trials", "1", "--s-prime", "-0.5"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "s_prime" in err[0]
        assert not out.exists()


class TestCompareCommand:
    def test_two_scheme_comparison(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "cmp.csv"
        assert main(["compare", path, str(out), "--schemes", "spectral,tikhonov"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,")
        assert any(l.startswith("# cross_distance_rel") for l in lines)

    def test_unknown_scheme_exits_1(self, tmp_path):
        path = write_problem(tmp_path, base_problem())
        code = main(["compare", path, str(tmp_path / "c.csv"), "--schemes", "spectral,magic"])
        assert code == EXIT_VALIDATION
