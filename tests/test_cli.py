"""Command-line front end: problem files, commands, exit codes, reproducibility."""

import json
import os
import re
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import fracrec as fr
import fracrec.cli as cli
from fracrec import experiments
from fracrec.grid import bump_values
from fracrec.svgplot import line_plot_svg
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


def explicit_stop_problem():
    """The example at noise 1e-3 with a discrepancy delta that its first alpha meets."""
    doc = base_problem()
    doc["noise"]["level"] = 1e-3
    doc["scheme"]["stop_rule"] = {"kind": "discrepancy", "delta": 1e-2}
    return doc


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


def with_field(doc, key, value):
    """`doc` with the field at the dotted `key` set to `value`."""
    *parents, leaf = key.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[leaf] = value
    return doc


def scaled_problem(radius):
    """base_problem() on a box of `radius`, with every length scaled alike."""
    doc = base_problem()
    c = radius / doc["box"]["radius"]
    for name in ("omega", "w1", "w2"):
        doc[name]["intervals"] = [[a * c, b * c] for a, b in doc[name]["intervals"]]
    for name in ("q", "f"):
        doc[name]["params"]["center"] *= c
        doc[name]["params"]["width"] *= c
    doc["box"]["radius"] = radius
    return doc


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

    def test_dimension_2_exits_1(self, tmp_path, capsys):
        doc = base_problem()
        doc["dimension"] = 2
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "dimension" in err[0]

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
    # a dotted key names a nested field; float() and int() used to coerce
    # every value but the first two, or end in a traceback on 1e999 and 10**400
    @pytest.mark.parametrize("key, value", [
        ("s", [1]), ("tau", None), ("box.points", 512.7), ("box.points", 1e999),
        ("box.radius", "16"), ("s", "0.5"), ("noise.seed", 1.9), ("w1.intervals", [["4", 5.0]]),
        ("noise.level", float("nan")), ("version", True), ("dimension", 1.0),
        pytest.param("box.points", 10**400, id="box.points-huge-int"),
    ])
    def test_wrong_json_type_exits_1(self, tmp_path, capsys, key, value):
        path = write_problem(tmp_path, with_field(base_problem(), key, value))
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    # only q.params used to be checked to be an object: a string scheme was
    # refused by its letters, a list omega as an unhashable type
    @pytest.mark.parametrize("value", ["spectral", [[-1.0, 1.0]], 3],
                             ids=["string", "list", "number"])
    @pytest.mark.parametrize("block", ["problem", "box", "noise", "scheme", "scheme.stop_rule",
                                       "omega", "q", "q.params", "g"])
    def test_block_that_is_not_an_object_exits_1(self, tmp_path, capsys, block, value):
        doc = value if block == "problem" else with_field(base_problem(), block, value)
        path, out = write_problem(tmp_path, doc), tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"error: {block} must be an object"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value, want", [
        ("omega.intervals", [], "omega.intervals must be a nonempty list"),
        ("q.kind", ["bump"], "malformed problem: unhashable type: 'list'"),
        ("s", 1.5, "s must lie in (0,1)"),
        ("q.kind", "ramp",
         "q.kind must be one of ['bump', 'constant', 'file', 'piecewise', 'zero']"),
        ("q", {"kind": "piecewise", "params": {"breaks": [0.0], "values": [1.0]}},
         "piecewise needs len(values) == len(breaks) + 1"),
        ("q.params.width", 0.0, "bump width must be positive"),
        ("g", {"path": None}, "g.path must be a string"),
        ("g", {"path": 3}, "g.path must be a string"),
    ], ids=["empty-intervals", "list-kind", "s-above-1", "unknown-kind", "piecewise-lengths",
            "bump-width-0", "g-path-null", "g-path-number"])
    def test_refusal_states_its_rule(self, tmp_path, capsys, key, value, want):
        path = write_problem(tmp_path, with_field(base_problem(), key, value))
        out = tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
        assert not out.exists()

    def test_non_finite_measured_g_exits_1(self, tmp_path, capsys):
        doc = base_problem()
        box = fr.build_box(doc["box"]["radius"], doc["box"]["points"])
        sets = fr.build_index_sets(box, doc["omega"]["intervals"], doc["w1"]["intervals"],
                                   doc["w2"]["intervals"])
        # an int past the float range used to end in an OverflowError traceback
        for bad in (float("nan"), 10**400):
            g = [0.0] * len(sets.w2)
            g[3] = bad
            gpath = tmp_path / "g.json"
            gpath.write_text(json.dumps({"values": g}))
            doc["g"] = {"path": str(gpath)}
            path = write_problem(tmp_path, doc)
            assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]

    # the last case, an int past the float range, used to end in a traceback
    @pytest.mark.parametrize("data", [
        {"vals": [1.0]}, {"values": [1.0, None]}, [1.0], {"values": [10**400]},
    ])
    def test_malformed_profile_file_exits_1(self, tmp_path, capsys, data):
        fpath = tmp_path / "q.json"
        fpath.write_text(json.dumps(data))
        doc = base_problem()
        doc["q"] = {"kind": "file", "params": {"path": str(fpath)}}
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "values" in err[0]

    # json's or the codec's message used to stand alone, naming neither the
    # file nor the field it was read for
    @pytest.mark.parametrize("text", [b"{not json", b"\xff{}"], ids=["json", "utf8"])
    @pytest.mark.parametrize("role", ["g", "q", "problem"])
    def test_undecodable_file_names_its_path(self, tmp_path, capsys, role, text):
        fpath = tmp_path / f"{role}-data.json"
        fpath.write_bytes(text)
        doc = base_problem()
        if role == "g":
            doc["g"] = {"path": str(fpath)}
        else:
            doc["q"] = {"kind": "file", "params": {"path": str(fpath)}}
        path = str(fpath) if role == "problem" else write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {fpath}: malformed JSON")

    @pytest.mark.parametrize("role", ["g", "q"])
    def test_data_file_of_wrong_length_exits_1(self, tmp_path, capsys, role):
        fpath = tmp_path / f"{role}-data.json"
        fpath.write_text(json.dumps({"values": [0.5] * 7}))
        doc = base_problem()
        if role == "g":
            doc["g"] = {"path": str(fpath)}
        else:
            doc["q"] = {"kind": "file", "params": {"path": str(fpath)}}
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "has 7 values" in err[0]

    # a negative seed used to reach numpy, whose message names no field, or
    # to pass unread: forward draws no noise
    @pytest.mark.parametrize("verb", ["forward", "reconstruct"])
    def test_negative_noise_seed_exits_1(self, tmp_path, capsys, verb):
        doc = base_problem()
        doc["noise"] = {"level": 1e-3, "seed": -1}
        path = write_problem(tmp_path, doc)
        out = tmp_path / "out.json"
        assert main([verb, path, str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: noise.seed must be >= 0"] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["stability", "--trials", "1"], ["reconstruct"],
    ], ids=["stability", "reconstruct"])
    def test_negative_seed_flag_exits_1(self, tmp_path, capsys, argv):
        doc = base_problem()
        doc["noise"]["level"] = 1e-3
        path = write_problem(tmp_path, doc)
        out = tmp_path / "out"
        assert main([argv[0], path, str(out), "--seed", "-3"] + argv[1:]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed") and not out.exists()

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

    # the footprint estimate used to end in int(inf) or int(nan)
    @pytest.mark.parametrize("box, omega, field", [
        ({"radius": 16.0, "points": 10**300}, [[-1.0, 1.0]], "box.points"),
        ({"radius": 1e308, "points": 512}, [[-1e308, 1e308]], "box.radius"),
        ({"radius": 5e-324, "points": 512}, [[-1.0, 1.0]], "box.radius"),
    ], ids=["points-1e300", "radius-1e308", "radius-5e-324"])
    def test_unbounded_footprint_exits_1(self, tmp_path, capsys, box, omega, field):
        doc = base_problem()
        doc["box"], doc["omega"]["intervals"] = box, omega
        path = write_problem(tmp_path, doc)
        assert main(["reconstruct", path, str(tmp_path / "rep.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert field in err[0] and "budget" in err[0]

    # each used to print a numpy RuntimeWarning before its error line; a zero
    # radius passes the footprint estimate on to build_box
    @pytest.mark.parametrize("key, value, want", [
        ("radius", 1e308, "box radius"), ("level", 1e300, "noise.level"),
        ("radius", 0.0, "box radius must be positive"),
        ("level", 1e155, "noise.level 1e+155 gives no finite discrepancy level"),
    ], ids=["box.radius-1e308", "noise.level-1e300", "box.radius-0", "noise.level-1e155"])
    def test_overflowing_value_prints_one_line(self, tmp_path, key, value, want):
        doc = base_problem()
        doc["box" if key == "radius" else "noise"][key] = value
        path = write_problem(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "fracrec.cli", "reconstruct", path, str(tmp_path / "o.json")],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_VALIDATION
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and want in err[0]

    # the Sobolev symbols used to overflow with two numpy warnings, and the
    # run went on to an unrelated error (reconstruct: an SVD that did not converge)
    @pytest.mark.parametrize("verb", ["forward", "reconstruct"])
    def test_overflowing_symbol_prints_one_line(self, tmp_path, verb):
        path, out = write_problem(tmp_path, scaled_problem(1e-300)), tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "fracrec.cli", verb, path, str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr.splitlines() == [
            "error: box spacing 3.90625e-303 is too fine: the Sobolev symbols overflow"]
        assert not out.exists()

    # an explicit stop rule used to run on to exit 0 with inf and nan in the report
    @pytest.mark.parametrize("verb", ["reconstruct", "compare"])
    @pytest.mark.parametrize("stop", [{"kind": "fixed_list"}, {"kind": "discrepancy", "delta": 1e-2}],
                             ids=["fixed_list", "discrepancy"])
    def test_overflowing_noise_under_explicit_stop_prints_one_line(self, tmp_path, verb, stop):
        doc = base_problem()
        doc["noise"]["level"], doc["scheme"]["stop_rule"] = 1e300, stop
        path, out = write_problem(tmp_path, doc), tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "fracrec.cli", verb, path, str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "noise.level" in err[0]
        assert not out.exists()

    # a finite data norm whose iterates' norms overflow used to exit 0 with
    # numpy RuntimeWarnings on stderr, and under fixed_list with inf in the report
    @pytest.mark.parametrize("level", [1e150, 1e152])
    @pytest.mark.parametrize("stop", ["auto", "fixed_list"])
    @pytest.mark.parametrize("verb", ["reconstruct", "compare"])
    def test_overflowing_iterate_norms_exit_clean(self, tmp_path, verb, stop, level):
        doc = json.loads(EXAMPLE.read_text())
        doc["noise"]["level"] = level
        if stop != "auto":
            doc["scheme"]["stop_rule"] = {"kind": stop}
        path, out = write_problem(tmp_path, doc), tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "fracrec.cli", "--quiet", verb, path,
                               str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        err = proc.stderr.splitlines()
        if proc.returncode == EXIT_OK:
            assert err == []
            assert not re.search(r"\b(inf|nan)\b", out.read_text(), re.IGNORECASE)
        else:
            assert proc.returncode == EXIT_VALIDATION
            assert len(err) == 1 and err[0].startswith("error:")
            assert not out.exists()
        if (verb, stop, level) == ("reconstruct", "fixed_list", 1e150):
            assert proc.returncode == EXIT_VALIDATION

    # a datum of amplitude 1e300 overflows the norms: forward used to exit 0 with
    # nan in its report, minimal_l2 to exit 3, and all but the two filter
    # reconstructs printed numpy RuntimeWarnings before their error line
    @pytest.mark.parametrize("argv, amplitude", [
        (["forward"], 1e300),
        (["reconstruct"], 1e300),
        (["reconstruct", "--scheme", "tikhonov"], 1e300),
        (["reconstruct", "--scheme", "minimal_l2"], 1e300),
        (["compare", "--schemes", "minimal_l2,spectral"], 1e300),
        (["stability", "--levels", "1e300,1e200", "--trials", "1"], 1.0),
    ], ids=["forward", "spectral", "tikhonov", "minimal_l2", "compare", "stability"])
    def test_overflowing_data_exit_1_with_one_line(self, tmp_path, argv, amplitude):
        doc = json.loads(EXAMPLE.read_text())
        doc["f"]["params"]["amplitude"] = amplitude
        path, out = write_problem(tmp_path, doc), tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "fracrec.cli", argv[0], path, str(out)]
                              + argv[1:], env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "too large" in err[0]
        assert not out.exists()

    # the scheme block is checked whole at parse, so the verbs that do not run
    # the schedule refuse it too; the last three cases used to pass forward
    # and spectrum, and a fixed_list delta passed every verb unread
    @pytest.mark.parametrize("verb, scheme, extra", [
        pytest.param(verb, scheme, extra, id=name if verb == "reconstruct" else f"{verb}-{name}")
        for name, scheme, extra in [
            ("delta-null", {"stop_rule": {"kind": "discrepancy", "delta": None}}, []),
            ("delta-list", {"stop_rule": {"kind": "discrepancy", "delta": [1]}}, []),
            ("delta-nan", {"stop_rule": {"kind": "discrepancy", "delta": float("nan")}}, []),
            ("delta-negative", {"stop_rule": {"kind": "discrepancy", "delta": -1.0}}, []),
            ("schedule-nan", {"alpha_schedule": [1e-2, float("nan"), 1e-4]}, []),
            ("alpha-list-nan", {}, ["--alpha-list", "1e-2,nan,1e-4"]),
            ("alpha-list-empty", {}, ["--alpha-list", ""]),
            ("schedule-increasing", {"alpha_schedule": [1e-3, 1e-2]}, []),
            ("schedule-nonpositive", {"alpha_schedule": [1e-2, 0.0]}, []),
            ("fixed-list-with-delta", {"stop_rule": {"kind": "fixed_list", "delta": 0.1}}, []),
        ]
        for verb in ("reconstruct", "forward", "spectrum") if verb == "reconstruct" or not extra
    ])
    def test_malformed_scheme_number_exits_1(self, tmp_path, capsys, verb, scheme, extra):
        doc = base_problem()
        doc["scheme"].update(scheme)
        path = write_problem(tmp_path, doc)
        out = tmp_path / "rep.json"
        assert main([verb, path, str(out)] + extra) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    # RegularizerConfig's refusal of a stop rule names the problem-file key
    @pytest.mark.parametrize("stop", [
        {"kind": "foo"}, {"kind": ["fixed_list"]}, {"kind": "discrepancy"},
    ], ids=["unknown-kind", "list-kind", "discrepancy-without-delta"])
    def test_malformed_stop_rule_names_its_key(self, tmp_path, capsys, stop):
        doc = base_problem()
        doc["scheme"]["stop_rule"] = stop
        path, out = write_problem(tmp_path, doc), tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: stop rule must be")
        assert 'scheme.stop_rule {"kind": "fixed_list"} or {"kind": "discrepancy"' in err[0]
        assert not out.exists()

    # a bare float() refused a malformed list by a line that named no flag
    @pytest.mark.parametrize("text", ["1e-2,,1e-3", "", "abc"],
                             ids=["empty-entry", "empty", "word"])
    @pytest.mark.parametrize("verb, flag", [("reconstruct", "--alpha-list"),
                                            ("stability", "--levels")])
    def test_number_list_flag_names_itself(self, tmp_path, capsys, verb, flag, text):
        path, out = write_problem(tmp_path, base_problem()), tmp_path / "out"
        assert main([verb, path, str(out), flag, text]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag} entries must be numbers, got {text!r}"]
        assert not out.exists()

    def test_increasing_alpha_list_refused_before_the_forward_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real = cli.synthetic_measurement
        monkeypatch.setattr(cli, "synthetic_measurement",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        path, out = write_problem(tmp_path, base_problem()), tmp_path / "rep.json"
        assert main(["reconstruct", path, str(out), "--alpha-list", "1e-3,1e-2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "strictly decreasing" in err[0]
        assert calls == [] and not out.exists()


class TestRunConfig:
    """One function maps a normalized scheme block to its RegularizerConfig."""

    @pytest.mark.parametrize("stop, delta, rule", [
        ("auto", None, ("fixed_list",)),
        ("auto", 0.5, ("discrepancy", 0.5)),
        ({"kind": "fixed_list"}, 0.5, ("fixed_list",)),
        ({"kind": "discrepancy", "delta": 1}, 0.5, ("discrepancy", 1)),
    ], ids=["auto-exact", "auto-noisy", "fixed_list", "discrepancy"])
    def test_stop_rule(self, stop, delta, rule):
        block = {"name": "spectral", "alpha_schedule": "auto", "stop_rule": stop}
        run = cli._run_config(block, delta)
        assert run.scheme == "spectral" and run.alpha_schedule is None
        assert run.stop_rule == rule

    def test_explicit_schedule(self):
        block = {"name": "tikhonov", "alpha_schedule": [1e-1, 1e-2], "stop_rule": "auto"}
        np.testing.assert_array_equal(cli._run_config(block).alpha_schedule, [1e-1, 1e-2])

    @pytest.mark.parametrize("stop", ["auto", {"kind": "fixed_list"}], ids=["auto", "fixed_list"])
    def test_noise_sets_the_auto_discrepancy_level(self, tmp_path, stop):
        doc = base_problem()
        doc["noise"]["level"], doc["scheme"]["stop_rule"] = 1e-4, stop
        args = SimpleNamespace(problem=write_problem(tmp_path, doc), seed=None)
        cfg, m, sets, seed = cli._setup(args)
        rec = cli._measurement(cfg, m, sets, seed)
        h_dual = fr.assemble_ucp(m, sets).dual_norm(fr.measurement_to_h(m, sets, rec))
        want = ("discrepancy", cli.DISCREPANCY_FACTOR * 1e-4 * h_dual)
        assert cli._make_cfg(cfg, m, sets, rec).stop_rule == (
            want if stop == "auto" else ("fixed_list",))

    def test_integer_and_float_delta_write_one_report(self, tmp_path):
        # the two problems hash apart; the rest of their reports agrees
        reports = []
        for delta in (1, 1.0):
            doc = base_problem()
            doc["scheme"]["stop_rule"] = {"kind": "discrepancy", "delta": delta}
            path, out = write_problem(tmp_path, doc), tmp_path / "rep.json"
            assert main(["reconstruct", path, str(out), "--quiet"]) == EXIT_OK
            rep = json.loads(out.read_text())
            reports.append((rep.pop("config_hash"), rep))
        assert reports[0][0] != reports[1][0] and reports[0][1] == reports[1][1]


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

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("verb", ["forward", "reconstruct", "spectrum", "instability",
                                      "stability", "compare"])
    def test_negative_seed_refused_on_every_verb(self, tmp_path, capsys, verb, before):
        out = tmp_path / "out"
        args = ([str(out), "--R", "13"] if verb == "instability"
                else [write_problem(tmp_path, base_problem()), str(out)])
        argv = ["--seed", "-3", verb] + args if before else [verb] + args + ["--seed", "-3"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be >= 0, got -3"]
        assert not out.exists()


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

    @pytest.mark.parametrize("target, reason", [
        ("missing/r.json", "No such file or directory"),
        ("out", "Is a directory"),
    ])
    def test_output_error_names_the_given_path(self, tmp_path, capsys, target, reason):
        path = write_problem(tmp_path, base_problem())
        (tmp_path / "out").mkdir()
        out = str(tmp_path / target)
        assert main(["reconstruct", path, out]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {out}: {reason}"]
        assert not list(tmp_path.rglob(".tmp-*~"))


class TestLibraryWarnings:
    # a warning used to take two lines, the second a source line of cli.py
    @pytest.mark.parametrize("verb", ["reconstruct", "compare"])
    def test_warning_is_one_line_and_the_handler_is_restored(self, tmp_path, capsys, verb):
        doc = base_problem()
        doc["s"] = 0.01
        path, out = write_problem(tmp_path, doc), tmp_path / "out"
        handler = warnings.showwarning
        assert main(["--quiet", verb, path, str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: recovery with a merely bounded potential requires s >= 1/4; "
            "running at s=0.01"]
        assert warnings.showwarning is handler and out.exists()


class TestOutputFiles:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_mode_follows_the_umask_as_open_does(self, tmp_path, umask, mode):
        script = (
            "import os, sys\n"
            f"os.umask({umask})\n"
            "from fracrec.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        proc = subprocess.run(
            [sys.executable, "-c", script, "spectrum", str(EXAMPLE), str(csv), "--plot", str(svg)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert [stat.S_IMODE(p.stat().st_mode) for p in (csv, svg)] == [mode, mode]

    @staticmethod
    def check_failed_plot(tmp_path, capsys, existing, plot, reason):
        path = write_problem(tmp_path, base_problem())
        csv, svg = tmp_path / "s.csv", tmp_path / plot
        if existing:
            csv.write_text("old\n")
        assert main(["spectrum", path, str(csv), "--plot", str(svg)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {svg}: {reason}"]
        assert csv.read_text() == "old\n" if existing else not csv.exists()
        assert not list(tmp_path.rglob(".tmp-*~"))

    @pytest.mark.parametrize("existing", [False, True], ids=["new-csv", "existing-csv"])
    def test_failed_plot_write_leaves_the_csv_as_it_was(self, tmp_path, capsys, existing):
        self.check_failed_plot(tmp_path, capsys, existing, "missing/s.svg",
                               "No such file or directory")

    # the SVG used to replace the CSV, with exit 0
    @pytest.mark.parametrize("plot", ["s.csv", "link"], ids=["same-path", "link-to-csv"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-csv", "existing-csv"])
    def test_plot_at_the_csv_file_leaves_the_csv_as_it_was(self, tmp_path, capsys, existing,
                                                           plot):
        (tmp_path / "link").symlink_to("s.csv")
        self.check_failed_plot(tmp_path, capsys, existing, plot,
                               "another output resolves to the same file")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-csv", "existing-csv"])
    def test_plot_target_directory_leaves_the_csv_as_it_was(self, tmp_path, capsys, existing):
        # a directory target fails only at its rename, after the CSV's
        (tmp_path / "plotdir").mkdir()
        self.check_failed_plot(tmp_path, capsys, existing, "plotdir", "Is a directory")

    def test_link_to_a_directory_is_replaced_as_rename_does(self, tmp_path):
        (tmp_path / "plotdir").mkdir()
        (tmp_path / "link").symlink_to("plotdir")
        path = write_problem(tmp_path, base_problem())
        argv = ["spectrum", path, str(tmp_path / "s.csv"), "--plot", str(tmp_path / "link")]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "link").is_file() and not (tmp_path / "link").is_symlink()


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


class TestEntryPoint:
    # the two ways a process enters the CLI: `python -m` and the console script's run()
    LAUNCHERS = {
        "module": [sys.executable, "-m", "fracrec.cli"],
        "run": [sys.executable, "-c",
                "import sys; from fracrec.cli import run; sys.argv[0] = 'fracrec'; run()"],
    }

    @staticmethod
    def launch(launcher, *argv):
        # the child gets this process's BLAS thread setting, so its report can match main()'s
        blas = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if k in os.environ}
        return subprocess.run(launcher + list(argv), env=child_env(**blas),
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS.keys())
    def test_launch_forms_write_main_s_report(self, tmp_path, launcher):
        out, ref = tmp_path / "child.json", tmp_path / "main.json"
        proc = self.launch(launcher, "reconstruct", str(EXAMPLE), str(out), "--quiet")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert main(["reconstruct", str(EXAMPLE), str(ref), "--quiet"]) == EXIT_OK
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS.keys())
    def test_launch_forms_refuse_a_malformed_problem(self, tmp_path, launcher):
        doc = base_problem()
        doc["tau"] = 2.0
        out = tmp_path / "o.json"
        proc = self.launch(launcher, "reconstruct", write_problem(tmp_path, doc), str(out))
        assert proc.returncode == EXIT_VALIDATION
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "tau" in err[0]
        assert not out.exists()

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"]["fracrec"] == "fracrec.cli:run"

    def test_cli_import_leaves_the_experiments_unloaded(self):
        script = ("import sys, fracrec.cli; print([m for m in sys.modules "
                  "if m in ('fracrec.experiments', 'fracrec.svgplot')])")
        proc = self.launch([sys.executable, "-c", script])
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr

    def test_reconstruct_leaves_the_experiments_unloaded(self, tmp_path):
        # a whole reconstruct run, report written, still loads neither module
        script = ("import sys; from fracrec.cli import main\n"
                  "code = main(['reconstruct', sys.argv[1], sys.argv[2], '--quiet'])\n"
                  "print(code, [m for m in sys.modules "
                  "if m in ('fracrec.experiments', 'fracrec.svgplot')])\n")
        out = tmp_path / "r.json"
        proc = self.launch([sys.executable, "-c", script], str(EXAMPLE), str(out))
        assert (proc.returncode, proc.stdout.strip()) == (0, f"{EXIT_OK} []"), proc.stderr
        assert out.exists()

    def test_package_resolves_the_experiment_names_on_first_use(self):
        script = (
            "import json, sys, fracrec\n"
            "names = json.loads(sys.argv[1])\n"
            "got = [getattr(fracrec, name) for name in names]\n"
            "import fracrec.experiments as ex\n"
            "same = [obj is getattr(ex, name) for obj, name in zip(got, names)]\n"
            "try:\n"
            "    fracrec.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps([same, str(exc)]))\n"
        )
        proc = self.launch([sys.executable, "-c", script], json.dumps(experiments.__all__))
        assert proc.returncode == 0, proc.stderr
        same, err = json.loads(proc.stdout)
        assert same == [True] * len(experiments.__all__)
        assert err == "module 'fracrec' has no attribute 'no_such_name'"


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

    def test_budget_keeps_every_product_on_the_gather_path(self):
        # a problem of K region nodes passes only if 32 K^2 <= the budget, and no
        # product a verb makes has more than K x K block entries; past
        # GATHER_MAX_ENTRIES a product moves to the rFFT path and its bits change
        k = 1000.0
        assert cli.footprint_bytes(256.0, 512, [(0.0, k - 1.0)]) >= 32 * k * k
        assert cli.FOOTPRINT_BUDGET_BYTES / 32 <= fr.grid.GATHER_MAX_ENTRIES

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

    def test_file_profiles_match_the_bump_profiles(self, tmp_path):
        # a file holding a bump's node values stands in for the bump itself
        doc = base_problem()
        box = fr.build_box(doc["box"]["radius"], doc["box"]["points"])
        sets = fr.build_index_sets(box, *(doc[k]["intervals"] for k in ("omega", "w1", "w2")))
        doc_file = base_problem()
        for key, nodes in (("q", sets.omega), ("f", sets.w1)):
            p = doc[key]["params"]
            vals = bump_values(box.nodes[nodes], p["center"], p["width"], p["amplitude"])
            fpath = tmp_path / f"{key}.json"
            fpath.write_text(json.dumps({"values": vals.tolist()}))
            doc_file[key] = {"kind": "file", "params": {"path": str(fpath)}}
        reps = []
        for name, d in (("bump", doc), ("file", doc_file)):
            out = tmp_path / f"fw-{name}.json"
            assert main(["forward", write_problem(tmp_path, d, f"{name}.json"), str(out)]) == 0
            reps.append(json.loads(out.read_text()))
        assert reps[0]["u"] == reps[1]["u"] and reps[0]["g"] == reps[1]["g"]

    def test_sine_datum_and_piecewise_potential_run(self, tmp_path):
        doc = base_problem()
        doc["f"] = {"kind": "sine", "params": {"mode": 2}}
        doc["q"] = {"kind": "piecewise", "params": {"breaks": [0.0], "values": [1.0, 2.0]}}
        out = tmp_path / "fw.json"
        assert main(["forward", write_problem(tmp_path, doc), str(out)]) == EXIT_OK
        assert float(json.loads(out.read_text())["interior_residual"]) <= 1e-8

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

    def test_example_needs_no_eigenvalues(self, tmp_path, eigvalsh_calls):
        assert main(["forward", str(EXAMPLE), str(tmp_path / "o.json")]) == EXIT_OK
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("value", [1e160, 1e200, 1e300, -1e300])
    def test_huge_constant_potential_runs_without_warnings(self, tmp_path, value):
        doc = base_problem()
        doc["q"] = {"kind": "constant", "params": {"value": value}}
        proc = subprocess.run(
            [sys.executable, "-m", "fracrec.cli", "forward", write_problem(tmp_path, doc),
             str(tmp_path / "o.json")],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def test_malformed_region_exits_1(self, tmp_path):
        doc = base_problem()
        doc["w1"] = {"intervals": [[0.5, 2.0]]}
        path = write_problem(tmp_path, doc)
        assert main(["forward", path, str(tmp_path / "o.json")]) == EXIT_VALIDATION


class TestReconstructCommand:
    def test_example_factors_omega_and_window_once(self, tmp_path, cholesky_calls):
        box = fr.build_box(16.0, 512)
        sets = fr.build_index_sets(box, [(-1.0, 1.0)], [(4.0, 5.0)], [(-3.0, -1.25), (1.25, 3.0)])
        n_om, n_w = len(sets.omega), len(sets.w2)
        argv = ["reconstruct", str(EXAMPLE), str(tmp_path / "rep.json"), "--quiet"]
        # the minimal-norm workspace takes the window's factor from the operator
        for extra in ([], ["--scheme", "minimal_l2", "--alpha-list", "1e-2,1e-3", "--tau", "0.01"]):
            cholesky_calls.clear()
            assert main(argv + extra) == EXIT_OK
            # the second (n_om, n_om) is the synthetic measurement's certificate
            # that the interior block clears its Dirichlet margin
            assert sorted(cholesky_calls) == sorted([(n_om, n_om), (n_om, n_om), (n_w, n_w)])

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

    def test_zero_iterate_at_discrepancy_stop_exits_1(self, tmp_path, capsys):
        # the first alphas of the auto schedule exceed the minimal-L2 data norm, so
        # their iterates are zero, and their residual already meets delta
        path = write_problem(tmp_path, explicit_stop_problem())
        out = tmp_path / "o.json"
        assert main(["reconstruct", path, str(out), "--scheme", "minimal_l2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "interior part is zero" in err[0] and "delta" in err[0]
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

    @pytest.mark.parametrize("timed", [True, False], ids=["timed", "untimed"])
    def test_record_timing(self, tmp_path, timed):
        out = tmp_path / "rep.json"
        argv = ["reconstruct", str(EXAMPLE), str(out), "--quiet"] + ["--record-timing"] * timed
        assert main(argv) == EXIT_OK
        wall = json.loads(out.read_text())["wall_time_s"]
        if timed:
            assert isinstance(wall, str) and wall == cli._fmt(float(wall))
            assert np.isfinite(float(wall)) and float(wall) > 0
        else:
            assert wall is None

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

    # a one-node window used to get a slope fitted through one point, with
    # numpy's RankWarning on stderr
    def test_rank_one_window_writes_nan_slope(self, tmp_path, capsys, recwarn):
        doc = json.loads(EXAMPLE.read_text())
        h = 2 * doc["box"]["radius"] / doc["box"]["points"]
        doc["w2"]["intervals"] = [[2 + 0.1 * h, 2 + 0.9 * h]]
        path, csv = write_problem(tmp_path, doc), tmp_path / "spec.csv"
        assert main(["spectrum", path, str(csv)]) == EXIT_OK
        assert capsys.readouterr().err == "" and not recwarn.list
        lines = csv.read_text().splitlines()
        assert lines[-2:] == ["# numerical_rank,1", "# slope,nan"]

    @pytest.mark.parametrize("x, y", [([], []), ([1.0, 2.0], [1.0])], ids=["empty", "unequal"])
    def test_plot_refuses_empty_or_unequal_series(self, x, y):
        with pytest.raises(ValueError, match="nonempty and of equal length"):
            line_plot_svg(x, y, "x", "y")

    def test_plot_of_a_constant_series_stays_in_the_frame(self):
        # a zero data range is widened to one unit, not divided by
        svg = ET.fromstring(line_plot_svg([2.0, 2.0], [5.0, 5.0], "x", "y"))
        frame = [e for e in svg.iter() if e.tag.endswith("rect")][1]
        x0, y0 = float(frame.get("x")), float(frame.get("y"))
        x1, y1 = x0 + float(frame.get("width")), y0 + float(frame.get("height"))
        line = next(e for e in svg.iter() if e.tag.endswith("polyline"))
        for pt in line.get("points").split():
            px, py = map(float, pt.split(","))
            assert x0 < px < x1 and y0 < py < y1


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

    # a fit above the bound is exit 4, with the CSV written and one stderr
    # line unless --quiet; the real series at R >= 13 meets the bound
    @pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
    def test_slope_above_bound_exits_4(self, tmp_path, capsys, monkeypatch, quiet):
        fit = {"slope": -0.5, "r2": 1.0, "k_fit": [1, 2, 3], "floor": 0.0}
        monkeypatch.setattr("fracrec.experiments.instability_series",
                            lambda m, sets, k_max: SimpleNamespace(
                                k_values=[1, 2, 3], hk_norms=[1.0, 0.6, 0.36], decay_fit=fit))
        csv = tmp_path / "inst.csv"
        argv = ["instability", str(csv), "--R", "13"] + (["--quiet"] if quiet else [])
        assert main(argv) == EXIT_SLOPE
        assert "# slope,-0.5" in csv.read_text().splitlines()
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ([] if quiet else [f"decay slope -0.5000 above -log 2 = {-np.log(2.0):.4f}"])

    def test_small_radius_exits_1(self, tmp_path, capsys):
        code = main(["instability", str(tmp_path / "i.csv"), "--R", "5"])
        assert code == EXIT_VALIDATION
        assert "12" in capsys.readouterr().err

    @pytest.mark.parametrize("radius, want", [("nan", ">= 13"), ("inf", "box radius")],
                             ids=["nan", "inf"])
    def test_non_finite_radius_exits_1(self, tmp_path, capsys, radius, want):
        out = tmp_path / "i.csv"
        assert main(["instability", str(out), "--R", radius]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and want in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--N", "--kmax"])
    def test_integer_past_float_range_exits_1(self, tmp_path, capsys, flag):
        # argparse's int took it, and the footprint estimate raised OverflowError
        out = tmp_path / "i.csv"
        assert main(["instability", str(out), "--R", "13", flag, "1" + "0" * 400]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
        assert not out.exists()

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

    # these used to be refused as fewer than two k above the rounding floor
    @pytest.mark.parametrize("kmax", ["2", "0", "-3"])
    def test_kmax_below_the_fit_range_is_refused_by_name(self, tmp_path, capsys, kmax):
        out = tmp_path / "i.csv"
        assert main(["instability", str(out), "--R", "13", "--kmax", kmax]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: kmax {kmax} must be >= 3: the decay fit needs two k in 2..12"]
        assert not out.exists()

    # the footprint estimate used to count 2 * kmax full-grid vectors, so a
    # kmax far past the grid was refused as too many points
    def test_kmax_far_past_the_grid_is_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "i.csv"
        code = main(["instability", str(out), "--R", "13", "--kmax", "100000000"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: kmax 100000000 needs more")

    def test_valid_seed_is_ignored(self, tmp_path):
        # the verb draws no noise, so a seed changes nothing
        runs = []
        for name, seed in (("a.csv", []), ("b.csv", ["--seed", "5"])):
            out = tmp_path / name
            code = main(["instability", str(out), "--R", "13", "--kmax", "8", "--quiet"] + seed)
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]


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
        ["--levels", "1e-3,1e-3"],
        ["--levels", "5e-324,1e-300"],
    ], ids=["no-trials", "negative-level", "nan-level", "one-positive-level",
            "one-distinct-level", "underflowing-level"])
    def test_malformed_noise_ladder_exits_1(self, tmp_path, capsys, extra):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "st.csv"
        assert main(["stability", path, str(out), "--trials", "1"] + extra) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_subnormal_level_writes_finite_fits_quietly(self, tmp_path, capsys):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "st.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", path, str(out), "--trials", "1",
                         "--levels", "1e-320,1e-4"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        footer = [l.split(",") for l in out.read_text().splitlines() if l.startswith("#")]
        assert len(footer) == 4 and np.isfinite([float(v) for _, v in footer]).all()

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

    @pytest.mark.parametrize("doc, schemes", [
        (base_problem(), "spectral,tikhonov,minimal_l2"),
        (explicit_stop_problem(), "spectral,tikhonov"),
    ], ids=["example", "explicit-stop"])
    def test_rows_match_reconstruct(self, tmp_path, doc, schemes):
        # each row is the run `reconstruct --scheme <name>` makes, stop rule included
        path = write_problem(tmp_path, doc)
        out = tmp_path / "cmp.csv"
        assert main(["compare", path, str(out), "--schemes", schemes]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert [row[0] for row in rows] == schemes.split(",")
        for name, mask_fraction, final_residual in rows:
            rep_path = tmp_path / f"{name}.json"
            assert main(["reconstruct", path, str(rep_path), "--scheme", name,
                         "--quiet"]) == EXIT_OK
            rep = json.loads(rep_path.read_text())
            assert mask_fraction == rep["mask_fraction"]
            assert final_residual == rep["trace"][-1]["residual_dual"]

    def test_three_schemes_share_one_svd(self, tmp_path, svd_calls):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "cmp.csv"
        schemes = "spectral,tikhonov,minimal_l2"
        assert main(["compare", path, str(out), "--schemes", schemes]) == EXIT_OK
        assert len(svd_calls) == 1

    def test_zero_iterate_row_exits_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, explicit_stop_problem())
        out = tmp_path / "c.csv"
        code = main(["compare", path, str(out), "--schemes", "spectral,minimal_l2"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "interior part is zero" in err[0] and "delta" in err[0]
        assert not out.exists()

    # an empty name used to be refused as a repeated one, and an unknown one
    # only after the measurement was made
    def test_unknown_scheme_exits_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.synthetic_measurement
        monkeypatch.setattr(cli, "synthetic_measurement",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        path, out = write_problem(tmp_path, base_problem()), tmp_path / "c.csv"
        for schemes, name in (("spectral,magic", "'magic'"), (",", "''")):
            assert main(["compare", path, str(out), "--schemes", schemes]) == EXIT_VALIDATION
            assert capsys.readouterr().err.splitlines() == [f"error: unknown scheme {name}"]
        assert calls == [] and not out.exists()

    def test_repeated_scheme_exits_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, base_problem())
        out = tmp_path / "c.csv"
        assert main(["compare", path, str(out), "--schemes", "spectral,spectral"]) == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "spectral" in err[0]
        assert not out.exists()
