"""Command-line front end: problem files, experiment commands, reports, plots.

Problem definitions are versioned JSON documents with a strict schema
(unknown keys are rejected).  All randomness flows from the single seed in
the file (or the --seed override); rerunning a command with the same seed
produces byte-identical output files, each written atomically (temp file +
rename) with the umask's mode; `spectrum --plot` writes both or neither.

Exit codes: 0 success; 1 validation/usage error; 2 interior operator
singular (eigenvalue condition); 3 no minimal-L2 minimizer at the first
alpha; 4 decay-slope bound violated in the instability experiment.
"""

from __future__ import annotations

import argparse
import errno
import gc
import hashlib
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import replace

import numpy as np

from .forward import EigenvalueConditionError, Potential, solve_diagnostics, solve_dirichlet
from .grid import (
    FractionalOrder,
    GridFunction,
    build_box,
    build_index_sets,
    build_sobolev,
    bump_values,
)
from .reconstruct import (
    MeasurementRecord,
    PipelineError,
    full_pipeline,
    measurement_to_h,
    synthetic_measurement,
)
from .ucp import (
    DISCREPANCY_FACTOR,
    SCHEMES,
    OptimizerNonConvergence,
    RegularizerConfig,
    assemble_ucp,
)

__all__ = ["main", "run", "load_problem", "parse_problem", "serialize_problem",
           "ProblemValidationError"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_EIGENVALUE = 2
EXIT_NONCONVERGENCE = 3
EXIT_SLOPE = 4

_SCHEMA_VERSION = 1

# a problem whose estimated working set (`footprint_bytes`) exceeds this is refused
FOOTPRINT_BUDGET_BYTES = 2_000_000_000


class ProblemValidationError(ValueError):
    pass


def _fmt(v: float) -> str:
    """Decimal text with 17 significant digits (lossless double round-trip)."""
    return f"{float(v):.17g}"


def _require_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ProblemValidationError(f"{where} must be an object")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ProblemValidationError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ProblemValidationError(f"missing keys in {where}: {sorted(missing)}")


def _intervals(obj: dict, where: str) -> dict:
    _require_keys(obj, {"intervals"}, set(), where)
    ivs = obj["intervals"]
    if not isinstance(ivs, list) or not ivs:
        raise ProblemValidationError(f"{where}.intervals must be a nonempty list")
    if not all(isinstance(iv, list) and len(iv) == 2 and all(map(_is_number, iv)) for iv in ivs):
        raise ProblemValidationError(f"{where}.intervals entries must be [a, b] number pairs")
    return {"intervals": [[float(a), float(b)] for a, b in ivs]}


def parse_problem(doc: dict) -> dict:
    """Validate a problem document and return the normalized configuration;
    a value of the wrong JSON type, or one that overflows, is reported as a
    ProblemValidationError."""
    try:
        return _parse_problem(doc)
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ProblemValidationError(f"malformed problem: {exc}") from exc


def _parse_problem(doc: dict) -> dict:
    top_required = {
        "version", "dimension", "box", "s", "omega", "w1", "w2",
        "q", "f", "noise", "scheme", "tau",
    }
    _require_keys(doc, top_required, {"g"}, "problem")
    if _number(doc["version"], "version", integer=True) != _SCHEMA_VERSION:
        raise ProblemValidationError(f"unsupported problem version {doc['version']}")
    if _number(doc["dimension"], "dimension", integer=True) != 1:
        raise ProblemValidationError("only dimension 1 is supported")
    _require_keys(doc["box"], {"radius", "points"}, set(), "box")
    _require_keys(doc["noise"], {"level", "seed"}, set(), "noise")
    _require_keys(doc["scheme"], {"name"}, {"alpha_schedule", "stop_rule"}, "scheme")
    cfg = {
        "version": _SCHEMA_VERSION,
        "dimension": 1,
        "box": {"radius": _number(doc["box"]["radius"], "box.radius"),
                "points": _number(doc["box"]["points"], "box.points", integer=True)},
        "s": _number(doc["s"], "s"),
        "omega": _intervals(doc["omega"], "omega"),
        "w1": _intervals(doc["w1"], "w1"),
        "w2": _intervals(doc["w2"], "w2"),
        "q": _parse_profile(doc["q"], "q", {"zero", "constant", "bump", "piecewise", "file"}),
        "f": _parse_profile(doc["f"], "f", {"bump", "sine", "file"}),
        "noise": {"level": _number(doc["noise"]["level"], "noise.level"),
                  "seed": _number(doc["noise"]["seed"], "noise.seed", integer=True)},
        "scheme": _parse_scheme(doc["scheme"]),
        "tau": _number(doc["tau"], "tau"),
    }
    if not (0.0 < cfg["tau"] < 1.0):
        raise ProblemValidationError("tau must lie in (0,1)")
    if not (0.0 < cfg["s"] < 1.0):
        raise ProblemValidationError("s must lie in (0,1)")
    for key in ("level", "seed"):
        if cfg["noise"][key] < 0:
            raise ProblemValidationError(f"noise.{key} must be >= 0")
    if "g" in doc:
        _require_keys(doc["g"], {"path"}, set(), "g")
        cfg["g"] = {"path": _string(doc["g"]["path"], "g.path")}
    _check_footprint(cfg["box"]["radius"], cfg["box"]["points"],
                     [iv for name in ("omega", "w1", "w2") for iv in cfg[name]["intervals"]])
    return cfg


def footprint_bytes(radius: float, points: int, intervals: list) -> float:
    """Estimated peak bytes of one command on a box with `points` nodes whose
    regions are the union of `intervals`, computed before anything is
    allocated.

    K, the node count of all regions together, follows from the interval
    lengths and the spacing.  Every block a solve gathers is at most K x K,
    and about four of them (index array, values, factor, product) are alive
    at once; 64 full-grid arrays of doubles come on top.  The sum is taken
    in floats, so an extreme size gives inf or NaN, never an error.
    """
    k = sum(max(b - a, 0.0) * points / (2.0 * radius) + 1.0 for a, b in intervals)
    return 8.0 * (4.0 * k * k + 64.0 * points)


def _check_footprint(radius: float, points: int, intervals: list) -> None:
    if radius <= 0 or points <= 0:
        return  # build_box refuses these
    need = footprint_bytes(radius, points, intervals)
    budget = f"the {FOOTPRINT_BUDGET_BYTES / 1e9:.1f} GB budget"
    if not np.isfinite(need):
        raise ProblemValidationError(
            f"box.points {points:g} and box.radius {radius:g} give no finite footprint "
            f"estimate to hold against {budget}"
        )
    if need > FOOTPRINT_BUDGET_BYTES:
        raise ProblemValidationError(
            f"{points} points need about {need / 1e9:.1f} GB, over {budget}; "
            "lower the point count"
        )


def _is_number(v) -> bool:
    """A finite float, or an int no larger in magnitude than the largest float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(v, where: str, integer: bool = False):
    """`v` checked to be a finite JSON number, or an integer if `integer`;
    a number comes back as a float, an integer as is."""
    if not (_is_number(v) and (isinstance(v, int) or not integer)):
        what = "an integer within the float range" if integer else "a finite number"
        raise ProblemValidationError(f"{where} must be {what}")
    return v if integer else float(v)


def _string(v, where: str) -> str:
    """`v` checked to be a JSON string."""
    if not isinstance(v, str):
        raise ProblemValidationError(f"{where} must be a string")
    return v


def _numbers(text: str, flag: str) -> list:
    """The comma-separated numbers of a command-line flag."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ProblemValidationError(f"{flag} entries must be numbers, got {text!r}") from None


# per profile kind: (required params, optional params)
_PROFILE_PARAMS = {
    "zero": (set(), set()),
    "constant": ({"value"}, set()),
    "bump": ({"center", "width"}, {"amplitude"}),
    "sine": (set(), {"mode", "amplitude"}),
    "piecewise": ({"breaks", "values"}, set()),
    "file": ({"path"}, set()),
}


def _parse_profile(obj: dict, where: str, kinds: set) -> dict:
    _require_keys(obj, {"kind"}, {"params"}, where)
    kind = obj["kind"]
    if kind not in kinds:
        raise ProblemValidationError(f"{where}.kind must be one of {sorted(kinds)}")
    params = obj.get("params", {})
    required, optional = _PROFILE_PARAMS[kind]
    _require_keys(params, required, optional, f"{where}.params")
    for key, val in params.items():
        name = f"{where}.params.{key}"
        if key == "path":
            _string(val, name)
        elif key in ("breaks", "values"):
            if not (isinstance(val, list) and all(map(_is_number, val))):
                raise ProblemValidationError(f"{name} must be a list of finite numbers")
        else:
            _number(val, name, integer=key == "mode")
    if kind == "piecewise":
        breaks = params["breaks"]
        if len(params["values"]) != len(breaks) + 1:
            raise ProblemValidationError("piecewise needs len(values) == len(breaks) + 1")
        if any(b <= a for a, b in zip(breaks, breaks[1:])):
            raise ProblemValidationError(f"{where}.params.breaks must be increasing")
    return {"kind": kind, "params": dict(params)}


def _parse_scheme(obj: dict) -> dict:
    """The scheme block, its JSON types checked here and its values by the
    RegularizerConfig it describes."""
    sched = obj.get("alpha_schedule", "auto")
    if sched != "auto":
        if not (isinstance(sched, list) and sched and all(map(_is_number, sched))):
            raise ProblemValidationError(
                "alpha_schedule must be 'auto' or a nonempty list of finite numbers"
            )
        sched = [float(a) for a in sched]
    stop = obj.get("stop_rule", "auto")
    if stop != "auto":
        _require_keys(stop, {"kind"}, {"delta"}, "scheme.stop_rule")
        if "delta" in stop and not _is_number(stop["delta"]):
            raise ProblemValidationError("stop_rule.delta must be a finite number >= 0")
    block = {"name": obj["name"], "alpha_schedule": sched, "stop_rule": stop}
    try:
        _run_config(block)
    except ValueError as exc:
        raise ProblemValidationError(str(exc)) from exc
    return block


def _run_config(scheme: dict, delta: float | None = None) -> RegularizerConfig:
    """The RegularizerConfig of a normalized scheme block.  An "auto"
    schedule is None (recover_interior derives it from sigma_1); an explicit
    stop rule is its tuple; the "auto" stop rule runs the whole schedule, or
    stops at the discrepancy level `delta` when one is given."""
    sched, stop = scheme["alpha_schedule"], scheme["stop_rule"]
    if stop != "auto":
        rule = tuple(stop[key] for key in ("kind", "delta") if key in stop)
    else:
        rule = ("fixed_list",) if delta is None else ("discrepancy", delta)
    return RegularizerConfig(scheme["name"], None if sched == "auto" else sched, rule)


def _load_json(path: str):
    """The document in a JSON file; a file that is not UTF-8 JSON is refused by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ProblemValidationError(f"{path}: malformed JSON: {exc}") from exc


def load_problem(path: str) -> dict:
    return parse_problem(_load_json(path))


def serialize_problem(cfg: dict) -> str:
    """Canonical byte-stable serialization of a parsed problem."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(serialize_problem(cfg).encode()).hexdigest()


def _atomic_write(*files: tuple[str, str]) -> None:
    """Write each (path, text) pair by a temp file with the mode 0o666 & ~umask
    of open(path, "w"); no target may be a directory or resolve to another's
    file, and all temp files are written before any is renamed, so a failed
    write changes no target.  An OSError names the failing path."""
    os.umask(umask := os.umask(0))  # reading the umask sets it, so set it back
    temps, real = [], [os.path.realpath(path) for path, _ in files]
    try:
        for k, (path, _) in enumerate(files):
            if os.path.isdir(path) and not os.path.islink(path):  # rename replaces a link
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if real[k] in real[:k]:
                raise OSError("another output resolves to the same file")
        for path, text in files:
            fd, tmp = tempfile.mkstemp("~", ".tmp-", os.path.dirname(os.path.abspath(path)))
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
        for path, _ in files:
            os.replace(temps[0], path)
            del temps[0]
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in temps:
            os.unlink(tmp)


def _setup(args, cfg: dict | None = None):
    """A verb's validated problem (`cfg` re-parsed when given, else loaded
    from args.problem), its machinery and index sets, and the run seed."""
    cfg = load_problem(args.problem) if cfg is None else parse_problem(cfg)
    seed = cfg["noise"]["seed"] if args.seed is None else args.seed
    box = build_box(cfg["box"]["radius"], cfg["box"]["points"])
    m = build_sobolev(box, FractionalOrder(cfg["s"]))
    sets = build_index_sets(box, *(cfg[name]["intervals"] for name in ("omega", "w1", "w2")))
    return cfg, m, sets, seed


def _write_json(path: str, cfg: dict, box, fields: dict) -> None:
    """A JSON report: `fields` with the problem's config hash and grid."""
    grid = {"radius": box.radius, "points": box.size, "spacing": _fmt(box.spacing)}
    doc = {"config_hash": config_hash(cfg), "grid": grid, **fields}
    _atomic_write((path, json.dumps(doc, indent=2, sort_keys=True) + "\n"))


def _write_csv(path: str, header: str, rows, footer: dict, *also: tuple[str, str]) -> None:
    """A CSV report: the header, one line per row, then one `# key,value`
    line per footer entry.  A str or int cell is written as is, any other
    number by `_fmt`.  The (path, text) pairs `also` go with it, all or none."""
    def cell(v) -> str:
        return v if isinstance(v, str) else str(v) if isinstance(v, (int, np.integer)) else _fmt(v)

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    lines += [f"# {key},{cell(v)}" for key, v in footer.items()]
    _atomic_write((path, "\n".join(lines) + "\n"), *also)


def _profile_values(profile: dict, x: np.ndarray) -> np.ndarray:
    """The values of a q or f profile at the points x."""
    kind, p = profile["kind"], profile["params"]
    if kind == "zero":
        return np.zeros(len(x))
    if kind == "constant":
        return np.full(len(x), float(p["value"]))
    if kind == "bump":
        c, w, a = float(p["center"]), float(p["width"]), float(p.get("amplitude", 1.0))
        return bump_values(x, c, w, a)
    if kind == "sine":
        k, a = int(p.get("mode", 1)), float(p.get("amplitude", 1.0))
        lo, span = x.min(), x.max() - x.min()
        return a * np.sin(k * np.pi * (x - lo) / span) if span > 0 else np.zeros(len(x))
    if kind == "piecewise":
        breaks = np.asarray(p["breaks"], dtype=float)
        return np.asarray(p["values"], dtype=float)[np.searchsorted(breaks, x)]
    vals = _read_values(p["path"])  # kind "file", the last the schema allows
    if len(vals) != len(x):
        raise ProblemValidationError(
            f"file profile has {len(vals)} values, region has {len(x)} nodes"
        )
    return vals


def _read_values(path: str) -> np.ndarray:
    """The "values" list of a JSON data file, checked to hold finite numbers."""
    data = _load_json(path)
    vals = data.get("values") if isinstance(data, dict) else None
    if not (isinstance(vals, list) and all(map(_is_number, vals))):
        raise ProblemValidationError(f'{path}: "values" must be a list of finite numbers')
    return np.asarray(vals, dtype=float)


def _make_potential(cfg: dict, m, sets) -> Potential:
    return Potential(_profile_values(cfg["q"], m.box.nodes[sets.omega]))


def _make_datum(cfg: dict, m, sets) -> GridFunction:
    vals = np.zeros(m.box.size)
    vals[sets.w1] = _profile_values(cfg["f"], m.box.nodes[sets.w1])
    if not np.any(vals != 0.0):
        raise ProblemValidationError("the exterior datum f must be nonzero")
    return GridFunction(vals, m.box)


def _make_cfg(cfg: dict, m, sets, rec: MeasurementRecord) -> RegularizerConfig:
    """The run configuration of the problem's scheme block (`_run_config`);
    with noisy data the "auto" stop rule stops at DISCREPANCY_FACTOR x the
    noise level x the dual norm of the step-1 datum of `rec`.  Noisy data
    whose dual norm overflows are refused under every stop rule."""
    lvl, delta = cfg["noise"]["level"], None
    if lvl > 0:
        with np.errstate(over="ignore"):
            h_dual = assemble_ucp(m, sets).dual_norm(measurement_to_h(m, sets, rec))
            delta = DISCREPANCY_FACTOR * lvl * h_dual
        if not np.isfinite(h_dual):
            raise ProblemValidationError(f"noise.level {lvl:g} gives data with no finite dual norm")
        if cfg["scheme"]["stop_rule"] == "auto" and not np.isfinite(delta):
            raise ProblemValidationError(f"noise.level {lvl:g} gives no finite discrepancy level")
    return _run_config(cfg["scheme"], delta)


def _measurement(cfg: dict, m, sets, seed: int) -> MeasurementRecord:
    f = _make_datum(cfg, m, sets)
    if "g" in cfg:
        return MeasurementRecord(f=f, g=_read_values(cfg["g"]["path"]))
    q = _make_potential(cfg, m, sets)
    return synthetic_measurement(
        m, sets, q, f, noise_level=cfg["noise"]["level"], seed=seed
    )


# ---------------------------------------------------------------- commands


def _cmd_forward(args) -> int:
    cfg, m, sets, _ = _setup(args)
    q, f = _make_potential(cfg, m, sets), _make_datum(cfg, m, sets)
    u = solve_dirichlet(m, sets, q, f)
    _write_json(args.out, cfg, m.box, {
        **{k: _fmt(v) for k, v in solve_diagnostics(m, sets, q, f, u).items()},
        "u": [_fmt(v) for v in u.values],
        "w2_nodes": [_fmt(v) for v in m.box.nodes[sets.w2]],
        "g": [_fmt(v) for v in m.frac_lap.rows(sets.w2, u.values)],
    })
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    cfg = load_problem(args.problem)
    if args.scheme:
        cfg["scheme"]["name"] = args.scheme
    if args.tau is not None:
        cfg["tau"] = args.tau
    if args.alpha_list is not None:
        cfg["scheme"]["alpha_schedule"] = _numbers(args.alpha_list, "--alpha-list")
    cfg, m, sets, seed = _setup(args, cfg)
    start = time.monotonic()
    rec = _measurement(cfg, m, sets, seed)
    report = full_pipeline(m, sets, rec, _make_cfg(cfg, m, sets, rec), tau=cfg["tau"])
    wall = time.monotonic() - start
    _write_json(args.out, cfg, m.box, {
        "seed": seed,
        "wall_time_s": _fmt(wall) if args.record_timing else None,
        "scheme": report.scheme_used.scheme,
        "tau": _fmt(report.tau),
        "omega_nodes": [_fmt(v) for v in m.box.nodes[sets.omega]],
        "w2_nodes": [_fmt(v) for v in m.box.nodes[sets.w2]],
        "h": [_fmt(v) for v in report.h],
        "v": [_fmt(v) for v in report.v.values],
        "u": [_fmt(v) for v in report.u.values],
        "q_rec": [_fmt(v) for v in report.q_rec],
        "nodal_mask": [bool(b) for b in report.nodal_mask],
        "mask_fraction": _fmt(report.mask_fraction),
        "trace": [{key: _fmt(v) for key, v in row.items()} for row in report.residuals],
    })
    if not args.quiet:
        print(f"reconstruct: scheme={report.scheme_used.scheme} "
              f"mask_fraction={report.mask_fraction:.3f} -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .experiments import spectrum_report
    from .svgplot import line_plot_svg
    _, m, sets, _ = _setup(args)
    rep = spectrum_report(assemble_ucp(m, sets))
    plot = [(args.plot, line_plot_svg(rep["j"], rep["log10_sigma"], "mode index j",
                                      "log10 sigma_j", title="singular spectrum"))
            ] if args.plot else []
    _write_csv(args.out_csv, "j,sigma,log10_sigma",
               zip(rep["j"], rep["sigma"], rep["log10_sigma"]),
               {"numerical_rank": rep["numerical_rank"], "slope": rep["slope"]}, *plot)
    return EXIT_OK


def _cmd_instability(args) -> int:
    from .experiments import instability_series, make_instability_geometry
    _number(args.N, "--N", integer=True)
    _number(args.kmax, "--kmax", integer=True)
    # omega and the shell's two unit intervals, counted without R, which
    # make_instability_geometry checks; the series' kmax rows of |omega| nodes,
    # 2 * kmax < |omega| <= K, fit inside the K^2 term
    _check_footprint(args.box_radius, args.N, [(-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)])
    m, sets = make_instability_geometry(
        args.R, args.s, box_radius=args.box_radius, points=args.N
    )
    series = instability_series(m, sets, k_max=args.kmax)
    fit = series.decay_fit
    _write_csv(args.out_csv, "k,hk_norm,log2_hk_norm",
               ((k, nrm, np.log2(nrm)) for k, nrm in zip(series.k_values, series.hk_norms)),
               {"slope": fit["slope"], "r2": fit["r2"],
                "k_fit": " ".join(str(k) for k in fit["k_fit"]), "floor": fit["floor"]})
    if fit["slope"] > -np.log(2.0):
        if not args.quiet:
            print(f"decay slope {fit['slope']:.4f} above -log 2 = {-np.log(2.0):.4f}",
                  file=sys.stderr)
        return EXIT_SLOPE
    return EXIT_OK


def _cmd_stability(args) -> int:
    from .experiments import stability_sweep
    levels = np.asarray(_numbers(args.levels, "--levels"))
    cfg, m, sets, seed = _setup(args)
    run_cfg = _run_config(cfg["scheme"])
    sweep = stability_sweep(
        assemble_ucp(m, sets), run_cfg.scheme, args.trials, levels, args.s_prime,
        seed=seed, alpha_schedule=run_cfg.alpha_schedule)
    fm = sweep.fitted_modulus
    _write_csv(args.out_csv, "noise_level,mean_error",
               zip(levels, sweep.recon_errors),
               {"log_modulus_C": fm["C"], "log_modulus_sigma": fm["sigma"],
                "log_modulus_residual": fm["residual"],
                "power_law_residual": sweep.power_fit["residual"]})
    return EXIT_OK


def _cmd_compare(args) -> int:
    schemes = args.schemes.split(",")
    for name in schemes:
        RegularizerConfig(name)  # refuses an unknown name before any solve
    if len(set(schemes)) < len(schemes):
        raise ProblemValidationError(f"--schemes names a scheme twice: {args.schemes}")
    cfg, m, sets, seed = _setup(args)
    rec = _measurement(cfg, m, sets, seed)
    run_cfg = _make_cfg(cfg, m, sets, rec)
    run_cfgs = [replace(run_cfg, scheme=name) for name in schemes]
    results = {c.scheme: full_pipeline(m, sets, rec, c, tau=cfg["tau"]) for c in run_cfgs}
    rows = [(name, results[name].mask_fraction, results[name].residuals[-1]["residual_dual"])
            for name in schemes]
    footer = {}
    if len(schemes) == 2:
        a, b = (results[s].v.values for s in schemes)
        den = max(np.linalg.norm(b), np.finfo(float).tiny)
        footer["cross_distance_rel"] = np.linalg.norm(a - b) / den
    _write_csv(args.out_csv, "scheme,mask_fraction,final_residual_dual", rows, footer)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line with exit code 1;
    subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # defaults live in main's namespace: a verb's would overwrite a value given before it
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the problem seed (>= 0); only reconstruct, "
                             "stability and compare draw noise")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress progress chatter")

    ap = _ArgumentParser(
        prog="fracrec",
        description=__doc__,
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[common],
                       help="forward solve and window data")
    p.add_argument("problem"); p.add_argument("out")
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="recover the potential from one measurement")
    p.add_argument("problem"); p.add_argument("out")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--alpha-list", default=None, help="comma-separated decreasing alphas")
    p.add_argument("--record-timing", action="store_true",
                   help="store wall time in the report (breaks byte-reproducibility)")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("spectrum", parents=[common],
                       help="singular spectrum of the window operator")
    p.add_argument("problem"); p.add_argument("out_csv")
    p.add_argument("--plot", default=None, help="also write an SVG log-spectrum plot")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("instability", parents=[common],
                       help="decay series of oscillatory-source window data")
    p.add_argument("out_csv")
    p.add_argument("--R", type=float, required=True, help="shell radius (>= 13)")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--box-radius", type=float, default=32.0)
    p.set_defaults(fn=_cmd_instability)

    p = sub.add_parser("stability", parents=[common],
                       help="noise-ladder reconstruction sweep")
    p.add_argument("problem"); p.add_argument("out_csv")
    p.add_argument("--levels", default="1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--s-prime", type=float, default=0.25)
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("compare", parents=[common],
                       help="run several schemes on one problem")
    p.add_argument("problem"); p.add_argument("out_csv")
    p.add_argument("--schemes", default="spectral,tikhonov")
    p.set_defaults(fn=_cmd_compare)
    return ap


def main(argv: list | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv, argparse.Namespace(seed=None, quiet=False))
    # no error is an instance of two of these classes; ProblemValidationError is a ValueError
    exit_codes = {ValueError: EXIT_VALIDATION, OSError: EXIT_VALIDATION,
                  PipelineError: EXIT_VALIDATION, EigenvalueConditionError: EXIT_EIGENVALUE,
                  OptimizerNonConvergence: EXIT_NONCONVERGENCE}
    try:
        if args.seed is not None and args.seed < 0:
            raise ProblemValidationError(f"--seed must be >= 0, got {args.seed}")
        with warnings.catch_warnings():  # the caller's handler comes back on exit
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.fn(args)
    except tuple(exit_codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in exit_codes.items() if isinstance(exc, cls))


def run() -> None:
    """The process entry point of `fracrec` and `python -m fracrec.cli`.  The
    import heap is frozen first, so no later collection (the ones at exit too)
    walks it; what `main` creates is still collected and finalized."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
