"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Geometry is the one of ``problem.example.json``: box radius 16, s = 1/2,
omega = (-1, 1), w1 = (4, 5), w2 = (-3, -1.25) u (1.25, 3), a bump potential
of amplitude 2 and a bump datum on w1.  The program only ever sees generated
inputs: arrays for the in-process workloads, problem files for ``cli-4096``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

RADIUS = 16.0
ORDER = 0.5
OMEGA = [[-1.0, 1.0]]
W1 = [[4.0, 5.0]]
W2 = [[-3.0, -1.25], [1.25, 3.0]]
Q_BUMP = {"center": 0.0, "width": 0.5, "amplitude": 2.0}
F_BUMP = {"center": 4.5, "width": 0.45, "amplitude": 1.0}
TAU = 1e-3

# tikhonov_reconstruct's own unit test holds its certificate to this level
TIKHONOV_CERT_MAX = 1e-8
# a child that runs longer than this is killed and its op counted as failed
CHILD_TIMEOUT_S = 60.0

SETUP_SCRIPT = """
import json, sys
import fracrec as fr
n, geo = int(sys.argv[1]), json.loads(sys.argv[2])
box = fr.build_box(geo["radius"], n)
m = fr.build_sobolev(box, fr.FractionalOrder(geo["s"]))
sets = fr.build_index_sets(box, geo["omega"], geo["w1"], geo["w2"])
fr.ucp_svd(fr.assemble_ucp(m, sets))
"""

IMPORT_SCRIPT = """
import time
t = time.perf_counter()
import fracrec.cli
print(time.perf_counter() - t)
"""


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def run_child(argv: list, env: dict, cwd: str) -> tuple[float, int, float]:
    """Run one child to its end: (wall seconds, exit code, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_child_argv(n: int) -> list:
    geo = {"radius": RADIUS, "s": ORDER, "omega": OMEGA, "w1": W1, "w2": W2}
    return [sys.executable, "-c", SETUP_SCRIPT, str(n), json.dumps(geo)]


def import_child_ms(env: dict, cwd: str) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip()) * 1e3


class Scene:
    """Box, machinery, index sets, operator and true potential at one N."""

    def __init__(self, fr, n: int):
        self.box = fr.build_box(RADIUS, n)
        self.m = fr.build_sobolev(self.box, fr.FractionalOrder(ORDER))
        self.sets = fr.build_index_sets(self.box, OMEGA, W1, W2)
        self.op = fr.assemble_ucp(self.m, self.sets)
        om = self.sets.omega
        self.q_true = fr.smooth_bump(self.box, **Q_BUMP).values[om]
        self.q = fr.Potential(self.q_true)
        f_vals = np.zeros(self.box.size)
        f_vals[self.sets.w1] = fr.smooth_bump(self.box, **F_BUMP).values[self.sets.w1]
        self.f = fr.GridFunction(f_vals, self.box)


class Outcome:
    """What one op produced, as the checks and metrics need it."""

    __slots__ = ("q_err", "failures", "rss_mb", "report_bytes")

    def __init__(self):
        self.q_err = float("nan")
        self.failures: list[str] = []
        self.rss_mb = 0.0
        self.report_bytes = 0


def check_q(scene: Scene, q_rec, mask, ceiling: float, out: Outcome) -> None:
    q_rec = np.asarray(q_rec, dtype=float)
    good = ~np.asarray(mask, dtype=bool)
    if not good.any():
        out.failures.append("every omega node masked")
        return
    if not np.all(np.isfinite(q_rec[good])):
        out.failures.append("q_rec not finite on unmasked nodes")
        return
    q_true = scene.q_true
    out.q_err = float(np.abs(q_rec[good] - q_true[good]).max() / np.abs(q_true).max())
    if not out.q_err <= ceiling:
        out.failures.append(f"q_rel_err {out.q_err:.3e} above ceiling {ceiling:.0e}")


def check_tikhonov(fr, scene: Scene, h, alpha: float, out: Outcome) -> None:
    _, info = fr.tikhonov_reconstruct(scene.op, np.asarray(h, dtype=float), alpha)
    cert = info["gradient_certificate"]
    if not cert <= TIKHONOV_CERT_MAX:
        out.failures.append(f"tikhonov gradient certificate {cert:.3e} > {TIKHONOV_CERT_MAX:.0e}")


class InProcess:
    """Each op synthesizes one measurement and runs ``full_pipeline``.

    The stop rule is the CLI's: the whole auto schedule on exact data, and
    on noisy data the discrepancy rule at 1.5x the noise level times the
    dual norm of h.
    """

    name = ""
    in_process = True
    points = 512
    levels: tuple = ()
    schemes: tuple = ()
    noise_seeds = 1
    q_ceiling = 1e6

    def __init__(self, fr, tiny: bool):
        self.fr = fr
        self.n = 256 if tiny else self.points
        if tiny:
            self.noise_seeds = 1
        self.scene = None

    @property
    def cycle(self) -> int:
        return len(self.schemes)

    def pool(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.noise_seeds)]
        return [(lvl, s, scheme) for s in seeds for lvl in self.levels for scheme in self.schemes]

    def setup(self, workdir: str, pool: list) -> None:
        self.scene = Scene(self.fr, self.n)

    def run(self, inp):
        fr, sc = self.fr, self.scene
        lvl, noise_seed, scheme = inp
        rec = fr.synthetic_measurement(sc.m, sc.sets, sc.q, sc.f, noise_level=lvl, seed=noise_seed)
        if lvl > 0:
            h = fr.measurement_to_h(sc.m, sc.sets, rec)
            stop = ("discrepancy", 1.5 * lvl * sc.op.dual_norm(h))
        else:
            stop = ("fixed_list",)
        cfg = fr.RegularizerConfig(scheme=scheme, alpha_schedule=None, stop_rule=stop)
        return fr.full_pipeline(sc.m, sc.sets, rec, cfg, tau=TAU)

    def check(self, inp, report) -> Outcome:
        out = Outcome()
        check_q(self.scene, report.q_rec, report.nodal_mask, self.q_ceiling, out)
        alpha = report.residuals[-1]["alpha"]
        if report.scheme_used.scheme == "tikhonov":
            check_tikhonov(self.fr, self.scene, report.h, alpha, out)
        elif report.scheme_used.scheme == "minimal_l2":
            self._check_minimal_l2(report, alpha, out)
        return out

    def _check_minimal_l2(self, report, alpha: float, out: Outcome) -> None:
        # solve the returned iterate's alpha again to read its certificate
        cfg, sc = report.scheme_used, self.scene
        res = self.fr.minimal_l2_reconstruct(
            sc.m, sc.sets, report.h, alpha,
            tol=cfg.inner_solver_tol, max_iterations=cfg.max_inner_iterations,
        )
        if not res.residual_dual <= alpha * (1.0 + cfg.inner_solver_tol):
            out.failures.append(
                f"minimal_l2 residual_dual/alpha = {res.residual_dual / alpha:.8f} "
                f"> 1 + {cfg.inner_solver_tol:.0e} at alpha {alpha:.3e}"
            )


class Sweep512(InProcess):
    """Paper-scale inner loop of the stability experiment."""

    name = "sweep-512"
    levels = (0.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    schemes = ("spectral", "tikhonov")
    # 128 noise draws per level: the q error of a noisy spectral solve is
    # heavy-tailed, and fewer draws leave its median at the mercy of the seed
    noise_seeds = 128
    # noisy spectral solves run to the smallest alpha (the discrepancy level
    # is never met) and reach q errors of ~5e3; the ceiling catches blow-ups
    q_ceiling = 1e6


class MinL2512(InProcess):
    """The FISTA control solver, which the other workloads never reach."""

    name = "minl2-512"
    levels = (0.0, 1e-2, 1e-3, 1e-4)
    schemes = ("minimal_l2",)
    noise_seeds = 2
    q_ceiling = 1e3


class Cli4096:
    """Each op is one ``fracrec reconstruct`` child at N=4096, noise 1e-4."""

    name = "cli-4096"
    schemes = ("spectral", "tikhonov")
    cycle = 2
    noise_level = 1e-4
    noise_seeds = 2
    q_ceiling = 1e6

    def __init__(self, fr, tiny: bool, src_dir: str, in_process: bool):
        self.fr = fr
        self.n = 512 if tiny else 4096
        if tiny:
            self.noise_seeds = 1
        self.env = child_env(src_dir)
        self.in_process = in_process
        self.scene = None
        self.first_digest: dict = {}

    def pool(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.noise_seeds)]
        return [(s, scheme) for s in seeds for scheme in self.schemes]

    def problem_doc(self, noise_seed: int, scheme: str) -> dict:
        return {
            "version": 1, "dimension": 1,
            "box": {"radius": RADIUS, "points": self.n},
            "s": ORDER,
            "omega": {"intervals": OMEGA}, "w1": {"intervals": W1}, "w2": {"intervals": W2},
            "q": {"kind": "bump", "params": Q_BUMP},
            "f": {"kind": "bump", "params": F_BUMP},
            "noise": {"level": self.noise_level, "seed": noise_seed},
            "scheme": {"name": scheme, "alpha_schedule": "auto", "stop_rule": "auto"},
            "tau": TAU,
        }

    def setup(self, workdir: str, pool: list) -> None:
        self.workdir = workdir
        self.scene = Scene(self.fr, self.n)
        for inp in pool:
            with open(self._paths(inp)[0], "w", encoding="utf-8") as fh:
                json.dump(self.problem_doc(*inp), fh)

    def _paths(self, inp) -> tuple[str, str]:
        noise_seed, scheme = inp
        stem = os.path.join(self.workdir, f"{scheme}-{noise_seed}")
        return stem + ".problem.json", stem + ".report.json"

    def run(self, inp):
        prob, report = self._paths(inp)
        argv = ["reconstruct", prob, report, "--quiet"]
        if self.in_process:
            return self.fr.cli.main(argv), 0.0
        _, code, rss = run_child([sys.executable, "-m", "fracrec.cli"] + argv,
                                 self.env, self.workdir)
        return code, rss

    def check(self, inp, result) -> Outcome:
        code, rss = result
        out = Outcome()
        out.rss_mb = rss
        if code != 0:
            out.failures.append(f"fracrec reconstruct exited {code}")
            return out
        _, path = self._paths(inp)
        with open(path, "rb") as fh:
            raw = fh.read()
        out.report_bytes = len(raw)
        digest = hashlib.sha256(raw).hexdigest()
        first = self.first_digest.setdefault(inp, digest)
        if digest != first:
            out.failures.append("report differs from the earlier report of the same input")
        doc = json.loads(raw)
        q_rec = np.array([float(v) for v in doc["q_rec"]])
        check_q(self.scene, q_rec, doc["nodal_mask"], self.q_ceiling, out)
        if doc["scheme"] != inp[1]:
            out.failures.append(f"report scheme {doc['scheme']} != {inp[1]}")
        elif inp[1] == "tikhonov":
            h = [float(v) for v in doc["h"]]
            check_tikhonov(self.fr, self.scene, h, float(doc["trace"][-1]["alpha"]), out)
        return out


WORKLOADS = ("sweep-512", "cli-4096", "minl2-512")


def make(name: str, fr, tiny: bool, src_dir: str, in_process_cli: bool):
    if name == "sweep-512":
        return Sweep512(fr, tiny)
    if name == "minl2-512":
        return MinL2512(fr, tiny)
    if name == "cli-4096":
        return Cli4096(fr, tiny, src_dir, in_process_cli)
    raise ValueError(name)
