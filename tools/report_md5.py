"""Print the md5 of every report that CHANGES.md quotes, one line per report.

    python3 tools/report_md5.py

Each report is written by a ``python -m fracrec.cli`` child that imports the
package from this checkout's ``src/``, with ``OPENBLAS_NUM_THREADS=1``, into
a temporary directory.  Two checkouts that print the same lines write
byte-identical reports.  On ``problem.example.json``: ``forward``,
``reconstruct``, ``spectrum --plot`` (CSV and SVG), ``instability --R 13``,
``stability --trials 3``, and ``stability --trials 1 --levels 1e-320,1e-4``,
a ladder down to a subnormal noise level; on the example with
``noise.level`` 1e-4: ``reconstruct --scheme`` for each scheme, and
``compare``.

The large-N runs take the paths that start above 64 nodes: the rank-adaptive
SVD and the recursion in ``tril_inverse``.  On the example at ``box.points``
4096 and ``noise.level`` 1e-4, with noise seeds 276102407 and 287335974:
``reconstruct --scheme`` spectral and tikhonov.  On the example at
``box.points`` 16384 without noise: ``reconstruct``.  And the decay series
at 16384 nodes and 40 oscillating sources: ``instability --R 13 --N 16384
--kmax 40``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE = os.path.join(ROOT, "problem.example.json")
SCHEMES = ("spectral", "tikhonov", "minimal_l2")
LARGE_SEEDS = (276102407, 287335974)


def variant(out: str, name: str, points: int, level: float, seed: int) -> str:
    """The example with other ``box.points`` and ``noise``, written to out/name."""
    with open(EXAMPLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["box"]["points"] = points
    doc["noise"] = {"level": level, "seed": seed}
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def children(out: str) -> list:
    """Per child: its command line.  Inputs are absolute paths, and each
    report is a bare file name in the child's working directory."""
    noisy = variant(out, "noisy.json", 512, 1e-4, 1)
    return [
        ["forward", EXAMPLE, "forward.json"],
        ["reconstruct", EXAMPLE, "reconstruct.json"],
        ["spectrum", EXAMPLE, "spectrum.csv", "--plot", "spectrum.svg"],
        ["instability", "instability.csv", "--R", "13"],
        ["stability", EXAMPLE, "stability.csv", "--trials", "3"],
        ["stability", EXAMPLE, "stability-subnormal.csv", "--trials", "1",
         "--levels", "1e-320,1e-4"],
        *(["reconstruct", noisy, f"noisy-{s}.json", "--scheme", s] for s in SCHEMES),
        ["compare", noisy, "noisy-compare.csv"],
        *(["reconstruct", variant(out, f"n4096-{seed}.json", 4096, 1e-4, seed),
            f"n4096-{seed}-{s}.json", "--scheme", s]
          for seed in LARGE_SEEDS for s in ("spectral", "tikhonov")),
        ["reconstruct", variant(out, "n16384.json", 16384, 0.0, 1), "n16384-report.json"],
        ["instability", "instability-n16384.csv", "--R", "13", "--N", "16384", "--kmax", "40"],
    ]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out:
        for argv in children(out):
            subprocess.run([sys.executable, "-m", "fracrec.cli", *argv, "--quiet"],
                           env=env, cwd=out, check=True)
            for name in argv[1:]:
                if name.endswith((".json", ".csv", ".svg")) and not os.path.isabs(name):
                    with open(os.path.join(out, name), "rb") as fh:
                        print(f"{hashlib.md5(fh.read()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
