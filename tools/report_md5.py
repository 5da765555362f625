"""Print the md5 of every report that CHANGES.md quotes, one line per report.

    python3 tools/report_md5.py

Each report is written by a ``python -m fracrec.cli`` child that imports the
package from this checkout's ``src/``, with ``OPENBLAS_NUM_THREADS=1``, into
a temporary directory.  Two checkouts that print the same lines write
byte-identical reports.  On ``problem.example.json``: ``forward``,
``reconstruct``, ``spectrum --plot`` (CSV and SVG), ``instability --R 13``
and ``stability --trials 3``; on the example with ``noise.level`` 1e-4:
``reconstruct --scheme`` for each scheme, and ``compare``.
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


def children(noisy: str) -> list:
    """Per child: its command line.  Inputs are absolute paths, and each
    report is a bare file name in the child's working directory."""
    return [
        ["forward", EXAMPLE, "forward.json"],
        ["reconstruct", EXAMPLE, "reconstruct.json"],
        ["spectrum", EXAMPLE, "spectrum.csv", "--plot", "spectrum.svg"],
        ["instability", "instability.csv", "--R", "13"],
        ["stability", EXAMPLE, "stability.csv", "--trials", "3"],
        *(["reconstruct", noisy, f"noisy-{s}.json", "--scheme", s] for s in SCHEMES),
        ["compare", noisy, "noisy-compare.csv"],
    ]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out:
        with open(EXAMPLE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["noise"]["level"] = 1e-4
        noisy = os.path.join(out, "noisy.json")
        with open(noisy, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in children(noisy):
            subprocess.run([sys.executable, "-m", "fracrec.cli", *argv, "--quiet"],
                           env=env, cwd=out, check=True)
            for name in argv[1:]:
                if name.endswith((".json", ".csv", ".svg")) and not os.path.isabs(name):
                    with open(os.path.join(out, name), "rb") as fh:
                        print(f"{hashlib.md5(fh.read()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
