#!/usr/bin/env python3
"""Run every verification battery and print one line per check.

Each check is one `edgeschur verify` command line, run in process.  Exit
code 0 when everything holds, 1 otherwise:

    python scripts/verify_all.py [--seed N] [--count N]
"""

import argparse
import contextlib
import io
import sys
import time

from edgeschur.cli import main as edgeschur, positive_int


def verify_lines(seed: int, count: int) -> list[str]:
    return [f"yb --kind {kind}"
            for kind in ("RLL_L", "RLL_Lstar", "rll_Ell", "frakRLell")] + [
        "yb --perturb b2 --perturb-mode double",
        "freefermion",
        "symmetry --box 2:2 --n 3 --window -2:2",
        f"equivalence --seed {seed} --count {count}",
        "commutation --box 2:2 --window -2:5 --trunc 6",
        "cauchy --n 1 --m 1 --window -2:4 --trunc 4",
        "cauchy --mu 1 --n 2 --m 1 --window -2:5 --trunc 4",
        "cauchy --mu 1 --eta 1 --n 3 --m 2 --window -2:7 --trunc 6",
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=20240808)
    ap.add_argument("--count", type=positive_int, default=30)
    args = ap.parse_args()
    results = []
    for line in verify_lines(args.seed, args.count):
        report = io.StringIO()
        t0 = time.time()
        with contextlib.redirect_stdout(report):
            ok = edgeschur(["verify", *line.split()]) == 0
        print(f"{'ok  ' if ok else 'FAIL'} verify {line} "
              f"({time.time() - t0:.2f}s)")
        if not ok:
            print(report.getvalue(), end="")
        results.append(ok)
    print("---")
    print("all checks passed" if all(results)
          else f"{results.count(False)} checks FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
