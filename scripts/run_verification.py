#!/usr/bin/env python3
"""Run every verification suite for p = 3, 5, 7 and write JSON reports.

This is the full acceptance run; it takes about a second on a 2-core VM.
Each line gives the exit code and the report's sha256: reports are
byte-identical for a fixed seed, so the digests can be compared across
versions.

    python3 scripts/run_verification.py [--outdir reports/] [--seed 0]
"""

import argparse
import hashlib
import pathlib
import sys
import time

from heisweil.cli import run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="reports")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    overall = 0
    start = time.time()
    for p in (3, 5, 7):
        t0 = time.time()
        report = outdir / f"verify_all_p{p}.json"
        code = run(
            [
                "verify", "all", "--p", str(p), "--ell", "1",
                "--seed", str(args.seed),
                "--out", str(report),
            ]
        )
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        print(f"p={p}: exit {code} in {time.time() - t0:.1f}s, sha256 {digest}")
        overall = max(overall, code)
    print(f"total: {time.time() - start:.1f}s, reports in {outdir}/")
    return overall


if __name__ == "__main__":
    sys.exit(main())
