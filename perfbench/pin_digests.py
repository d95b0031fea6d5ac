#!/usr/bin/env python3
"""Pin the sha256 of every dump the dump-stream can ask for.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/pin_digests.py

Each dump is made through heisweil.cli.run exactly as the benchmark makes
it, parsed as JSON, and hashed.  Before a weil dump is pinned, its lift
must pass the exhaustive homomorphism check (every pair of Sp(W) elements).
Writes perfbench/digests.json.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    cli = run.import_program()
    from heisweil.heisenberg import HeisenbergGroup
    from heisweil.reps import heisenberg_rep
    from heisweil.symplectic import SymplecticSpace
    from heisweil.weil import verify_homomorphism, weil_lift

    pins = {}
    for op in workloads.all_dump_ops():
        dt, rc, exc, out, _err = run.run_op(cli, op)
        if exc is not None or rc != 0:
            sys.stderr.write(f"{op.key}: dump failed (exit {rc}, {exc!r})\n")
            return 1
        json.loads(out.text())
        note = ""
        if op.argv[1] == "weil":
            zeta, model = int(op.argv[5]), op.argv[7]
            lift = weil_lift(
                heisenberg_rep(HeisenbergGroup(SymplecticSpace(op.p, 1)), zeta, model=model)
            )
            t0 = time.perf_counter()
            report = verify_homomorphism(lift, mode="exhaustive")
            if not report.passed:
                sys.stderr.write(f"{op.key}: lift fails the homomorphism check\n")
                return 1
            note = f"homomorphism: {report.checks} pairs in {time.perf_counter() - t0:.1f} s"
        pins[op.key] = out.sha256()
        print(f"{op.key} {dt:.2f} s {out.nbytes()} bytes {note}", flush=True)
    run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
