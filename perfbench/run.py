#!/usr/bin/env python3
"""heisweil benchmark: one workload, in this process, through heisweil.cli.run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 10 --trace 0

Workloads: verify-sweep, sqrt-stream, dump-stream (README.md says why).
The seed makes the inputs; the program sees only the argv made from it.
Each workload repeats whole passes over its operation list until --seconds
have passed, and at least workloads.MIN_PASSES times.  Every output is checked outside the timed
span.  Untraced pass times are scaled to the reference machine's speed by
the probe in speed.py; the wall times are printed beside them.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, measured with wrappers around the program's callables.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the program or BENCHMARK.json is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
SETUP_GROUP = 2  # fresh interpreters per setup sample group


def import_program():
    """Import heisweil from this checkout's src/, or exit 2."""
    if not (SRC / "heisweil" / "cli.py").is_file():
        sys.stderr.write(f"error: no heisweil sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import heisweil.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "heisweil").resolve():
        sys.stderr.write(f"error: imported heisweil from {cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return cli


def run_op(cli, op: workloads.Op, probe: speed.SpeedProbe | None):
    """One timed cli.run call, less the time the probe sampled inside it.
    An exception escaping it is returned, not raised."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    spent = probe.spent if probe else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(op.argv)
        except Exception as e:  # counted as a failed operation; the run goes on
            exc = e
        t1 = time.perf_counter()
    if probe:
        spent = probe.spent - spent
    return t0, t1, t1 - t0 - spent, rc, exc, out, err


# -- output checks: each returns (ok units, failed units, wrong output, note) --


def check_verify(op, rc, exc, out, err, known: dict):
    n = len(op.suites)
    if exc is not None:
        return 0, n, False, f"raised {type(exc).__name__}: {exc}"
    if rc == 2:
        return 0, n, False, "exit 2: " + err.getvalue().strip()[:200]
    try:
        reports = json.loads(out.getvalue())
        reports = reports if isinstance(reports, list) else [reports]
        names = [r["suite"] for r in reports]
        failing = [r["suite"] for r in reports if r["failures"]]
    except (ValueError, KeyError, TypeError):
        return 0, n, True, f"exit {rc}, output is not a list of suite reports"
    if names != list(op.suites):
        return 0, n, True, f"exit {rc}, report names suites {names}"
    passed = {
        line.split("suite=")[1].split()[0]
        for line in err.getvalue().splitlines()
        if line.startswith("PASS suite=")
    }
    if failing or rc != 0 or passed != set(op.suites):
        bad = len(failing) or n
        return n - bad, bad, True, f"exit {rc}, failing suites {failing or list(op.suites)}"
    key = " ".join(op.argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    if known.setdefault(key, digest) != digest:
        return 0, n, True, "report bytes differ from an earlier run of this source tree at this seed"
    return n, 0, False, ""


def check_sqrt(op, rc, exc, out, err, known: dict):
    req = op.request
    if exc is not None:
        return 0, 1, False, f"raised {type(exc).__name__}"
    if rc != 0:
        return 0, 1, False, f"exit {rc}"
    p, K, k0, n, a = req["p"], req["K"], req["k0"], req["n"], req["matrix"]
    mod, scale = p**K, p**k0
    try:
        doc = json.loads(out.getvalue())
        root = [[int(x) for x in row] for row in doc["root"]]
        good = (
            doc["modulus"] == mod
            and len(root) == n
            and all(len(row) == n and all(0 <= x < mod for x in row) for row in root)
        )
    except (ValueError, KeyError, TypeError):
        return 0, 1, True, "output is not a root record"
    if good:
        for i in range(n):
            for j in range(n):
                sq = sum(root[i][t] * root[t][j] for t in range(n))
                good &= (sq - a[i][j]) % mod == 0 and (root[i][j] - (i == j)) % scale == 0
    return (1, 0, False, "") if good else (0, 1, True, "root fails root*root = a or root = 1 mod p^k0")


def check_dump(op, rc, exc, out, err, pins: dict):
    if exc is not None:
        return 0, 1, False, f"raised {type(exc).__name__}: {exc}"
    if rc != 0:
        return 0, 1, False, f"exit {rc}"
    text = out.getvalue()
    if hashlib.sha256(text.encode()).hexdigest() == pins.get(op.key):
        # the pinned bytes parsed, and their lift passed the exhaustive check
        return 1, 0, False, ""
    try:
        json.loads(text)
    except ValueError:
        return 0, 1, True, f"{op.key}: output is not JSON"
    return 0, 1, True, f"{op.key}: digest differs from the pinned one"


CHECKS = {"verify": check_verify, "sqrt": check_sqrt, "dump": check_dump}


# -- measurement ---------------------------------------------------------------


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import heisweil.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import heisweil.cli"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def git_sha() -> str | None:
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def environment() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "heisweil").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_sha": git_sha(),
        "source_sha256": src_hash.hexdigest(),
    }


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; inf stands for a failed operation."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_workload(
    cli, name: str, seed: int, seconds: float, source: str, tracer=None, probe=None, halfway=None
) -> dict:
    """Run passes of the workload; call halfway() once, between operations,
    when half of --seconds has passed.  verify reports are compared only with
    earlier reports of the same source tree (``source`` is its sha256).
    With a probe, operation times are also given in reference seconds."""
    ops = workloads.WORKLOADS[name](seed)
    check = CHECKS[ops[0].kind]
    reports = load_json(OUT / "report-digests.json", {})
    known = load_json(DIGESTS, {}) if name == "dump-stream" else reports.setdefault(source, {})
    op_times: list[list[float]] = [[] for _ in ops]
    op_spans: list[list[tuple[float, float, float]]] = [[] for _ in ops]
    latencies, per_op = [], []
    ok = failed = passes = emitted = 0
    wrong: list[str] = []
    start = time.perf_counter()
    if probe:
        probe.start()
    while passes < workloads.MIN_PASSES[name] or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            t0, t1, dt, rc, exc, out, err = run_op(cli, op, probe)
            n_ok, n_failed, bad, note = check(op, rc, exc, out, err, known)
            emitted += out.tell()
            del out, err
            op_times[i].append(dt)
            op_spans[i].append((t0, t1, dt))
            ok += n_ok
            failed += n_failed
            latencies.append(dt * 1000 if n_failed == 0 else float("inf"))
            if bad:
                wrong.append(f"{' '.join(op.argv)[:120]}: {note}")
            if passes == 0 and (op.kind != "sqrt" or n_failed):
                per_op.append((op, dt, note or "ok"))
            if halfway and time.perf_counter() - start >= seconds / 2:
                halfway()
                halfway = None
        passes += 1
    if probe:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if name == "verify-sweep":
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / "report-digests.json").write_text(json.dumps(reports, indent=0, sort_keys=True))
    # A pass costs the sum over its operations of each one's median time over
    # the passes run, in wall seconds and, with a probe, in reference seconds.
    wall = [statistics.median(t) for t in op_times]
    ref = [
        statistics.median(dt * probe.scale(t0, t1) for t0, t1, dt in spans)
        for spans in op_spans
    ] if probe else None
    by_p: dict[int, list[float]] = {}
    for k, op in enumerate(ops):
        acc = by_p.setdefault(op.p, [0.0, 0.0])
        acc[0] += wall[k]
        acc[1] += ref[k] if ref else 0.0
    return {
        "ops": ops, "passes": passes, "pass_wall_s": sum(wall),
        "pass_ref_s": sum(ref) if ref else None, "by_p": by_p,
        "latencies": latencies, "per_op": per_op, "ok": ok, "failed": failed,
        "wrong": wrong, "peak_rss_mb": peak_rss_mb, "emitted": emitted,
    }


def end_to_end(res: dict, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "pass_ref_s": res["pass_ref_s"],
        "ok_per_ref_s": res["ok"] / res["passes"] / res["pass_ref_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def detail_lines(name: str, res: dict) -> list[str]:
    """The detail figures of each workload, untraced when --trace 0."""
    lines = []
    attempted = res["ok"] + res["failed"]
    traced = res["pass_ref_s"] is None

    def both(label: str, wall: float, ref: float | None) -> str:
        return f"{label} {wall:.4f} s wall" + ("" if traced else f", {ref:.4f} s reference")

    lines.append(both("pass_s", res["pass_wall_s"], res["pass_ref_s"]))
    if name == "verify-sweep":
        for p, (wall, ref) in sorted(res["by_p"].items()):
            lines.append(both(f"verify_p{p}_s", wall, ref))
        lines.append(both("sweep_s", res["pass_wall_s"], res["pass_ref_s"]))
    elif name == "sqrt-stream":
        lat = res["latencies"]
        p99 = percentile(lat, 99)
        ok_per_s = res["ok"] / res["passes"] / res["pass_wall_s"]
        lines.append(f"sqrt_ok_per_s {ok_per_s:.3f} 1/s wall over {len(lat)} requests")
        lines.append(f"sqrt_p50_ms {statistics.median(lat):.4f} ms")
        lines.append("sqrt_p99_ms " + ("unbounded (failed requests count as unbounded)"
                                        if p99 == float("inf") else f"{p99:.4f} ms"))
        upper = [op for op in res["ops"] if op.upper]
        lines.append(f"upper band: {len(upper)} of {len(res['ops'])} requests per pass")
    else:
        lines.append(both("dump_s", res["pass_wall_s"], res["pass_ref_s"]))
    lines.append(f"failed_ratio {res['failed'] / max(attempted, 1):.4f} ({res['failed']} of {attempted})")
    lines.append(f"passes {res['passes']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(ROOT / "BENCHMARK.json", None)
    if spec is None:
        sys.stderr.write(f"error: cannot read {ROOT / 'BENCHMARK.json'}\n")
        return 2
    cli = import_program()
    load_before = os.getloadavg()
    env = environment()
    # Untraced runs measure the machine's speed alongside.  Setup is sampled
    # in three groups, before, during and after the timed passes.
    probe = None if args.trace else speed.SpeedProbe()
    setup: list[float] = []

    def sample_setup():
        with probe.paused():
            setup.extend(measure_setup(SETUP_GROUP))

    if probe:
        sample_setup()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    res = run_workload(
        cli, args.workload, args.seed, args.seconds, env["source_sha256"], tracer, probe,
        sample_setup if probe else None,
    )
    if probe:
        sample_setup()
    load_after = os.getloadavg()

    attempted = res["ok"] + res["failed"]
    correct = not res["wrong"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = tracer.metrics(res["emitted"], workloads.VERIFY_PRIMES, res["passes"]) if tracer else end_to_end(res, setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "mix": workloads.mix_parameters(args.workload),
        "setup_samples_s": setup, "passes": res["passes"],
        "pass_wall_s": res["pass_wall_s"], "pass_ref_s": res["pass_ref_s"],
        "ops_first_pass": [
            {"argv": op.argv if op.kind != "sqrt" else op.argv[:9], "s": dt, "outcome": note}
            for op, dt, note in res["per_op"]
        ],
        "wrong": res["wrong"], "attempted": attempted, "failed": res["failed"],
        "metrics": values,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # traced and untraced runs are paired only within one source tree
    untraced = load_json(OUT / "untraced-pass-s.json", {})
    same_tree = untraced.setdefault(env["source_sha256"], {}).setdefault(args.workload, {})
    if tracer:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))
        base = same_tree.get(str(args.seed))
        if base:
            record["trace_overhead_s"] = res["pass_wall_s"] - base
    else:
        same_tree[str(args.seed)] = res["pass_wall_s"]
        (OUT / "untraced-pass-s.json").write_text(json.dumps(untraced, sort_keys=True))
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"loadavg before {load_before} after {load_after}")
    for op, dt, note in res["per_op"]:
        print(f"op {dt:9.4f} s  {' '.join(op.argv)[:100]}  {note}")
    for line in detail_lines(args.workload, res):
        print(line)
    if "trace_overhead_s" in record:
        print(f"trace overhead {record['trace_overhead_s']:.4f} s (traced minus untraced wall pass_s, same seed)")
    elif tracer:
        print("trace overhead: no untraced run at this seed of this source tree in this checkout yet")
    if tracer and tracer.missing:
        print(f"trace: callables not found: {tracer.missing}")
    for note in res["wrong"][:20]:
        print(f"WRONG {note}")
    for m in declared:
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
