"""Command-line driver: verification suites and exact matrix dumps.

Usage (noun-verb and verb-noun orders both work):

    heisweil verify all --p 3 --ell 1
    heisweil weil verify --p 5 --mode exhaustive
    heisweil weil dump --p 3 --ell 1 --zeta 1 --model minus
    heisweil heisenberg dump --p 3
    heisweil mackey dump
    heisweil sqrt --n 1 --p 3 --K 4 --k0 1 --matrix "[[4]]"

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 bad arguments or a guard violation.  Reports are JSON, deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from heisweil.checks import Check
from heisweil.heisenberg import HElem, HeisenbergAutomorphism, SpecialIso
from heisweil.linalg import CycMatrix
from heisweil.prounipotent import CongruenceGroup
from heisweil.scalar import CycNumber
from heisweil.suites import RunConfig, SUITES
from heisweil.symplectic import SpElement

SUITE_NAMES = ["heisenberg", "reps", "weil", "mackey", "sqrt"]

__all__ = ["main", "run"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one build serves every run
    parser = argparse.ArgumentParser(
        prog="heisweil",
        description="exact verification suites for Heisenberg/Weil structures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # allow_abbrev=False: no prefix matching, so `dump --mode` is not `--model`
    verify = sub.add_parser(
        "verify", help="run a verification suite", allow_abbrev=False
    )
    verify.add_argument("suite", choices=SUITE_NAMES + ["all"])
    _add_config_flags(verify)
    verify.add_argument(
        "--mode", choices=["exhaustive", "relations"], default="exhaustive"
    )
    verify.add_argument("--precision", type=int, default=4, help="K for sqrt suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--format", choices=["json", "csv"], default="json")

    dump = sub.add_parser("dump", help="emit exact matrices or tables as JSON")
    # one parser per kind, so a kind rejects the flags it does not read
    kinds = dump.add_subparsers(dest="what", required=True)
    for what in ("weil", "heisenberg", "reps", "mackey"):
        kind = kinds.add_parser(what, allow_abbrev=False)
        _add_config_flags(kind)
        if what in ("weil", "reps"):
            kind.add_argument(
                "--zeta", type=int, default=1, help="central character exponent"
            )
            kind.add_argument("--model", choices=["plus", "minus"], default="minus")

    sqrt = sub.add_parser(
        "sqrt", help="square root in 1 + p^k0 M_n(Z/p^K)", allow_abbrev=False
    )
    sqrt.add_argument("--n", type=int, required=True)
    sqrt.add_argument("--p", type=int, required=True)
    sqrt.add_argument("--K", type=int, required=True)
    sqrt.add_argument("--k0", type=int, default=1)
    sqrt.add_argument("--matrix", type=str, required=True, help="JSON matrix")
    sqrt.add_argument("--out", type=str, default=None)
    return parser


def _add_config_flags(p: argparse.ArgumentParser):
    """The flags that verify and dump share."""
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--out", type=str, default=None, help="report path (default stdout)")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Accept both 'verify weil ...' and 'weil verify ...' orders."""
    if len(argv) >= 2:
        a, b = argv[0], argv[1]
        if a in SUITE_NAMES + ["all"] and b in ("verify", "dump"):
            return [b, a] + list(argv[2:])
    return list(argv)


def _config_from_args(args) -> RunConfig:
    # dump has no --mode, --precision or --seed: those keep their defaults
    given = vars(args)
    names = [f.name for f in dataclasses.fields(RunConfig)]
    return RunConfig(**{k: given[k] for k in names if k in given})


def _emit(payload, out_path: str | None, fmt: str = "json") -> None:
    if fmt == "csv":
        reports = payload if isinstance(payload, list) else [payload]
        lines = ["suite,checks,failures,seed"]
        for r in reports:
            lines.append(
                f"{r['suite']},{r['checks']},{len(r['failures'])},{r['seed']}"
            )
        text = "\n".join(lines)
    else:
        text = _to_json(payload)
    # print writes the newline on its own: no copy of a 9 MB text
    if out_path:
        with open(out_path, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _to_json(obj) -> str:
    """``json.dumps(plain, sort_keys=True, indent=1)``, byte for byte, where
    ``plain`` is ``obj`` with every CycMatrix replaced by its ``to_json()``.

    With any ``indent`` CPython's json module falls back to its pure-Python
    encoder, which yields one string per token; a p = 7 dump is millions of
    them.  Here a CycMatrix is one ``%`` of a cached template with the
    integers of :meth:`CycMatrix.reduced_entries`, a list of plain ints, or
    of non-empty lists of plain ints, is one C-level ``str.join``, and every
    piece goes to one list that is joined once at the end.  Other leaves
    (None, bool, float, subclasses) go to ``json.dumps``, whose text for a
    leaf does not depend on the indent.  Payloads are trees: there is no
    cycle check.
    """
    parts: list[str] = []
    put = parts.append

    def write(o, nl: str) -> None:
        # nl is the newline and indent of the line o starts on
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif type(o) is CycMatrix:
            if not (o.nrows and o.ncols):
                write(o.to_json(), nl)
                return
            a, d = o.reduced_entries()
            pairs = np.stack([a, np.broadcast_to(d[..., None], a.shape)], axis=3)
            put(_matrix_template(o.N, *a.shape, nl) % tuple(pairs.ravel().tolist()))
        elif type(o) is int:
            put(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = nl + " "
            sep = "," + inner
            types = set(map(type, o))
            put("[" + inner)
            if types == {int}:
                put(sep.join(map(int.__repr__, o)))
            elif (
                types <= {list, tuple}
                and all(o)
                and set(map(type, chain.from_iterable(o))) == {int}
            ):
                row_nl = inner + " "
                rows = map(("," + row_nl).join, map(map, repeat(int.__repr__), o))
                put("[" + row_nl)
                put((inner + "]" + sep + "[" + row_nl).join(rows))
                put(inner + "]")
            else:
                for i, x in enumerate(o):
                    if i:
                        put(sep)
                    write(x, inner)
            put(nl + "]")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = nl + " "
            sep = "," + inner
            put("{" + inner)
            # sorted before the keys are converted, as the json module
            # does, so mixed key types raise the same TypeError
            for i, (key, value) in enumerate(sorted(o.items())):
                if i:
                    put(sep)
                if isinstance(key, str):
                    key = encode_basestring_ascii(key)
                elif isinstance(key, (int, float)) or key is None:
                    key = '"' + json.dumps(key) + '"'
                else:
                    raise TypeError(
                        "keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}"
                    )
                put(key + ": ")
                write(value, inner)
            put(nl + "}")
        else:
            put(json.dumps(o))

    write(obj, "\n")
    return "".join(parts)


@functools.cache
def _matrix_template(n: int, r: int, c: int, phi: int, nl: str) -> str:
    """The indent=1 text of an r x c CycMatrix.to_json() over Q(zeta_n),
    starting on the line whose newline and indent is nl, with a ``%d`` for
    each numerator and denominator in the order (row, column, power, a/d).
    """
    i1, i2, i3, i4, i5 = (nl + " " * k for k in range(1, 6))
    pair = "[" + i5 + "%d," + i5 + "%d" + i4 + "]"
    coeffs = "[" + i4 + ("," + i4).join([pair] * phi) + i3 + "]"
    entry = "{" + i3 + f'"N": {n},' + i3 + '"coeffs": ' + coeffs + i2 + "}"
    row = "[" + i2 + ("," + i2).join([entry] * c) + i1 + "]"
    return "[" + i1 + ("," + i1).join([row] * r) + nl + "]"


def _jsonable(x):
    """A witness as plain JSON values."""
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, (CycNumber, CycMatrix)):
        return x.to_json()
    if isinstance(x, SpElement):
        return {"matrix": x.matrix.tolist(), "sign": x.sign}
    if isinstance(x, HElem):
        return {"w": list(x.w), "z": x.z}
    if isinstance(x, SpecialIso):
        return {"offset": _jsonable(x.offset)}
    if isinstance(x, HeisenbergAutomorphism):
        return {"s": _jsonable(x.s), "w0": _jsonable(x.w0), "sign": x.central_sign}
    if isinstance(x, CongruenceGroup):
        return {"n": x.n, "p": x.p, "K": x.K, "k0": x.k0}
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return repr(x)


def _suite_report(name: str, cfg: RunConfig, results: list[Check]) -> dict:
    return {
        "suite": name,
        "checks": sum(r.checks for r in results),
        "failures": [
            {"check": r.check, "witness": _jsonable(r.witness)}
            for r in results
            if not r.passed
        ],
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
    }


def run(argv: list[str] | None = None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.verb == "sqrt":
        return _run_sqrt(args)

    cfg = _config_from_args(args)
    if args.verb == "verify":
        names = SUITE_NAMES if args.suite == "all" else [args.suite]
        for name in names:
            err = cfg.validate_for(name)
            if err:
                sys.stderr.write(f"guard: {err}\n")
                return 2
        reports = []
        failed = False
        for name in names:
            results = SUITES[name](cfg)
            report = _suite_report(name, cfg, results)
            reports.append(report)
            failed |= bool(report["failures"])
            line = "PASS" if not report["failures"] else "FAIL"
            sys.stderr.write(
                f"{line} suite={name} checks={report['checks']} "
                f"failures={len(report['failures'])}\n"
            )
        _emit(reports if args.suite == "all" else reports[0], args.out, args.format)
        return 1 if failed else 0

    if args.verb == "dump":
        err = _dump_guard(args, cfg)
        if err:
            sys.stderr.write(f"guard: {err}\n")
            return 2
        payload = _dump(args, cfg)
        _emit(payload, args.out)
        return 0
    return 2


def _dump_guard(args, cfg: RunConfig) -> str | None:
    """Why a dump cannot be built, or None.  A dump reads no --mode: at
    ell = 2 the Weil lift it builds is the plus model's, on the generators."""
    weil = args.what == "weil"
    err = cfg.validate_for("weil" if weil and cfg.ell == 1 else "heisenberg")
    if err is None and weil and cfg.ell == 2 and args.model != "plus":
        err = "the Weil lift is built only for the plus model at ell = 2"
    if err is None and args.what in ("weil", "reps") and args.zeta % cfg.p == 0:
        err = (
            f"zeta = {args.zeta} must be nonzero mod p = {cfg.p} "
            "(the central character is nontrivial)"
        )
    return err


def _dump(args, cfg: RunConfig):
    from heisweil.heisenberg import HeisenbergGroup, all_special_isos
    from heisweil.reps import heisenberg_rep
    from heisweil.symplectic import SymplecticSpace
    from heisweil.weil import weil_lift

    space = SymplecticSpace(cfg.p, cfg.ell)
    group = HeisenbergGroup(space)
    if args.what == "weil":
        tau = heisenberg_rep(group, args.zeta, model=args.model)
        lift = weil_lift(tau)
        entries = [
            {
                "element": s.matrix.tolist(),
                "matrix": lift.sp_images[s],
            }
            for s in sorted(lift.sp_images, key=lambda s: s.matrix.tolist())
        ]
        return {
            "p": cfg.p,
            "ell": cfg.ell,
            "zeta_exponent": args.zeta,
            "model": args.model,
            "normalization": lift.normalization.to_json(),
            "images": entries,
        }
    if args.what == "reps":
        tau = heisenberg_rep(group, args.zeta, model=args.model)
        return {
            "p": cfg.p,
            "ell": cfg.ell,
            "images": [
                {
                    "element": {"w": list(h.w), "z": h.z},
                    "matrix": tau.images[i],
                }
                for i, h in enumerate(group.names)
            ],
        }
    if args.what == "heisenberg":
        payload = {
            "p": cfg.p,
            "ell": cfg.ell,
            "elements": [{"w": list(h.w), "z": h.z} for h in group.names],
            "special_iso_offsets": [
                list(nu.offset) for nu in all_special_isos(group)
            ],
        }
        if cfg.ell == 1:  # where every subgroup is 2-generated
            payload["subgroups"] = [
                [
                    {"w": list(group.names[h].w), "z": group.names[h].z}
                    for h in sorted(sub)
                ]
                for sub in group.all_subgroups()
            ]
        return payload
    if args.what == "mackey":
        return {"order": group.order, "table": group.table.tolist()}
    raise RuntimeError(f"no dump for {args.what!r}")


def _parse_matrix(text: str, n: int) -> list[list[int]]:
    """The --matrix JSON, checked to be an n x n list of integer rows."""
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a JSON list of rows")
    widths = {len(r) for r in rows}
    if len(rows) != n or widths != {n}:
        if len(widths) > 1:
            shape = f"{len(rows)} rows of lengths {[len(r) for r in rows]}"
        else:
            shape = f"{len(rows)}x{widths.pop() if widths else 0}"
        raise ValueError(f"matrix is {shape}, expected {n}x{n}")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"matrix entry ({i}, {j}) = {x!r} is not an integer")
    return rows


def _run_sqrt(args) -> int:
    from heisweil.prounipotent import CongruenceGroup, sqrt_with_trace

    try:
        group = CongruenceGroup(args.n, args.p, args.K, args.k0)
        root, levels = sqrt_with_trace(group, _parse_matrix(args.matrix, args.n))
    except (ValueError, RuntimeError) as exc:
        # json.JSONDecodeError is a ValueError; never print an empty reason
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2
    _emit(
        {
            "root": root.tolist(),
            "residual_levels": levels,
            "modulus": group.modulus,
        },
        args.out,
    )
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
