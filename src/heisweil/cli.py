"""Command-line driver: verification suites and exact matrix dumps.

Usage (noun-verb and verb-noun orders both work):

    heisweil verify all --p 3 --ell 1
    heisweil weil verify --p 5
    heisweil weil dump --p 3 --ell 1 --zeta 1 --model minus
    heisweil heisenberg dump --p 3
    heisweil mackey dump
    heisweil sqrt --n 1 --p 3 --K 4 --k0 1 --matrix "[[4]]"

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 bad arguments or a guard violation.  Reports are JSON, deterministic
for a fixed configuration and seed.  ``verify`` also writes one line per
suite to stderr, ``PASS|FAIL suite=... checks=... failures=...
seconds=...``, with the suite's wall time, which the report leaves out.

An argv that starts with a known verb is parsed once, by the verb's own
parser; help, a missing or an unknown verb go to the root parser.  Either
way the output and the exit code are what the root parser gives.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from heisweil.checks import Check
from heisweil.heisenberg import HElem, SpecialIso
from heisweil.linalg import _INT64, CycMatrix
from heisweil.prounipotent import CongruenceGroup
from heisweil.scalar import CycNumber
from heisweil.suites import RunConfig, SUITES
from heisweil.symplectic import codes

SUITE_NAMES = ["heisenberg", "reps", "weil", "mackey", "sqrt"]

__all__ = ["main", "run"]


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser and its map from verb to the verb's own parser
    (``sub.choices``).  Parsing keeps no state in a parser, so one build
    serves every run; :func:`_parse_args` picks the parser an argv goes to.
    """
    parser = argparse.ArgumentParser(
        prog="heisweil",
        description="exact verification suites for Heisenberg/Weil structures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # allow_abbrev=False on every parser: a flag matches only in full, so
    # `verify --pre` is not `--precision` and `dump weil --mode` is not `--model`
    verify = sub.add_parser(
        "verify", help="run a verification suite", allow_abbrev=False
    )
    verify.add_argument("suite", choices=SUITE_NAMES + ["all"])
    _add_config_flags(verify)
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
    return parser, sub.choices


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
    # dump has no --precision or --seed: those keep their defaults
    given = vars(args)
    names = [f.name for f in dataclasses.fields(RunConfig)]
    return RunConfig(**{k: given[k] for k in names if k in given})


def _emit(payload, out_path: str | None, fmt: str = "json") -> None:
    """Write the payload and a newline to ``out_path``, or to stdout.

    Every piece of the text is built before the file is opened, so a payload
    the encoder rejects raises before anything is written.  The pieces are
    then written in order by one ``writelines``: no joined copy of the text
    (8.9 MB in 18 171 pieces for a p = 7 ``dump weil``, written to a file in
    ~18 ms on a 2-core VM) and no text of a whole matrix is made.
    """
    if fmt == "csv":
        reports = payload if isinstance(payload, list) else [payload]
        lines = ["suite,checks,failures,seed"]
        for r in reports:
            lines.append(
                f"{r['suite']},{r['checks']},{len(r['failures'])},{r['seed']}"
            )
        pieces = ["\n".join(lines)]
    else:
        pieces = _pieces(payload)
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)
        fh.write("\n")


@dataclasses.dataclass(frozen=True, eq=False)
class ImageList:
    """The list of dicts {"element": elements[i], "matrix": num[i] / den},
    held as one stack: ``elements`` are plain JSON values, and ``num`` is
    the (m, r, c, phi) numerator stack of the matrices over Q(zeta_N), over
    the one denominator ``den``.  :func:`_pieces` writes it from the stack,
    with no CycMatrix per image; its plain JSON is :meth:`to_json`."""

    elements: list
    num: np.ndarray
    den: int
    N: int

    def __post_init__(self):
        if len(self.elements) != len(self.num):
            raise ValueError(
                f"{len(self.elements)} elements for {len(self.num)} matrices"
            )

    def to_json(self) -> list[dict]:
        return [
            {"element": e, "matrix": CycMatrix._packed(self.N, num, self.den).to_json()}
            for e, num in zip(self.elements, self.num)
        ]


def _to_json(obj) -> str:
    """``json.dumps(plain, sort_keys=True, indent=1)``, byte for byte, where
    ``plain`` is ``obj`` with every CycMatrix and ImageList replaced by its
    ``to_json()`` and every ndarray by its ``tolist()``: the join of
    :func:`_pieces`."""
    return "".join(_pieces(obj))


def _pieces(obj) -> list[str]:
    """The text of ``obj`` as :func:`_to_json` gives it, as a list of
    strings in order.

    With any ``indent`` CPython's json module falls back to its pure-Python
    encoder, which yields one string per token: 1.2 million for a p = 7
    ``dump weil``, which is 18 171 pieces here (20 590 for ``dump reps``).
    A list of plain ints, or of non-empty lists of plain ints, is one
    C-level ``str.join``, and so is a 2-D integer ndarray, through one list
    of value strings.  A non-empty matrix is the text before its first
    entry, then the texts of its entries, each with the separator after it
    (:func:`_matrix_separators`).  The texts come from :func:`_entry_texts`
    on a numerator stack: the whole stack of an ImageList, whose dict text
    between two matrices is one string besides the element, and whose key
    before a matrix is one string with the matrix's opening, or a
    CycMatrix as a stack of one.  Other leaves (None, bool, float,
    subclasses) go to ``json.dumps``, whose text for a leaf does not depend
    on the indent.  Payloads are trees: there is no cycle check.
    """
    parts: list[str] = []
    put = parts.append

    def put_rows(rows, nl: str) -> None:
        # rows of int texts, none empty, as the list of lists it is
        inner = nl + " "
        row_nl = inner + " "
        put("[" + inner + "[" + row_nl)
        put((inner + "]," + inner + "[" + row_nl).join(map(("," + row_nl).join, rows)))
        put(inner + "]" + nl + "]")

    def write(o, nl: str) -> None:
        # nl is the newline and indent of the line o starts on
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif type(o) is CycMatrix:
            r, c, _ = o.num.shape
            if not (r and c):
                write(o.to_json(), nl)
                return
            seps = _matrix_separators(r, c, nl)
            put(seps[0])
            parts.extend(_entry_texts(o.N, nl, o.num[None], o.den, seps)[0])
        elif type(o) is ImageList:
            m, r, c, _ = o.num.shape
            if not (m and r and c):
                write(o.to_json(), nl)
                return
            # the dicts start on inner, their keys on key_nl
            inner, key_nl = nl + " ", nl + "  "
            head = "{" + key_nl + '"element": '
            seps = _matrix_separators(r, c, key_nl)
            between = inner + "}," + inner + head
            matrix_key = "," + key_nl + '"matrix": ' + seps[0]
            texts = _entry_texts(o.N, key_nl, o.num, o.den, seps)
            put("[" + inner + head)
            for i, (e, entries) in enumerate(zip(o.elements, texts)):
                if i:
                    put(between)
                write(e, key_nl)
                put(matrix_key)
                parts.extend(entries)
            put(inner + "}" + nl + "]")
        elif type(o) is int:
            put(int.__repr__(o))
        elif isinstance(o, np.ndarray):
            if o.ndim == 2 and o.size and o.dtype.kind in "iu":
                put_rows(_int_table_texts(o), nl)
            else:
                write(o.tolist(), nl)
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            types = set(map(type, o))
            if (
                types <= {list, tuple}
                and all(o)
                and set(map(type, chain.from_iterable(o))) == {int}
            ):
                put_rows(map(map, repeat(int.__repr__), o), nl)
                return
            inner = nl + " "
            sep = "," + inner
            put("[" + inner)
            if types == {int}:
                put(sep.join(map(int.__repr__, o)))
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
    return parts


def _int_table_texts(x: np.ndarray) -> list[list[str]]:
    """The rows of a 2-D integer array as lists of ``int.__repr__`` texts,
    each distinct value formatted once: over the range of the values when
    it is no longer than the array, else over ``np.unique``."""
    lo, hi = int(x.min()), int(x.max())
    if hi - lo < x.size and np.can_cast(x.dtype, np.int64):
        values, index = range(lo, hi + 1), x.astype(np.int64, copy=False) - lo
    else:
        values, index = np.unique(x, return_inverse=True)
        values = values.tolist()
    texts = np.array(list(map(int.__repr__, values)), dtype=object)
    return texts[index.reshape(x.shape)].tolist()


def _entry_texts(n: int, nl: str, num: np.ndarray, den: int, seps: tuple) -> list:
    """The texts of the entries of each matrix num[i] / den of the stack
    ``num`` (m, r, c, phi) over Q(zeta_n), for matrices that start on the
    line whose newline and indent is nl, each followed by the separator
    after it: one row-major list per matrix, entry k as
    ``CycNumber.to_json`` gives it, reduced by its own gcd, then
    ``seps[k + 1]`` of the matrix's :func:`_matrix_separators` ``seps``.

    When every numerator is int64 and den is below 2^63, the stack goes to
    :func:`_distinct_entry_texts` in slices of about ``_SLICE_ENTRIES``
    entries.  Otherwise each entry is formatted on its own from Python ints.
    """
    template = _entry_template(n, num.shape[3], nl)
    if num.dtype != object and den < _INT64:
        step = max(1, _SLICE_ENTRIES // num[0, ..., 0].size)
        return [
            entries
            for k in range(0, len(num), step)
            for entries in _distinct_entry_texts(template, num[k : k + step], den, seps)
        ]
    texts = []
    for matrix in num:
        # Python ints: np.gcd against int64 would overflow
        a, d = CycMatrix._packed(n, matrix, den).reduced_entries()
        entries = (
            template % tuple(chain.from_iterable(zip(e, repeat(e_den))))
            for row, row_den in zip(a.tolist(), d.tolist())
            for e, e_den in zip(row, row_den)
        )
        texts.append(list(map(str.__add__, entries, seps[1:])))
    return texts


# Entries per np.unique call of _entry_texts.  One call per whole p = 7
# dump leaves a heap that raises the peak RSS of a process that dumps
# repeatedly by ~2 MB (63.2 against 61.3 MB on perfbench dump-stream).
_SLICE_ENTRIES = 4096
_KEY_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _distinct_entry_texts(
    template: str, num: np.ndarray, den: int, seps: tuple
) -> list[list[str]]:
    """:func:`_entry_texts` for a stack of int64 numerators over a
    denominator below 2^63.  The entries share that denominator, so two are
    equal exactly when their numerators are: each distinct numerator vector
    is reduced by its gcd with den, as :meth:`CycMatrix.reduced_entries`
    does, and formatted once, then joined once with each of the (at most
    three) distinct separators that follow an entry.  The 16 464 entries of
    a p = 7 Weil dump hold 29 numerators."""
    phi = num.shape[3]
    rows = num.reshape(-1, phi)
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    distinct = rows[first]
    g = np.gcd(np.gcd.reduce(distinct, axis=1), den)
    fill = np.empty((len(distinct), 2 * phi), dtype=np.int64)
    fill[:, 0::2] = distinct // g[:, None]
    fill[:, 1::2] = (den // g)[:, None]
    # the separator after each entry position, as an index into kinds
    kinds = sorted(set(seps[1:]))
    kind = np.array([kinds.index(sep) for sep in seps[1:]], dtype=np.int64)
    entries = [template % tuple(e) for e in fill.tolist()]
    texts = np.array([e + sep for e in entries for sep in kinds], dtype=object)
    return texts[inverse.reshape(len(num), -1) * len(kinds) + kind].tolist()


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a non-empty 2-D int64 array, equal exactly when
    the rows are: the row read as a number in base max - min + 1 when every
    such number fits in int64, else the row as one void scalar in the
    smallest signed integer type that holds it."""
    lo, hi = int(rows.min()), int(rows.max())
    base, width = hi - lo + 1, rows.shape[1]
    if base**width < _INT64:
        return (rows - lo) @ (base ** np.arange(width, dtype=np.int64))
    narrow = rows.astype(
        next(t for t in _KEY_TYPES if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
    )
    return narrow.view(np.dtype((np.void, narrow.itemsize * width))).ravel()


@functools.cache
def _entry_template(n: int, phi: int, nl: str) -> str:
    """The indent=1 text of one CycNumber.to_json() over Q(zeta_n) in a
    matrix that starts on the line whose newline and indent is nl, with a
    ``%d`` for each numerator and the denominator after it, in the order of
    the powers."""
    i2, i3, i4, i5 = (nl + " " * k for k in range(2, 6))
    pair = "[" + i5 + "%d," + i5 + "%d" + i4 + "]"
    coeffs = "[" + i4 + ("," + i4).join([pair] * phi) + i3 + "]"
    return "{" + i3 + f'"N": {n},' + i3 + '"coeffs": ' + coeffs + i2 + "}"


@functools.cache
def _matrix_separators(r: int, c: int, nl: str) -> tuple[str, ...]:
    """The r c + 1 strings around the entries of the indent=1 text of an
    r x c matrix that starts on the line whose newline and indent is nl:
    the text is separators[0], entry 0, separators[1], ..., entry r c - 1,
    separators[r c], with the entries in row-major order."""
    i1, i2 = nl + " ", nl + "  "
    row = "[" + i2 + ("," + i2).join(["%s"] * c) + i1 + "]"
    return tuple(("[" + i1 + ("," + i1).join([row] * r) + nl + "]").split("%s"))


def _jsonable(x):
    """A witness as plain JSON values."""
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, (CycNumber, CycMatrix)):
        return x.to_json()
    if isinstance(x, HElem):
        return {"w": list(x.w), "z": x.z}
    if isinstance(x, SpecialIso):
        return {"offset": _jsonable(x.offset)}
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parse_args(argv)`` of the root parser, with one pass over argv.

    The root parser would classify every string, then hand all but the
    first to the verb's parser; for a known verb that parser is called
    directly, and what it leaves over is the root's "unrecognized
    arguments" error, as argparse gives it.
    """
    parser, verbs = _build_parser()
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.verb = argv[0]
    return args


def run(argv: list[str] | None = None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_args(argv)
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
            start = time.perf_counter()
            results = SUITES[name](cfg)
            seconds = time.perf_counter() - start
            report = _suite_report(name, cfg, results)
            reports.append(report)
            failed |= bool(report["failures"])
            line = "PASS" if not report["failures"] else "FAIL"
            # the wall time goes to stderr only: the report stays deterministic
            sys.stderr.write(
                f"{line} suite={name} checks={report['checks']} "
                f"failures={len(report['failures'])} seconds={seconds:.4f}\n"
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
    """Why a dump cannot be built, or None.  At ell = 2 the Weil lift it
    builds is the plus model's, on the generators."""
    weil = args.what == "weil"
    err = cfg.validate_for("weil" if weil else "heisenberg")
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
        order = np.argsort(codes(cfg.p, lift.sp_elements))  # by their entries
        return {
            "p": cfg.p,
            "ell": cfg.ell,
            "zeta_exponent": args.zeta,
            "model": args.model,
            "normalization": lift.normalization.to_json(),
            "images": ImageList(
                lift.sp_elements[order].tolist(),
                lift.num[order],
                lift.den,
                lift.base.conductor,
            ),
        }
    if args.what == "reps":
        tau = heisenberg_rep(group, args.zeta, model=args.model)
        return {
            "p": cfg.p,
            "ell": cfg.ell,
            "images": ImageList(
                [{"w": list(h.w), "z": h.z} for h in group.names],
                tau.num,
                tau.den,
                tau.conductor,
            ),
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
        return {"order": group.order, "table": group.table}
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
