import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heisweil
from group_oracles import fixed_subgroup
from heisweil import cli
from heisweil.cli import ImageList, _build_parser, _to_json, run
from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import CycMatrix
from heisweil.scalar import PRIME_TEST_BOUND, CycNumber, context
from heisweil.suites import RunConfig, SUITES, standard_mackey_configurations


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "sqrt", "--p", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "sqrt"
    assert report["failures"] == []
    assert report["checks"] > 0
    assert report["config"]["p"] == 3 and report["seed"] == 0


def test_verb_noun_order_equivalence(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "mackey", "--out", str(out1)]) == 0
    assert run(["mackey", "verify", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_reports_byte_identical_for_same_config(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "sqrt", "--seed", "11", "--out", str(out1)])
    run(["verify", "sqrt", "--seed", "11", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_guard_gives_exit_2():
    assert run(["verify", "weil", "--p", "11"]) == 2
    assert run(["verify", "weil", "--p", "4"]) == 2
    assert run(["verify", "weil", "--ell", "2", "--p", "5"]) == 2


def test_bad_arguments_give_exit_2():
    assert run(["verify", "nonsense"]) == 2
    assert run(["frobnicate"]) == 2


def test_weil_dump_has_all_sp_matrices(tmp_path):
    out = tmp_path / "dump.json"
    assert run(
        ["weil", "dump", "--p", "3", "--ell", "1", "--zeta", "1", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert len(data["images"]) == 24
    first = data["images"][0]
    assert "element" in first and "matrix" in first
    entry = first["matrix"][0][0]
    assert set(entry) == {"N", "coeffs"}  # CycNumber JSON encoding


def test_weil_dump_at_ell_2_is_the_plus_model_on_generators(tmp_path):
    out = tmp_path / "dump.json"
    argv = ["dump", "weil", "--p", "3", "--ell", "2", "--model", "plus"]
    assert run(argv + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["ell"], data["model"]) == (2, "plus")
    # generators only: two m(y), four n(b) and j, not all of Sp(4, 3)
    assert len(data["images"]) == 7
    assert len(data["images"][0]["matrix"]) == 9


def test_verify_weil_at_ell_2_runs_without_a_flag(tmp_path):
    """At ell = 2 the lift has images on the generators only, so the suite
    checks their relations and the intertwining on generator pairs."""
    out = tmp_path / "weil.json"
    assert run(["verify", "weil", "--p", "3", "--ell", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failures"] == [] and report["checks"] == 8 + 28
    assert report["config"] == {"p": 3, "ell": 2, "precision": 4, "seed": 0}
    counts = {c.check: c.checks for c in SUITES["weil"](RunConfig(p=3, ell=2))}
    # 7 generators of Sp(4, 3) against 4 of H(3, 2)
    assert counts == {"weil.generator_relations": 8, "weil.intertwining": 7 * 4}


def test_heisenberg_and_mackey_dumps(tmp_path):
    out = tmp_path / "h.json"
    assert run(["heisenberg", "dump", "--p", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["elements"]) == 27
    assert len(data["special_iso_offsets"]) == 9

    out2 = tmp_path / "t.json"
    assert run(["mackey", "dump", "--out", str(out2)]) == 0
    table = json.loads(out2.read_text())
    assert table["order"] == 27
    assert len(table["table"]) == 27


def test_sqrt_command(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(
        [
            "sqrt", "--n", "1", "--p", "3", "--K", "4", "--k0", "1",
            "--matrix", "[[4]]", "--out", str(out),
        ]
    ) == 0
    data = json.loads(out.read_text())
    assert data["root"] == [[79]]
    assert data["residual_levels"] == [2, 4]


def test_sqrt_command_rejects_outsider():
    assert run(
        ["sqrt", "--n", "1", "--p", "3", "--K", "4", "--matrix", "[[2]]"]
    ) == 2


def test_zoo_has_at_least_twenty_configurations():
    assert len(standard_mackey_configurations()) >= 20


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _max_exponent(p: int, bits: int = 96) -> int:
    K = 0
    while p ** (K + 1) <= 2**bits:
        K += 1
    return K


@st.composite
def _sqrt_requests(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 4))
    k0 = draw(st.sampled_from([1, 2]))
    K = draw(st.integers(k0, _max_exponent(p)))
    mod, scale = p**K, p**k0
    digit = st.integers(0, mod // scale - 1)
    rows = draw(st.lists(st.lists(digit, min_size=n, max_size=n), min_size=n, max_size=n))
    a = [[(int(i == j) + scale * rows[i][j]) % mod for j in range(n)] for i in range(n)]
    return p, n, k0, K, a


@settings(max_examples=80, deadline=None)
@given(request=_sqrt_requests())
@example(request=(3, 2, 1, 19, [[4, 3], [9, 1]]))  # int64: 2 (3^19 - 1)^2 < 2^63
@example(request=(3, 2, 1, 21, [[4, 3], [9, 1]]))  # Python ints
@example(request=(5, 2, 2, 2, [[1, 0], [0, 1]]))  # K = k0: no Newton step
@example(request=(3, 1, 1, 2, [[4]]))  # K = 2 k0: one step
@example(request=(7, 2, 2, 9, [[50, 98], [49, 1]]))  # k0 = 2: levels 4, 8, 9
@example(request=(13, 4, 2, 25, [[int(i == j) + 169 * (i + j) for j in range(4)]
                                  for i in range(4)]))
# entries on both sides of 2^63: numpy alone would read them as float64
@example(request=(3, 3, 2, 40, [
    [6775272543264218785, 5341321161779817474, 8774142682098460761],
    [11488485244915750680, 2960433911489718799, 8401697307395737803],
    [10272593712676316436, 1567364669718044697, 2959276792176451981],
]))
def test_sqrt_cli_property(request):
    p, n, k0, K, a = request
    mod, scale = p**K, p**k0
    code, out, err = _run_captured(
        ["sqrt", "--n", str(n), "--p", str(p), "--K", str(K), "--k0", str(k0),
         "--matrix", json.dumps(a)]
    )
    assert code == 0, err
    doc = json.loads(out)
    root = doc["root"]
    assert doc["modulus"] == mod
    # the Newton levels double from k0: min(k0 2^i, K) until K is reached
    steps = (-(-K // k0) - 1).bit_length()
    assert doc["residual_levels"] == [min(k0 << i, K) for i in range(1, steps + 1)]
    for i in range(n):
        for j in range(n):
            square = sum(root[i][t] * root[t][j] for t in range(n))
            assert (square - a[i][j]) % mod == 0
            assert (root[i][j] - (i == j)) % scale == 0


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # python -O strips assert statements; every check must raise explicitly,
    # and a failed verification is a RuntimeError naming the condition
    package = Path(heisweil.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node))
    ]
    assert found == []


# sha256 of `heisweil dump <what> --p 3` on stdout, pinned against the
# tuple-based implementation these dumps were first written by
DUMP_SHA256_P3 = {
    "heisenberg": "2b6aae13a8b635142c5f6eb4ff070b2f5275228c2c058acdb756dc4be282f4bb",
    "reps": "c1e101e65cfde15e471ef320f4db32cf2720db4967211768fa026a051639abba",
}


# `dump weil`, keyed (p, model, zeta): the entries with a nontrivial
# denominator; the same digests as perfbench/digests.json
# ("weil/p<p>/<model>/<zeta>")
WEIL_DUMP_SHA256 = {
    (3, "minus", 1): "d5d676ea243c3261b823dc25603f0ccba493779444f4559fda518a7bf0f695fe",
    (3, "plus", 1): "a8545ca0a7ebd320f4afb359d64014ecffc83fddd3edd432cf500302edd41dd6",
    (5, "minus", 1): "f044e758d38b4e37f1be2d1390c0a2793f6a40a83d990f779ccd8a5e27124c1a",
    (5, "plus", 1): "2e1b44520d1f2beeb2e4c7e509dd5baf637dd5e3126d1e0acac25cb34572e06b",
    # N = 28, phi = 12: the largest matrix template
    (7, "plus", 1): "07a9e565ff6fc542b0a4663133c16180ece765a227e6c50d70ee6d7d136d2b49",
    # the minus model builds its n(x) images through j^-1 = m(-1) j; zeta 3
    # is a non-square mod 7
    (7, "minus", 1): "a1ddda4ae6bd9f1dfaac43622e60c7fc5683c2477a88909fb4c88f95fd918d1e",
    (7, "minus", 3): "bd6c5e0438dfce2a67911209327937c3858c9f55fd7e1513748029f4052925f4",
}

# `dump reps --p 7`, as perfbench/digests.json pins it under "reps/p7"
REPS_P7_SHA256 = "a0d4f3cbdf9110e8c15768342a9d4a5fd149b0c91e3c6a227f71f36aa09fdccc"

# `dump mackey --p <p>`, written from the table's tolist(); p = 7 as
# perfbench/digests.json pins it under "mackey/p7"
MACKEY_SHA256 = {
    3: "7a697fdbcccc4c7167e660d8d51040221a46c70461e1af81eb2df21f67b4a899",
    7: "632e619f7183fc9ec481c7461428a955c493c32ebed86c73bfc50c5093faebf1",
}


@pytest.mark.parametrize(
    "argv,digest",
    [
        pytest.param(["dump", what, "--p", "3"], digest, id=what)
        for what, digest in sorted(DUMP_SHA256_P3.items())
    ]
    + [
        pytest.param(
            ["dump", "weil", "--p", str(p), "--zeta", str(zeta), "--model", model],
            digest,
            id=f"weil-p{p}-{model}" + (f"-zeta{zeta}" if zeta != 1 else ""),
        )
        for (p, model, zeta), digest in sorted(WEIL_DUMP_SHA256.items())
    ]
    + [pytest.param(["dump", "reps", "--p", "7"], REPS_P7_SHA256, id="reps-p7")]
    + [
        pytest.param(["dump", "mackey", "--p", str(p)], digest, id=f"mackey-p{p}")
        for p, digest in sorted(MACKEY_SHA256.items())
    ],
)
def test_dump_bytes_pinned_p3(argv, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# sha256 of stdout for `verify heisenberg --p 3 --ell 2` (237 331 checks)
# and `dump heisenberg --p <p> --ell <ell>`, whose special-isomorphism
# offsets are the w0 of every special isomorphism in base-p order
HEISENBERG_SHA256 = {
    ("verify", 3, 2): "1709ae3a69966fca605a53fc1edeb4ecb2f360fe4cf708560b3adaf98ba06182",
    ("dump", 3, 1): "2b6aae13a8b635142c5f6eb4ff070b2f5275228c2c058acdb756dc4be282f4bb",
    ("dump", 5, 1): "6fdd652447f65c67410efb9cb9d11dd6d99ef5868f5d95f7172fc8fbaa81ebe7",
    ("dump", 7, 1): "d28dfc90ae804f23a6fa000252be49c6fbcea9c713b8bac655bbf8083d19a01a",
    ("dump", 3, 2): "6ec5499e296e3d0cd81182bb89eea4c0edd7e270adc4a2fac4fddd28bc4c959d",
}


@pytest.mark.parametrize(
    "command,p,ell",
    sorted(HEISENBERG_SHA256),
    ids=[f"{c}-p{p}-ell{ell}" for c, p, ell in sorted(HEISENBERG_SHA256)],
)
def test_heisenberg_verify_and_dump_bytes_pinned(command, p, ell):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run([command, "heisenberg", "--p", str(p), "--ell", str(ell)]) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == HEISENBERG_SHA256[command, p, ell]


@pytest.mark.parametrize("what, images", [("weil", 120), ("reps", 125)])
def test_dumps_write_their_images_from_one_stack(what, images, monkeypatch):
    """`dump weil` and `dump reps` at p = 5 wrap no image as a CycMatrix:
    the few CycMatrix built are the lift's single operators."""
    built = []
    packed = CycMatrix._packed.__func__

    def counted(cls, *args):
        built.append(None)
        return packed(cls, *args)

    monkeypatch.setattr(CycMatrix, "_packed", classmethod(counted))
    code, out, err = _run_captured(["dump", what, "--p", "5"])
    assert code == 0, err
    assert len(json.loads(out)["images"]) == images
    assert len(built) < 30


@pytest.mark.parametrize("what, tables", [("weil", 0), ("reps", 0), ("mackey", 1)])
def test_dumps_build_the_heisenberg_table_only_where_they_read_it(
    what, tables, monkeypatch
):
    """The p = 7 Weil and reps dumps read the coordinates of H, never its
    Cayley table; the mackey dump prints the table."""
    built = []
    law_table = HeisenbergGroup._law_table

    def counted(self):
        built.append(self)
        return law_table(self)

    monkeypatch.setattr(HeisenbergGroup, "_law_table", counted)
    code, _, err = _run_captured(["dump", what, "--p", "7"])
    assert code == 0, err
    assert len(built) == tables


def test_a_p7_weil_dump_writes_each_entry_with_its_separator():
    """One piece per matrix entry, which carries the separator after it, and
    one per matrix for the text before its first entry: 18 171 in all."""
    args = cli._parse_args(["dump", "weil", "--p", "7"])
    payload = cli._dump(args, cli._config_from_args(args))
    pieces = cli._pieces(payload)
    assert len(pieces) <= 18_171
    assert "".join(pieces) == _stdlib_json(_plain(payload))


@pytest.mark.parametrize(
    "argv",
    [
        ["dump", "weil", "--p", "5"],
        ["dump", "mackey", "--p", "7"],
        ["verify", "all", "--p", "3"],
    ],
)
def test_out_file_bytes_equal_stdout(argv, tmp_path):
    code, out, err = _run_captured(argv)
    assert code == 0, err
    path = tmp_path / "out.json"
    assert run(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "heisenberg"],
        ["dump", "mackey"],
        ["sqrt", "--n", "1", "--p", "3", "--K", "4", "--k0", "1", "--matrix", "[[4]]"],
    ],
)
def test_an_unwritable_out_file_exits_2_with_an_error_line(argv, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code, out, err = _run_captured(argv + ["--out", str(path)])
    assert code == 2
    assert out == ""
    # verify writes its PASS lines first; the error is the last line
    assert err.splitlines()[-1] == f"error: cannot write {path}: No such file or directory"
    assert not path.exists()


def test_weil_dump_records_the_zeta_exponent_of_the_lift():
    """--zeta -1, 2 and 5 build the one lift of k = 2 at p = 3, and give
    the same bytes."""
    outs = [_run_captured(["dump", "weil", "--p", "3", "--zeta", z]) for z in ("-1", "2", "5")]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert outs[0][1] == outs[1][1] == outs[2][1]
    assert json.loads(outs[1][1])["zeta_exponent"] == 2


def test_sqrt_large_modulus_under_optimize_flag():
    # asserts vanish under python -O; the checks that guard the root must not
    env = dict(os.environ, PYTHONPATH=str(Path(heisweil.__file__).resolve().parents[1]))
    a = [[4, 3], [9, 1]]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "heisweil", "sqrt", "--n", "2", "--p", "3",
         "--K", "21", "--matrix", json.dumps(a)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    root, mod = json.loads(proc.stdout)["root"], 3**21
    for i in range(2):
        for j in range(2):
            assert (sum(root[i][t] * root[t][j] for t in range(2)) - a[i][j]) % mod == 0


@pytest.mark.parametrize(
    "n,matrix,message",
    [
        (1, "[[4.9]]", "matrix entry (0, 0) = 4.9 is not an integer"),
        (1, "[[true]]", "matrix entry (0, 0) = True is not an integer"),
        (2, "[[4, 3]]", "matrix is 1x2, expected 2x2"),
        (2, "[[4, 3], [9]]", "matrix is 2 rows of lengths [2, 1], expected 2x2"),
        (1, "{}", "matrix must be a JSON list of rows"),
        (0, "[]", "need n >= 1, got n = 0"),
    ],
)
def test_sqrt_rejects_malformed_input(n, matrix, message):
    code, out, err = _run_captured(
        ["sqrt", "--n", str(n), "--p", "3", "--K", "4", "--matrix", matrix]
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "p,K,k0,message",
    [
        (9, 4, 1, "p must be an odd prime, got p = 9"),
        (3, 2, 3, "need 1 <= k0 <= K, got k0 = 3, K = 2"),
        (3, 4, 0, "need 1 <= k0 <= K, got k0 = 0, K = 4"),
        (10**18 + 1, 1, 1, "p must be an odd prime, got p = 1000000000000000001"),
        (
            PRIME_TEST_BOUND,
            1,
            1,
            f"p = {PRIME_TEST_BOUND} is not below {PRIME_TEST_BOUND}, "
            "the bound of the primality test",
        ),
    ],
)
def test_sqrt_guards_name_the_rejected_values(p, K, k0, message):
    """Each congruence-group guard names the values it rejects (the n guard
    is a case of test_sqrt_rejects_malformed_input)."""
    code, out, err = _run_captured(
        ["sqrt", "--n", "2", "--p", str(p), "--K", str(K), "--k0", str(k0),
         "--matrix", "[[1, 0], [0, 1]]"]
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _largest_printable_exponent(p: int = 3) -> int:
    """The largest K with p^K below 10^limit, limit the digits int -> str
    writes: the largest modulus a group accepts."""
    bound = 10 ** sys.get_int_max_str_digits()
    K = int(sys.get_int_max_str_digits() / np.log10(p))
    while p ** (K + 1) < bound:
        K += 1
    while p**K >= bound:
        K -= 1
    return K


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int -> str has no limit")
@pytest.mark.parametrize("extra", [1, 88, 10**9])
def test_sqrt_refuses_a_modulus_int_to_str_cannot_write(extra):
    """A modulus of 10^limit or more, limit = 4300 digits by default, would
    crash the writer: it is an error line and exit 2.  3^9100 is the case
    that crashed, and 3^(10^9) is refused before the power is taken; the
    largest modulus below the bound still answers."""
    limit, K = sys.get_int_max_str_digits(), _largest_printable_exponent()
    argv = ["sqrt", "--n", "1", "--p", "3", "--K", str(K + extra), "--k0", "1",
            "--matrix", "[[4]]"]
    start = time.perf_counter()
    code, out, err = _run_captured(argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == (
        f"error: modulus p^K = 3^{K + extra} must stay below 10^{limit}, as int -> str "
        f"writes at most {limit} digits\n"
    )
    argv[6] = str(K)
    code, out, err = _run_captured(argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["modulus"] == 3**K and report["root"][0][0] ** 2 % 3**K == 4


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int -> str has no limit")
def test_verify_refuses_a_precision_past_the_modulus_bound(capsys):
    """The sqrt suite's alpha-factor groups are mod 3^precision, so
    --precision has the modulus bound of sqrt: a guard line and exit 2,
    for every suite, before any suite runs."""
    limit, K = sys.get_int_max_str_digits(), _largest_printable_exponent()
    for suite, precision in (("sqrt", K + 1), ("sqrt", 9100), ("all", K + 1)):
        assert run(["verify", suite, "--precision", str(precision)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"guard: precision = {precision}: modulus")
        assert f"below 10^{limit}" in err
    assert RunConfig(precision=K).validate_for("sqrt") is None


def test_parser_reuse_matches_fresh_runs():
    calls = [
        ["sqrt", "--n", "1", "--p", "3", "--K", "4", "--matrix", "[[4]]"],
        ["heisenberg", "dump", "--p", "3"],
        ["verify", "nonsense"],
        ["sqrt", "--n", "2", "--p", "5", "--K", "3", "--k0", "2",
         "--matrix", "[[26, 25], [0, 1]]"],
        ["mackey", "dump"],
        ["sqrt", "--n", "1", "--p", "3", "--K", "4", "--matrix", "[[2]]"],
    ]
    _build_parser.cache_clear()
    together = [_run_captured(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert together == fresh
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 0, 2]


def _stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _plain(obj):
    """obj with every CycMatrix replaced by the to_json of its CycNumber
    entries (the entrywise reduction, independent of the packed one), every
    ImageList by its dicts of elements and such matrices, and every ndarray
    by its tolist()."""
    if isinstance(obj, CycMatrix):
        return [[e.to_json() for e in row] for row in obj.rows]
    if isinstance(obj, ImageList):
        return [
            {
                "element": _plain(e),
                "matrix": [
                    [CycNumber(obj.N, entry, obj.den).to_json() for entry in row]
                    for row in num.tolist()
                ],
            }
            for e, num in zip(obj.elements, obj.num)
        ]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return obj


_ints = st.integers() | st.integers(-(2**200), 2**200)
_leaves = (
    st.none() | st.booleans() | _ints | st.floats()
    | st.text() | st.sampled_from(["", "\u00e9\n\t\"\\\x00\x7f", "\ud800", "\U0001f600"])
)
_number_keys = st.integers() | st.floats() | st.booleans()


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        # numbers compare with each other; None only with itself
        | st.dictionaries(_number_keys, children, max_size=5)
        | st.dictionaries(st.none(), children, max_size=1)
        # the int-list fast paths, and near misses that must take the slow one
        | st.lists(_ints, max_size=6)
        | st.lists(st.lists(_ints, min_size=1, max_size=4), max_size=4)
        | st.lists(st.lists(_ints | st.booleans(), max_size=3).map(tuple), max_size=4)
    )


@settings(max_examples=300, deadline=None)
@given(value=st.recursive(_leaves, _containers, max_leaves=40))
@example(value={1: [[1, 2], (3,)], 2.5: [], 3: {}})
@example(value=[[1, True], [2]])
@example(value=[[1], []])
@example(value={True: float("nan"), 0: float("-inf"), -(2**70): [2**70]})
def test_to_json_equals_stdlib_indent_1(value):
    assert _to_json(value) == _stdlib_json(value)


@st.composite
def _packed_matrices(draw):
    """Packed matrices of every storage case, 0 x c and r x 0 included."""
    n = draw(st.sampled_from([1, 4, 12, 20, 28]))
    phi = context(n).phi
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    # from 2^63 on, np.gcd against int64 numerators would overflow
    den = draw(
        st.sampled_from([1, 1, 60, 2**63, 2**64, 3 * 2**70]) | st.integers(1, 10**6)
    )
    value = draw(
        st.sampled_from(["small", "small", "int64", "object"]).map(
            {
                "small": st.integers(-12, 12),
                "int64": st.integers(-(2**63) + 1, 2**63 - 1),
                "object": st.integers(-(2**90), 2**90),
            }.get
        )
    )
    # an entry is all zero, a multiple of a factor of den, or arbitrary
    entry = (
        st.just([0] * phi)
        | st.builds(
            lambda f, xs: [f * x for x in xs],
            st.sampled_from([2, 3, 5, 2**40]),
            st.lists(value, min_size=phi, max_size=phi),
        )
        | st.lists(value, min_size=phi, max_size=phi)
    )
    entries = draw(st.lists(entry, min_size=r * c, max_size=r * c))
    num = np.array(entries, dtype=object).reshape(r, c, phi)
    return CycMatrix._packed(n, num, den)


def _nest(draw, value, depth: int):
    for _ in range(depth):
        value = draw(
            st.sampled_from(
                [{"m": value}, {"a": 0, "z": value}, [value], [1, value, None]]
            )
        )
    return value


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_to_json_writes_packed_matrices_as_stdlib(data):
    draw = data.draw
    mats = draw(st.lists(_packed_matrices(), min_size=1, max_size=3))
    m = mats[0]
    assert m.to_json() == _plain(m)
    assert _to_json(m) == _stdlib_json(_plain(m))
    # the first matrix at two different depths, then the others anywhere
    d1 = draw(st.integers(0, 2))
    d2 = draw(st.integers(d1 + 1, 3))
    payload = {
        "again": _nest(draw, m, d2),
        "first": _nest(draw, m, d1),
        "others": [_nest(draw, x, draw(st.integers(0, 3))) for x in mats[1:]],
    }
    assert _to_json(payload) == _stdlib_json(_plain(payload))


def test_packed_matrix_cases_reach_both_dtypes():
    # int64 numerators over a denominator of at least 2^63, and object ones
    big_den = CycMatrix._packed(12, np.array([[[1, 2, 3, 4]]], dtype=object), 2**64)
    big_num = CycMatrix._packed(12, np.array([[[2**80, 0, 0, 1]]], dtype=object), 6)
    assert big_den.num.dtype == np.int64 and big_den.den == 2**64
    assert big_num.num.dtype == object
    for m in (big_den, big_num):
        assert m.to_json() == _plain(m)
        assert _to_json([m, {"m": m}]) == _stdlib_json(_plain([m, {"m": m}]))
    # and both beside int64 ones over a small denominator, at one shape and depth
    ints = CycMatrix._packed(12, np.array([[[1, 2, 3, 4]]]), 6)
    assert ints.num.dtype == np.int64 and ints.den < 2**63
    for payload in ([ints, big_den], [big_num, ints], [ints, big_den, big_num, ints]):
        assert _to_json(payload) == _stdlib_json(_plain(payload))


# r x c with r, c >= 1, each case of the separators that follow an entry
# drawn as often: 1 x 1 (the matrix's end only), 1 x c (within a row and
# the end), r x 1 (between rows and the end) and r x c (all three)
_side = st.integers(2, 3)
_matrix_shapes = (
    st.just((1, 1))
    | st.tuples(st.just(1), _side)
    | st.tuples(_side, st.just(1))
    | st.tuples(_side, _side)
)


@st.composite
def _same_shape_matrices(draw):
    """Two to five r x c matrices over one Q(zeta_n), each stored its own
    way: int64 numerators over a denominator below 2^63 or of at least 2^63,
    or object numerators."""
    n = draw(st.sampled_from([4, 12, 28]))
    phi = context(n).phi
    r, c = draw(_matrix_shapes)
    mats = []
    for _ in range(draw(st.integers(2, 5))):
        storage = draw(st.sampled_from(["int64", "big_den", "object"]))
        value = st.integers(-12, 12) | st.integers(-(2**62), 2**62)
        if storage == "object":
            value = value | st.integers(-(2**90), 2**90)
        den = draw(
            st.integers(2**64, 2**64 + 6) if storage == "big_den"
            else st.sampled_from([1, 2, 3, 6, 7, 60])
        )
        entries = draw(st.lists(value, min_size=r * c * phi, max_size=r * c * phi))
        if storage == "object":
            entries[0] = 2**80
        num = np.array(entries, dtype=object).reshape(r, c, phi)
        mats.append(CycMatrix._packed(n, num, den))
    return mats


@settings(max_examples=200, deadline=None)
@given(mats=_same_shape_matrices(), layout=st.sampled_from(["list", "dicts", "keys"]))
def test_to_json_writes_same_shape_matrices_of_mixed_storage(mats, layout):
    # all at one depth, so they share one entry and one matrix template
    payload = {
        "list": mats,
        "dicts": [{"m": m} for m in mats],
        "keys": {f"m{i}": m for i, m in enumerate(mats)},
    }[layout]
    assert _to_json(payload) == _stdlib_json(_plain(payload))


def test_to_json_keys_entries_by_their_denominator():
    # the same reduced numerators [1, 0] over 2 and over 3: once in two
    # matrices of one shape, once in one matrix
    half = CycMatrix._packed(4, np.array([[[1, 0]]]), 2)
    third = CycMatrix._packed(4, np.array([[[1, 0]]]), 3)
    both = CycMatrix._packed(4, np.array([[[3, 0], [2, 0]]]), 6)
    for payload in ([half, third], [third, half], {"a": both}, [half, both, third]):
        assert _to_json(payload) == _stdlib_json(_plain(payload))
    assert _plain(half) != _plain(third)


def test_to_json_keeps_int64_entries_apart_that_floats_would_merge():
    # reduced numerators 2^60 and 2^60 + 1, which round to one float64,
    # beside a negative one: the entry keys must keep them apart
    big = 2**60
    one = CycMatrix._packed(4, np.array([[[big, -1], [big + 1, -1]]]), 1)
    apart = [
        CycMatrix._packed(4, np.array([[[big, -1]]]), 1),
        CycMatrix._packed(4, np.array([[[big + 1, -1]]]), 1),
    ]
    for payload in ([one], apart, [apart[1], one, apart[0]]):
        assert _to_json(payload) == _stdlib_json(_plain(payload))
    assert _plain(apart[0]) != _plain(apart[1])


@st.composite
def _image_lists(draw):
    """Image lists of every storage case: no images, r x 0 and 0 x c
    matrices, the shapes of ``_matrix_shapes``, int64 numerators over a
    denominator below 2^63 or of at least 2^63, and object (Python int)
    numerators."""
    n = draw(st.sampled_from([1, 4, 12, 28]))
    phi = context(n).phi
    m = draw(st.integers(0, 4))
    r, c = draw(
        _matrix_shapes
        | st.tuples(st.integers(0, 3), st.just(0))
        | st.tuples(st.just(0), st.integers(1, 3))
    )
    den = draw(st.sampled_from([1, 7, 60, 2**63, 3 * 2**70]) | st.integers(1, 10**6))
    value = draw(
        st.sampled_from(
            [
                st.integers(-7, 7),
                st.integers(-(2**63) + 1, 2**63 - 1),
                st.integers(-(2**90), 2**90),
            ]
        )
    )
    # entries repeat, and some share a factor with the denominator
    entry = st.lists(value, min_size=phi, max_size=phi) | st.just([0] * phi) | st.builds(
        lambda f, xs: [f * x for x in xs],
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(-3, 3), min_size=phi, max_size=phi),
    )
    entries = draw(st.lists(entry, min_size=m * r * c, max_size=m * r * c))
    num = np.array(entries, dtype=object).reshape(m, r, c, phi)
    if draw(st.booleans()) and all(abs(x) < 2**63 for x in num.flat):
        num = num.astype(np.int64)
    elements = draw(
        st.lists(st.recursive(_leaves, _containers, max_leaves=4), min_size=m, max_size=m)
    )
    return ImageList(elements, num, den, n)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_to_json_writes_image_lists_as_stdlib(data):
    if data is None:  # no images, and a stack of Python ints
        leaves = [
            ImageList([], np.zeros((0, 2, 2, 4), dtype=np.int64), 1, 12),
            ImageList([[1], {"z": 2}], np.array([[[[2**80, 0, 0, 1]]]] * 2), 6, 12),
        ]
        assert leaves[1].num.dtype == object
    else:
        leaves = data.draw(st.lists(_image_lists(), min_size=1, max_size=2))
    leaf = leaves[0]
    assert _plain(leaf.to_json()) == _plain(leaf)  # _plain makes tuples lists
    assert _to_json(leaf) == _stdlib_json(_plain(leaf))
    payload = {"images": leaf, "nested": [{"more": leaves[-1]}, leaf]}
    assert _to_json(payload) == _stdlib_json(_plain(payload))


def test_image_list_needs_one_element_per_matrix():
    with pytest.raises(ValueError, match="2 elements for 1 matrices"):
        ImageList([0, 1], np.zeros((1, 1, 1, 1), dtype=np.int64), 1, 1)


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@settings(max_examples=200, deadline=None)
@given(
    x=hnp.arrays(
        st.sampled_from([np.int8, np.uint8, np.int32, np.int64, np.uint64]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    )
)
@example(x=np.array([[_INT64_MIN, _INT64_MAX], [0, -1]]))
@example(x=np.array([[np.iinfo(np.uint64).max, 0]], dtype=np.uint64))
@example(x=np.array([[-128, 127]] * 128, dtype=np.int8))
@example(x=np.arange(16).reshape(4, 4) % 3)
@example(x=np.zeros((0, 3), dtype=np.int64))
@example(x=np.zeros((3, 0), dtype=np.int64))
@example(x=np.array([_INT64_MIN, _INT64_MAX]))
def test_to_json_writes_int_arrays_as_their_tolist(x):
    assert _to_json(x) == _stdlib_json(x.tolist())
    payload = {"table": x, "nested": [x, {"x": x}]}
    assert _to_json(payload) == _stdlib_json(_plain(payload))


@pytest.mark.parametrize(
    "x", [np.array([[True, False]]), np.array([[0.5, -1.0]]), np.array(3), np.zeros((2, 0, 2))]
)
def test_to_json_writes_other_arrays_as_their_tolist(x):
    assert _to_json(x) == _stdlib_json(x.tolist())


def test_emit_rejects_a_payload_before_writing(tmp_path, capsys):
    # the matrix comes first, so a streaming writer would have begun
    payload = {"a": CycMatrix._packed(4, np.array([[[1, 0]]]), 2), "b": object()}
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        cli._emit(payload, str(path))
    assert not path.exists()
    with pytest.raises(TypeError):
        cli._emit(payload, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "value", [{(1, 2): 0}, {1: 0, "a": 1}, {None: 0, 1: 1}, [{b"k": 0}], [object()]]
)
def test_to_json_rejects_what_stdlib_rejects(value):
    with pytest.raises(Exception) as stdlib:
        _stdlib_json(value)
    with pytest.raises(stdlib.type):
        _to_json(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["dump", "weil", "--p", "3"],
        ["dump", "reps", "--p", "3"],
        ["dump", "mackey", "--p", "3"],
        ["dump", "heisenberg", "--p", "3"],
        ["verify", "all", "--p", "3"],
    ],
)
def test_cli_prints_stdlib_indent_1(argv, monkeypatch):
    payloads = []
    emit = cli._emit

    def recording_emit(payload, out_path, fmt="json"):
        payloads.append(payload)
        return emit(payload, out_path, fmt)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    code, out, err = _run_captured(argv)
    assert code == 0, err
    assert len(payloads) == 1
    assert out == _stdlib_json(_plain(payloads[0])) + "\n"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["dump", "weil", "--p", "3", "--zeta", "3"], "zeta = 3 must be nonzero mod p"),
        (["dump", "reps", "--p", "5", "--zeta", "-10"], "zeta = -10 must be nonzero mod p"),
        (["verify", "sqrt", "--precision", "0"], "precision = 0 must be at least 1"),
        (["verify", "reps", "--ell", "2"], "reps suite runs at ell = 1 only"),
        (["verify", "all", "--p", "3", "--ell", "2"], "reps suite runs at ell = 1 only"),
        (["verify", "weil", "--p", "13"], "p <= 7 at ell = 1"),
        (["weil", "verify", "--p", "11"], "p <= 7 at ell = 1"),
        (["dump", "weil", "--p", "11"], "p <= 7 at ell = 1"),
        (["verify", "weil", "--p", "11"], "p <= 7 at ell = 1"),
        (["verify", "weil", "--p", "5", "--ell", "2"],
         "ell = 2 is supported only with p = 3"),
        (["dump", "weil", "--p", "3", "--ell", "2"], "plus model at ell = 2"),
        (["dump", "weil", "--p", "3", "--ell", "2", "--model", "plus", "--zeta", "0"],
         "zeta = 0 must be nonzero mod p"),
        (["verify", "mackey", "--p", str(10**18 + 1)],
         "p = 1000000000000000001 must be an odd prime"),
        (["verify", "mackey", "--p", str(PRIME_TEST_BOUND)],
         f"is not below {PRIME_TEST_BOUND}, the bound of the primality test"),
    ],
)
def test_guard_names_the_limit(argv, limit, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("guard: ") and limit in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "mackey", "--p", str(10**18 + 3)],
        ["sqrt", "--n", "1", "--p", str(10**18 + 3), "--K", "1", "--matrix", "[[1]]"],
    ],
    ids=["verify-mackey", "sqrt"],
)
def test_a_prime_near_10_18_passes_the_guards_within_two_seconds(argv, capsys):
    """p = 10^18 + 3 is prime; the primality guard answers at once, so the
    mackey suite (which reads no p) and a square root mod p both run."""
    start = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - start < 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sqrt", "--k0", "2"],
        ["dump", "mackey", "--format", "csv"],
        ["dump", "mackey", "--precision", "5"],
        ["dump", "mackey", "--samples", "5"],
        ["dump", "mackey", "--seed", "5"],
        ["dump", "weil", "--mode", "relations"],
        ["dump", "weil", "--mode", "plus"],  # no prefix match for --model
        ["verify", "weil", "--samples", "5"],
        ["verify", "weil", "--mode", "sampled"],
        ["dump", "heisenberg", "--model", "plus"],
        ["dump", "heisenberg", "--zeta", "2"],
        ["dump", "mackey", "--zeta", "0"],
        ["dump", "mackey", "--model", "minus"],
        ["heisenberg", "dump", "--model", "plus"],
        ["verify", "--suite", "sqrt"],
        ["verify", "heisenberg", "--suite", "sqrt"],
        ["verify", "weil", "--mode", "relations"],
        ["verify", "weil", "--mode", "exhaustive"],
    ],
)
def test_flags_nothing_reads_are_rejected(argv):
    assert run(argv) == 2


def test_verify_needs_a_suite(capsys):
    assert run(["verify", "--p", "3"]) == 2
    assert "required: suite" in capsys.readouterr().err


def _check_named(results, name):
    (found,) = [r for r in results if r.check == name]
    return found


@pytest.mark.parametrize("p", [3, 5])
def test_check_counts_are_the_identities_evaluated(p):
    from heisweil import heisenberg as heis
    from heisweil import mackey as mk
    from heisweil.reps import irreducibles_of_H
    from heisweil.groups import generators_within
    from heisweil.symplectic import (
        SymplecticSpace,
        enumerate_M,
        enumerate_sp,
        sp_index,
        sp_table,
    )

    space = SymplecticSpace(p, 1)
    group = heis.HeisenbergGroup(space)
    sp_order = len(enumerate_sp(space))
    assert (sp_order, group.order) == (p * (p * p - 1), p**3)
    irreps = len(irreducibles_of_H(group))
    alphas = len(heis.order_two_automorphisms_inverting_center(group))
    n, gens = group.order, len(group.generators)
    w_order = p**2  # |W|, the number of special isomorphisms

    counts = {c.check: c.checks for c in SUITES["heisenberg"](RunConfig(p=p))}
    # an edge (x, s) per element x of Sp(W) and generator s
    assert counts["symplectic.closure"] == sp_order * len(sp_table(space).generators)
    # an edge per element of M (of order p - 1) and generator of M; the image
    sp = sp_table(space)
    m_gens = generators_within(sp, sp.mask(sp_index(space, enumerate_M(space))))
    chi_m = counts["symplectic.chi_M_order_two_homomorphism"]
    assert chi_m == (p - 1) * len(m_gens) + 1
    # Light's test: (x s) y = x (s y) for x, y in H and s a generator
    assert counts["heisenberg.group_axioms"] == n * n * gens
    # [x, s] = (0, <w_x, w_s>) on the edges
    assert counts["heisenberg.commutator_equals_form"] == n * gens
    # per special isomorphism: the center, then an edge (x, s) per x and s
    assert counts["heisenberg.special_iso_axioms"] == w_order * (p + n * gens)
    assert counts["heisenberg.special_iso_equal_tests_agree"] == w_order**2
    # an identity per element of Sp(W), and per antisymplectic involution
    assert counts["symplectic.M_is_polarization_stabilizer"] == sp_order
    assert counts["symplectic.eigen_polarization_of_involutions"] == p * (p + 1)
    # the base map, the conjugated halves' map, then a size per special iso
    assert counts["heisenberg.split_polarization_roundtrips"] == 2 + w_order
    if p == 3:
        # every offset of H(3, 2), restricted: the center, then the edges
        assert counts["heisenberg.special_iso_restriction"] == 3**4 * (3 + n * gens)
    counts = {c.check: c.checks for c in SUITES["reps"](RunConfig(p=p))}
    # tau(1) = 1, and an edge (x, h) per generator x of H and element h
    assert counts["reps.heisenberg_rep_homomorphism"] == group.order * 2 + 1
    assert len(group.generators) == 2
    # every entry of tau~(h), a p x p matrix, for every h
    assert counts["reps.invariant_pairing"] == group.order * p**2
    assert counts["reps.gelfand_bound"] == irreps * alphas
    # the dimension list, and every entry of the Gram matrix
    assert counts["reps.irreducible_census"] == 1 + irreps**2
    counts = {c.check: c.checks for c in SUITES["weil"](RunConfig(p=p))}
    # omega(1) = 1 and an edge (x, s) per generator x of Sp(W), in each model
    assert counts["weil.homomorphism_exhaustive"] == 2 * sp_order + 1
    assert counts["weil.homomorphism_plus_model"] == 2 * sp_order + 1
    # every pair of a generator of Sp(W) and a generator of H
    assert counts["weil.intertwining"] == 2 * 2
    # every generator of Sp(W) and every generator of H
    contragredient = "weil.contragredient_of_lift_is_lift_of_contragredient"
    assert counts[contragredient] == len(sp_table(space).generators) + 2 == 4

    stab = _check_named(SUITES["mackey"](RunConfig(p=3)), "mackey.involution_stabilizer")
    groups = (mk.symmetric_group(3), mk.dihedral_group(4), mk.quaternion_group())
    assert stab.checks == sum(g.order for g in groups) == 22


def test_failing_identity_reports_its_first_input(tmp_path, monkeypatch, capsys):
    from heisweil import mackey as mk

    # configs[1] is the second kappa of the first test bed (S3, A3, theta0);
    # its Mackey sum, and every later configuration's, is off by one
    configs = standard_mackey_configurations()
    label, tg, k_members, kappa, theta = configs[1]
    h_members = tg.mask(fixed_subgroup(tg, theta))
    oracle_row = mk.induced_hom_dim_oracle(tg, k_members, h_members, kappa.dim)
    right = mk.summed_traces([kappa], [oracle_row])[0][0]
    intact = {id(configs[0][3])}

    real = mk.summed_traces
    calls = []

    def off_by_one_from_the_second_configuration(kappas, parts):
        # the suite sums the parts (oracle, Mackey, orbit multiplicity)
        calls.append(kappas)
        oracle, mackey, rhs = real(kappas, parts)
        return oracle, [v + (id(k) not in intact) for v, k in zip(mackey, kappas)], rhs

    monkeypatch.setattr(mk, "summed_traces", off_by_one_from_the_second_configuration)
    out = tmp_path / "report.json"
    assert run(["verify", "mackey", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["failures"] == [
        {
            "check": "mackey.double_coset_sum_equals_oracle",
            "witness": {"config": label, "mackey": right + 1, "oracle": right},
        }
    ]
    assert len(calls) > 2  # later failures are counted, not kept
    assert f"FAIL suite=mackey checks={report['checks']} failures=1" in (
        capsys.readouterr().err
    )


def test_automorphism_witness_is_the_printed_dict():
    """One row of each central sign, as a report prints it: s with its sign,
    then w0, then the sign."""
    from heisweil import heisenberg as heis
    from heisweil.symplectic import SymplecticSpace

    group = HeisenbergGroup(SymplecticSpace(3, 1))
    inverting = heis.order_two_automorphisms_inverting_center(group)
    trivial = heis.order_two_automorphisms_trivial_on_center(group)
    witness = cli._jsonable(inverting.witness(13))
    assert witness == {
        "s": {"matrix": [[1, 0], [2, 2]], "sign": -1},
        "w0": [0, 1],
        "sign": -1,
    }
    assert list(witness) == ["s", "w0", "sign"]
    assert cli._jsonable(trivial.witness(4)) == {
        "s": {"matrix": [[2, 0], [0, 2]], "sign": 1},
        "w0": [1, 1],
        "sign": 1,
    }


def test_special_iso_witness_is_the_printed_dict():
    """A failing special-isomorphism identity names its row by the
    automorphism witness of that row: s = 1 with its sign, w0, the sign."""
    from heisweil import heisenberg as heis
    from heisweil.checks import Check
    from heisweil.symplectic import SymplecticSpace

    group = HeisenbergGroup(SymplecticSpace(3, 1))
    isos = heis.special_isos(group)
    perms = isos.perm.copy()
    perms[5, 10] += 1 if perms[5, 10] % 3 < 2 else -2  # mu(h) + 1 at h = 10
    check = Check("heisenberg.special_iso_axioms")
    verdicts = heis.special_iso_axioms(group, perms, check, isos.witness)
    assert verdicts.tolist() == [i != 5 for i in range(9)]
    witness = cli._jsonable(check.witness)
    row = {"s": {"matrix": [[1, 0], [0, 1]], "sign": 1}, "w0": [1, 2], "sign": 1}
    assert witness["nu"] == row and list(witness) == ["nu", "a", "b"]
    assert cli._jsonable(isos.witness(5)) == row


def test_non_involutive_automorphism_is_the_first_witness(tmp_path, monkeypatch):
    """Two transvections slipped into the central-trivial family: the
    heisenberg suite still counts k (1 + p) identities, and reports the
    first transvection, which has no order two."""
    from heisweil import heisenberg as heis
    from heisweil.symplectic import SymplecticSpace

    real = heis.order_two_automorphisms_trivial_on_center

    def with_transvections(group):
        good = real(group)
        s = [*good.s[:2], [[1, 1], [0, 1]], *good.s[2:], [[1, 2], [0, 1]]]
        w0 = [*good.w0[:2], (0, 0), *good.w0[2:], (1, 0)]
        return heis.Automorphisms(group, s, w0, 1)

    monkeypatch.setattr(
        heis, "order_two_automorphisms_trivial_on_center", with_transvections
    )
    p = 3
    k = len(real(HeisenbergGroup(SymplecticSpace(p, 1)))) + 2
    results = SUITES["heisenberg"](RunConfig(p=p))
    check = _check_named(results, "heisenberg.order_two_trivial_center")
    assert check.checks == k * (1 + p)
    out = tmp_path / "report.json"
    assert run(["verify", "heisenberg", "--p", str(p), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"] == [
        {
            "check": "heisenberg.order_two_trivial_center",
            "witness": {
                "s": {"matrix": [[1, 1], [0, 1]], "sign": 1},
                "w0": [0, 0],
                "sign": 1,
            },
        }
    ]


def test_verify_writes_each_suites_wall_time_to_stderr_only():
    """One stderr line per suite ends in its wall time, which the report on
    stdout leaves out (its digests are pinned in test_acceptance.py)."""
    code, out, err = _run_captured(["verify", "all", "--p", "3"])
    lines = err.splitlines()
    assert code == 0 and "seconds" not in out
    assert [line.split()[1] for line in lines] == [
        f"suite={name}" for name in cli.SUITE_NAMES
    ]
    for line, report in zip(lines, json.loads(out)):
        assert re.fullmatch(
            rf"PASS suite={report['suite']} checks={report['checks']} failures=0 "
            r"seconds=\d+\.\d{4}",
            line,
        ), line


def _captured_parse(parse, argv):
    """("args", vars(namespace)) or ("exit", code) from parse(argv), then
    what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result + (out.getvalue(), err.getvalue())


def _assert_dispatch_matches_root_parser(argv):
    """cli parses argv as the root parser alone does: the same namespace,
    or the same exit with the same output; a rejected argv (or a help
    request) also gives run() the same output and the exit code run()
    maps the parser's to."""
    normal = cli._normalize_argv(argv)
    root = _captured_parse(_build_parser()[0].parse_args, normal)
    assert _captured_parse(cli._parse_args, normal) == root
    if root[0] == "exit":
        code = 0 if root[1] in (0, None) else 2
        assert _run_captured(argv) == (code, root[2], root[3])
    return root


_SQRT_ARGV = ["sqrt", "--n", "1", "--p", "3", "--K", "4", "--matrix", "[[4]]"]


@pytest.mark.parametrize(
    "argv, outcome",
    [
        ([], "exit"),
        (["-h"], "exit"),
        (["--help"], "exit"),
        (["frobnicate"], "exit"),  # an unknown verb
        (["sq"], "exit"),  # verbs are not abbreviated
        (["verify"], "exit"),  # a verb without its suite
        (["dump"], "exit"),
        (["dump", "-h"], "exit"),
        (["sqrt", "-h"], "exit"),
        (_SQRT_ARGV + ["extra"], "exit"),
        (_SQRT_ARGV + ["--bogus", "1"], "exit"),
        (["dump", "weil", "--p", "3", "extra"], "exit"),
        (["dump", "weil", "extra", "--zeta", "2"], "exit"),
        (["weil", "dump", "--p", "x"], "exit"),  # a bad int
        (["verify", "sqrt", "--precision", "four"], "exit"),
        (["verify", "weil", "--pre", "4"], "exit"),  # abbreviations are rejected
        (["dump", "weil", "--mode", "plus"], "exit"),
        (["sqrt", "--n", "1"], "exit"),  # missing required flags
        (["--p", "3", "verify", "sqrt"], "exit"),  # a flag before the verb
        (["dump", "frob"], "exit"),
        (["verify", "all", "--", "x"], "exit"),
        (["sqrt", "--", "--n", "1"], "exit"),
        (["verify", "all", "--p", "5"], "args"),
        (["mackey", "dump"], "args"),
        (["weil", "verify", "--ell", "2", "--format", "csv"], "args"),
        (["dump", "reps", "--zeta=2", "--model", "plus"], "args"),
        (_SQRT_ARGV + ["--k0", "1", "--out", "-"], "args"),
    ],
)
def test_dispatch_matches_the_root_parser(argv, outcome):
    assert _assert_dispatch_matches_root_parser(argv)[0] == outcome


_ARGV_TOKENS = (
    ["verify", "dump", "sqrt", "weil", "heisenberg", "reps", "mackey", "sqrt", "all"]
    + ["--p", "--ell", "--out", "--precision", "--seed", "--format", "--zeta"]
    + ["--model", "--n", "--K", "--k0", "--matrix", "--pre", "--mode", "--he"]
    + ["--help", "-h", "--", "-p", "--p=5", "--zeta=0"]
    + ["3", "-1", "0", "7", "x", "json", "csv", "plus", "minus", "[[4]]", ""]
    + ["frobnicate", "dum", "VERIFY", "-x", "---", "-"]
)
_LEADING_TOKENS = ["verify", "dump", "sqrt", "weil", "mackey", "sqrt", "all", "-h", "x"]


@settings(max_examples=400, deadline=None)
@given(
    head=st.lists(st.sampled_from(_LEADING_TOKENS), max_size=2),
    tail=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8),
)
@example(head=["sqrt"], tail=["--n", "1", "--p", "3", "--K", "4", "--matrix", "[[4]]"])
@example(head=["weil", "dump"], tail=["--zeta", "2", "x"])
def test_dispatch_matches_the_root_parser_on_drawn_argv(head, tail):
    _assert_dispatch_matches_root_parser(head + tail)


def test_a_known_verb_skips_the_root_parser(monkeypatch):
    parser, _ = _build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the root parser saw a known verb")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert _run_captured(_SQRT_ARGV)[0] == 0
    assert _run_captured(_SQRT_ARGV + ["extra"])[0] == 2
    with pytest.raises(AssertionError, match="root parser"):
        run(["frobnicate"])
