"""Operation lists of the three benchmark workloads, made from a seed.

Every operation is the argv of one ``heisweil.cli.run`` call.  The program
sees only that argv; the benchmark seed picks the inputs.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

# verify-sweep: the suites run at each p, in this order, in one process.
# p = 3 is the full `verify all`; p = 5 repeats the two p-independent suites;
# p = 7 keeps its heaviest suite.  The full sweep does not fit the run budget
# (README.md, "verify-sweep").
VERIFY_PLAN = (
    (3, ("all",)),
    (5, ("mackey", "sqrt")),
    (7, ("weil",)),
)
VERIFY_PRIMES = tuple(p for p, _ in VERIFY_PLAN)
SUITES_OF_ALL = ("heisenberg", "reps", "weil", "mackey", "sqrt")

# sqrt-stream request mix.  Every pass holds each (p, n, k0) the same number
# of times, with K spread evenly over the lower band, so that passes of two
# seeds cost about the same; the seed picks the matrices, the upper-band K
# and the order.
SQRT_PRIMES = (3, 5, 7, 11, 13)
SQRT_N = (1, 2, 3, 4)
SQRT_K0 = (1, 2)
SQRT_LOW_MAX_BITS = 30  # lower band: p^K <= 2^30
SQRT_HIGH_BITS = (32, 96)  # upper band: 2^32 <= p^K <= 2^96
SQRT_LOW_PER_COMBO = 4  # lower-band requests per (p, n, k0) and pass
SQRT_HIGH_PER_COMBO = 1  # upper-band requests per (p, n, k0) and pass

# dump-stream: every (model, zeta) at p = 3 and 5, one seeded zeta at p = 7.
DUMP_FULL_PRIMES = (3, 5)
DUMP_P7_ZETAS = 1
MODELS = ("plus", "minus")


@dataclass
class Op:
    """One cli.run call and what its output is checked against."""

    argv: list[str]
    kind: str  # verify | sqrt | dump
    p: int
    suites: tuple[str, ...] = ()  # verify: suites the call runs
    key: str = ""  # dump: pinned-digest key
    request: dict = field(default_factory=dict)  # sqrt: the input, as ints
    upper: bool = False  # sqrt: modulus in the upper band


def verify_ops(seed: int) -> list[Op]:
    ops = []
    for p, names in VERIFY_PLAN:
        for name in names:
            ops.append(
                Op(
                    argv=["verify", name, "--p", str(p), "--ell", "1", "--seed", str(seed)],
                    kind="verify",
                    p=p,
                    suites=SUITES_OF_ALL if name == "all" else (name,),
                )
            )
    return ops


def _k_range(p: int, lo_bits: int | None, hi_bits: int) -> tuple[int, int]:
    """Smallest and largest K with 2^lo_bits <= p^K <= 2^hi_bits."""
    k_lo = 1
    if lo_bits is not None:
        while p**k_lo < 2**lo_bits:
            k_lo += 1
    k_hi = k_lo
    while p ** (k_hi + 1) <= 2**hi_bits:
        k_hi += 1
    return k_lo, k_hi


def sqrt_request(rng: random.Random, p: int, n: int, k0: int, K: int) -> dict:
    """A random element of 1 + p^k0 M_n(Z/p^K), as Python ints."""
    mod, scale = p**K, p**k0
    matrix = [
        [((i == j) + scale * rng.randrange(mod // scale)) % mod for j in range(n)]
        for i in range(n)
    ]
    return {"n": n, "p": p, "K": K, "k0": k0, "matrix": matrix}


def sqrt_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    plan = []
    for p, n, k0 in itertools.product(SQRT_PRIMES, SQRT_N, SQRT_K0):
        k_lo, k_hi = _k_range(p, None, SQRT_LOW_MAX_BITS)
        k_lo = max(k_lo, k0 + 1)
        last = SQRT_LOW_PER_COMBO - 1
        for j in range(SQRT_LOW_PER_COMBO):
            plan.append((p, n, k0, k_lo + round((k_hi - k_lo) * j / last), False))
        for _ in range(SQRT_HIGH_PER_COMBO):
            plan.append((p, n, k0, rng.randint(*_k_range(p, *SQRT_HIGH_BITS)), True))
    rng.shuffle(plan)
    ops = []
    for p, n, k0, K, upper in plan:
        req = sqrt_request(rng, p, n, k0, K)
        argv = [
            "sqrt", "--n", str(n), "--p", str(p), "--K", str(K),
            "--k0", str(k0), "--matrix", json.dumps(req["matrix"]),
        ]
        ops.append(Op(argv=argv, kind="sqrt", p=p, request=req, upper=upper))
    return ops


def dump_key(what: str, p: int, model: str = "", zeta: int = 0) -> str:
    return f"{what}/p{p}/{model}/{zeta}" if what == "weil" else f"{what}/p{p}"


def dump_weil_op(p: int, model: str, zeta: int) -> Op:
    argv = ["dump", "weil", "--p", str(p), "--zeta", str(zeta), "--model", model]
    return Op(argv=argv, kind="dump", p=p, key=dump_key("weil", p, model, zeta))


def dump_other_op(what: str, p: int) -> Op:
    return Op(argv=["dump", what, "--p", str(p)], kind="dump", p=p, key=dump_key(what, p))


def all_dump_ops() -> list[Op]:
    """Every dump any seed can ask for: the set of pinned digests."""
    ops = [
        dump_weil_op(p, model, zeta)
        for p in DUMP_FULL_PRIMES + (7,)
        for model in MODELS
        for zeta in range(1, p)
    ]
    return ops + [dump_other_op("reps", 7), dump_other_op("mackey", 7)]


def dump_ops(seed: int) -> list[Op]:
    zetas = {str(z) for z in random.Random(seed).sample(range(1, 7), DUMP_P7_ZETAS)}
    return [
        op for op in all_dump_ops()
        if op.argv[1] != "weil" or op.p in DUMP_FULL_PRIMES or op.argv[5] in zetas
    ]


# Fewest passes per run.  A verify-sweep pass is longer than any run can
# afford to repeat; the dump list runs twice, so that each dump's time is the
# median of two.  A sqrt-stream pass takes 0.2-0.45 s; 40 passes give each
# request 40 timings, so that its median does not rest on a moment of the
# machine, and one run of every workload together stays under two minutes
# (README.md, "verify-sweep").
MIN_PASSES = {"verify-sweep": 1, "sqrt-stream": 40, "dump-stream": 2}

WORKLOADS = {
    "verify-sweep": verify_ops,
    "sqrt-stream": sqrt_ops,
    "dump-stream": dump_ops,
}


def mix_parameters(workload: str) -> dict:
    """The request-mix constants of a workload, for the result record."""
    if workload == "verify-sweep":
        return {"plan": [[p, list(names)] for p, names in VERIFY_PLAN], "ell": 1}
    if workload == "sqrt-stream":
        return {
            "primes": list(SQRT_PRIMES),
            "n": list(SQRT_N),
            "k0": list(SQRT_K0),
            "low_band_max_bits": SQRT_LOW_MAX_BITS,
            "high_band_bits": list(SQRT_HIGH_BITS),
            "low_per_combo": SQRT_LOW_PER_COMBO,
            "high_per_combo": SQRT_HIGH_PER_COMBO,
        }
    return {
        "full_primes": list(DUMP_FULL_PRIMES),
        "models": list(MODELS),
        "p7_zetas": DUMP_P7_ZETAS,
        "extra": ["reps/p7", "mackey/p7"],
    }
