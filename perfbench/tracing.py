"""Traced runs: wrappers around heisweil's public callables.

The wrappers live in the benchmark, not in the program.  Each listed
callable is replaced in its defining module (or class) and in every
heisweil module that bound the same object with ``from ... import``.

Hot leaf callables are aggregated per (callable, parent): call count,
inclusive time and self time.  Coarse callables also keep one span each,
with the span that caused it and the operation it belongs to.  Self time
is a call's duration minus the durations of the wrapped calls directly
inside it.  Inclusive time counts only the outermost call of a callable,
so recursion is not counted twice.  Everything is written at exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, coarse).  Several targets may share
# one prefix; their numbers are summed.
TARGETS = (
    ("scalar.CycNumber.mul", "heisweil.scalar", "CycNumber.__mul__", False),
    ("scalar.CycNumber.add", "heisweil.scalar", "CycNumber.__add__", False),
    ("scalar.CycNumber.inverse", "heisweil.scalar", "CycNumber.inverse", False),
    ("linalg.CycMatrix.matmul", "heisweil.linalg", "CycMatrix.__matmul__", False),
    ("linalg.CycMatrix.inverse", "heisweil.linalg", "CycMatrix.inverse", False),
    ("linalg.CycMatrix.to_json", "heisweil.linalg", "CycMatrix.to_json", False),
    ("linalg.elimination", "heisweil.linalg", "nullspace", False),
    ("linalg.elimination", "heisweil.linalg", "row_space_rank", False),
    ("linalg.elimination", "heisweil.linalg", "same_row_space", False),
    ("linalg.verify_multiplication_table", "heisweil.linalg", "verify_multiplication_table", True),
    ("linalg.batch_from_matrices", "heisweil.linalg", "batch_from_matrices", True),
    ("symplectic.SymplecticSpace.pair", "heisweil.symplectic", "SymplecticSpace.pair", False),
    ("symplectic.SpElement.apply", "heisweil.symplectic", "SpElement.apply", False),
    ("symplectic.SpElement.mul", "heisweil.symplectic", "SpElement.__mul__", False),
    ("symplectic.SpElement.inverse", "heisweil.symplectic", "SpElement.inverse", False),
    ("symplectic.is_symplectic", "heisweil.symplectic", "is_symplectic", False),
    ("symplectic.enumerate_sp", "heisweil.symplectic", "enumerate_sp", True),
    ("heisenberg.HeisenbergGroup.mul", "heisweil.heisenberg", "HeisenbergGroup.mul", False),
    ("heisenberg.HeisenbergGroup.subgroup_generated", "heisweil.heisenberg",
     "HeisenbergGroup.subgroup_generated", False),
    ("heisenberg.HeisenbergGroup.all_subgroups", "heisweil.heisenberg",
     "HeisenbergGroup.all_subgroups", True),
    ("heisenberg.HeisenbergAutomorphism.fixed_points", "heisweil.heisenberg",
     "HeisenbergAutomorphism.fixed_points", False),
    ("heisenberg.SpecialIso.check_axioms", "heisweil.heisenberg", "SpecialIso.check_axioms", False),
    ("heisenberg.special_iso_equal_tests", "heisweil.heisenberg", "special_iso_equal_tests", False),
    ("heisenberg.order_two_automorphisms_trivial_on_center", "heisweil.heisenberg",
     "order_two_automorphisms_trivial_on_center", True),
    ("heisenberg.order_two_automorphisms_inverting_center", "heisweil.heisenberg",
     "order_two_automorphisms_inverting_center", True),
    ("reps.heisenberg_rep", "heisweil.reps", "heisenberg_rep", False),
    ("reps.hom_dim", "heisweil.reps", "hom_dim", False),
    ("reps.fixed_forms", "heisweil.reps", "fixed_forms", False),
    ("reps.rep_equivalent", "heisweil.reps", "rep_equivalent", False),
    ("reps.irreducibles_of_H", "heisweil.reps", "irreducibles_of_H", True),
    ("weil.weil_lift", "heisweil.weil", "weil_lift", True),
    ("weil.sp_table", "heisweil.weil", "sp_table", True),
    ("weil.verify_homomorphism", "heisweil.weil", "verify_homomorphism", True),
    ("weil.sp_abelianization_order", "heisweil.weil", "sp_abelianization_order", True),
    ("weil.verify_intertwining", "heisweil.weil", "verify_intertwining", True),
    ("weil.sl23_reference", "heisweil.weil", "sl23_reference", True),
    ("mackey.induced_hom_dim_oracle", "heisweil.mackey", "induced_hom_dim_oracle", False),
    ("mackey.mackey_hom_dim", "heisweil.mackey", "mackey_hom_dim", False),
    ("mackey.involution_orbits", "heisweil.mackey", "involution_orbits", True),
    ("mackey.all_involutive_automorphisms", "heisweil.mackey", "all_involutive_automorphisms", True),
    ("mackey.table_group_from_mul", "heisweil.mackey", "table_group_from_mul", True),
    ("prounipotent.sqrt_with_trace", "heisweil.prounipotent", "sqrt_with_trace", False),
    ("prounipotent.CongruenceGroup.inv", "heisweil.prounipotent", "CongruenceGroup.inv", False),
    ("prounipotent.CongruenceGroup.mul", "heisweil.prounipotent", "CongruenceGroup.mul", False),
    ("prounipotent.alpha_factor", "heisweil.prounipotent", "alpha_factor", False),
    ("prounipotent.h1_alpha_trivial", "heisweil.prounipotent", "h1_alpha_trivial", True),
    ("cli.run", "heisweil.cli", "run", True),
    ("cli.emit", "heisweil.cli", "_emit", True),
)
SUITES_MODULE = "heisweil.suites"


def _kernel_counts(args) -> dict:
    """Computed work of one verify_multiplication_table call, from shapes.

    num has shape (m, d, d, phi).  Per row s the kernel contracts a (d, d, phi)
    left factor with the (phi, phi, phi) product tensor, then the (d, d,
    phi, phi) operator with all m matrices.  Bytes are the int64 operands and
    results of both einsums plus the gathered, scaled and compared expected
    side; cache reuse is ignored.
    """
    m, d, _, phi = args[0].shape
    mac_row = d * d * phi**3 + m * d**3 * phi**2
    bytes_row = 8 * (d * d * phi + phi**3 + 2 * d * d * phi**2 + 6 * m * d * d * phi)
    return {"pairs": m * m, "mac": m * mac_row, "bytes": m * bytes_row}


def _rebind(owners, fn, wrapper) -> int:
    """Point every attribute of the owners that is fn at wrapper."""
    count = 0
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, attr, wrapper)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.stack = [[0.0, 0, "<root>"]]  # frames: [child time, span id, name]
        self.depth: dict[str, int] = defaultdict(int)
        # (name, parent name) -> [calls, inclusive s (outermost), self s, raised]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.kernel = defaultdict(int)
        self.op = -1
        self.missing: list[str] = []
        self.sites: dict[str, int] = defaultdict(int)
        self.suite_names: list[str] = []
        self.t0 = time.perf_counter()

    def wrap(self, name, fn, coarse: bool, name_of=None):
        stack, depth, agg, spans = self.stack, self.depth, self.agg, self.spans
        clock = time.perf_counter
        tracer = self
        is_kernel = name == "linalg.verify_multiplication_table"

        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            parent = stack[-1]
            span_id = len(spans) + 1 if coarse else parent[1]
            if coarse:
                spans.append(None)  # reserve the id; filled in below
            frame = [0.0, span_id, label]
            stack.append(frame)
            d = depth[label]
            depth[label] = d + 1
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                depth[label] = d
                parent[0] += dur
                rec = agg[(label, parent[2])]
                rec[0] += 1
                if d == 0:
                    rec[1] += dur
                rec[2] += dur - frame[0]
                rec[3] += raised
                if coarse:
                    spans[span_id - 1] = (
                        span_id, parent[1], tracer.op, label,
                        start - tracer.t0, end - tracer.t0,
                    )
                if is_kernel and not raised:
                    for key, value in _kernel_counts(args).items():
                        tracer.kernel[key] += value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target; import all heisweil modules first."""
        import heisweil.cli  # noqa: F401  (pulls in every module)
        import heisweil.suites as suites

        modules = [m for n, m in sys.modules.items() if n.startswith("heisweil") and m]
        for name, modname, path, coarse in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            # a method is rebound in its class (aliases such as __rmul__ too),
            # a function in every module that holds it
            owners = [owner] if isinstance(owner, type) else modules
            self.sites[name] += _rebind(owners, fn, self.wrap(name, fn, coarse))

        # suites: one label per (suite, p), in the modules and the SUITES table
        self.suite_names = list(suites.SUITES)
        for suite, fn in list(suites.SUITES.items()):
            wrapper = self.wrap(
                f"suites.{suite}", fn, True,
                name_of=lambda args, s=suite: f"suites.{s}.p{args[0].p}",
            )
            suites.SUITES[suite] = wrapper
            self.sites[f"suites.{suite}"] += 1 + _rebind(modules, fn, wrapper)

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive s, self s, raised], summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (name, _parent), rec in self.agg.items():
            tot = out[name]
            for i in range(4):
                tot[i] += rec[i]
        return out

    def metrics(self, emitted_bytes: int, primes, passes: int) -> dict[str, float]:
        """Every per-layer value the benchmark can name, by metric name.

        Counts, times and bytes are per pass, so that they do not depend on
        how many passes fitted in the run; the two ratios are not divided.
        """
        out: dict[str, float] = {
            f"suites.{suite}.p{p}.s": 0.0 for suite in self.suite_names for p in primes
        }
        tot = self.totals()
        prefixes = {t[0] for t in TARGETS}
        for prefix in prefixes:
            calls, incl, self_s, raised = tot.get(prefix, [0, 0.0, 0.0, 0])
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.s"] = incl
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.failed"] = raised
        for name, rec in tot.items():
            if name.startswith("suites."):
                out[f"{name}.s"] = rec[1]
        kernel_s = out["linalg.verify_multiplication_table.s"]
        for key in ("pairs", "mac", "bytes"):
            out[f"linalg.verify_multiplication_table.{key}"] = self.kernel[key]
        out["linalg.verify_multiplication_table.mac_per_s"] = (
            self.kernel["mac"] / kernel_s if kernel_s else 0.0
        )
        sp_mul = out["symplectic.SpElement.mul.calls"]
        out["symplectic.validation_ratio"] = (
            out["symplectic.is_symplectic.calls"] / sp_mul if sp_mul else 0.0
        )
        out["prounipotent.sqrt_with_trace.steps"] = sum(
            rec[0]
            for (name, parent), rec in self.agg.items()
            if name == "prounipotent.CongruenceGroup.inv"
            and parent == "prounipotent.sqrt_with_trace"
        )
        out["cli.emit_bytes"] = emitted_bytes
        ratios = ("linalg.verify_multiplication_table.mac_per_s", "symplectic.validation_ratio")
        return {k: v if k in ratios else v / passes for k, v in out.items()}

    def dump(self) -> dict:
        """The whole trace, for the trace file."""
        return {
            "missing_targets": self.missing,
            "patched_sites": dict(self.sites),
            "by_parent": [
                {"name": n, "parent": p, "calls": r[0], "s": r[1], "self_s": r[2], "raised": r[3]}
                for (n, p), r in sorted(self.agg.items())
            ],
            "spans": [
                dict(zip(("id", "parent", "op", "name", "start", "end"), s))
                for s in self.spans
                if s is not None
            ],
            "kernel_computed": dict(self.kernel),
        }
