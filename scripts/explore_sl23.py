#!/usr/bin/env python3
"""Print the explicit p = 3 model: the character alpha, the 2-dimensional
beta, and the Weil lift in odd/even coordinates, together with the
Fourier-convention note.

    python3 scripts/explore_sl23.py
"""

from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import CycMatrix, trace_table
from heisweil.reps import heisenberg_rep
from heisweil.symplectic import SymplecticSpace, n_element, sp_index, weyl_element
from heisweil.weil import lift_in_odd_even_basis, sl23_reference, sp_table, weil_lift


def fmt(m: CycMatrix) -> str:
    return "[" + "; ".join(
        ", ".join(f"{e.to_complex():.3f}".replace("j", "i") for e in row)
        for row in m.rows
    ) + "]"


def main() -> None:
    tau = heisenberg_rep(HeisenbergGroup(SymplecticSpace(3, 1)), 1, model="minus")
    ref = sl23_reference(weil_lift(tau))
    alpha, beta, lift = ref.alpha, ref.beta, ref.lift
    space = lift.space
    tg = sp_table(space)
    jel = int(sp_index(space, weyl_element(space)))
    n1 = int(sp_index(space, n_element(space, [[1]])))

    print("normalization scalar c =", lift.normalization, "=", f"{lift.normalization.to_complex():.4f}")
    print("reading of the printed beta(j) that assembles into a homomorphism:",
          ref.displayed_j_reading)
    print()
    print("printed matrix  [[i/sqrt3, 2i/sqrt3], [i/sqrt3, -i/sqrt3]]:")
    print("   ", fmt(ref.beta_j_displayed))
    m = lift_in_odd_even_basis(ref, tg.inv(jel))
    even = CycMatrix(12, [[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
    print("even block of the lift at the inverse Weyl element:")
    print("   ", fmt(even))
    print()
    print("character table on SL(2,3) (trace of the lift = alpha + tr beta):")
    traces = trace_table(lift.base.conductor, (lift.num[ref.translate], lift.den))
    seen = set()
    for s in range(tg.order):
        tr = traces[0, s]
        if tr in seen:
            continue
        seen.add(tr)
        print(
            f"  element {tg.matrices[s].tolist()}  trace {tr.to_complex():.3f}"
            f"  alpha {alpha.image(s)[0, 0].to_complex():.3f}"
            f"  tr beta {beta.image(s).trace().to_complex():.3f}"
        )
    print()
    print("generator operators (odd/even basis):")
    for name, el in (("n(1)", n1), ("j", jel), ("j^-1", tg.inv(jel))):
        print(f"  {name}:", fmt(lift_in_odd_even_basis(ref, el)))


if __name__ == "__main__":
    main()
