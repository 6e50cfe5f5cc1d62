"""Patterson-Sullivan measures from scratch, on the tree and the
modular surface.

Builds the orbital measures nu_{p,s}, pushes them to boundary
partitions, takes the limit s -> h, and then exercises the three classic
properties: conformal scaling between base points, the shadow lemma,
and invariance of the pair measure under the group.
"""

import math
from fractions import Fraction

from hyplab import measures, words
from hyplab.geometry import PLANE, TREE


def main():
    h = math.log(3)

    print("== tree Poincare series ==")
    for s in (h + 0.5, h + 0.1):
        partial, tail = measures.poincare_series(TREE, s, cap=30)
        closed = measures.tree_series_closed_form(s)
        print(f"  s = {s:.4f}: partial = {partial:.8f}, "
              f"closed form = {closed:.8f}, tail <= {tail:.2e}")
    print("  (diverges at s = log 3: that divergence IS the entropy)")

    print("\n== cylinder masses are exact rationals ==")
    for cell in ("a", "ab", "abA"):
        nu = words.cylinder_measure(cell)
        print(f"  nu(cyl {cell!r}) = {nu}")
    part = measures.tree_partition(2)
    masses, err, kind = measures.limit_cell_masses(TREE, "", part)
    same = all(m == words.cylinder_measure(c)
               for c, m in zip(part.cells, masses))
    print(f"  the s->h limit on the {len(part)} depth-2 cylinders equals "
          f"them: {same} (error {err}, {kind})")

    print("\n== conformal scaling ==")
    print("  moving the base point reweights cells by e^(-h b_p(q, xi)):")
    defect = measures.conformal_check(TREE, "", "ab",
                                      measures.tree_partition(3))
    print(f"  tree defect (exact arithmetic) = {defect}")
    defect = measures.conformal_check(PLANE, 2j, 1 + 1j,
                                      measures.plane_partition(128))
    print(f"  modular defect at 128 arcs = {defect:.4f}")

    print("\n== shadow lemma ==")
    print("  mass(shadow of B(x, rho)) ~ e^(-h d(p, x)):")
    for n in (2, 4, 6, 8):
        mass, ratio = measures.shadow_mass_bounds(TREE, "", "a" * n, 0.5)
        print(f"  x = a^{n}: mass = {float(mass):.3e}, "
              f"mass * e^(h d) = {float(ratio):.6f}")

    print("\n== pair-measure invariance ==")
    pm = measures.pair_measure(TREE, "", measures.tree_partition(2))
    for g in ("a", "b"):
        d = measures.pair_invariance_check(pm, g)
        print(f"  tree generator {g!r}: defect = {d}")
    pmp = measures.pair_measure(PLANE, 2j, measures.plane_partition(64))
    d = measures.pair_invariance_check(pmp, (1, 1, 0, 1))
    print(f"  modular translation: defect = {d:.4f} (finite-cap estimate)")
    print("  (the invariant pair measure is the input to the Bowen-")
    print("   Margulis construction of the measure of maximal entropy)")


if __name__ == "__main__":
    main()
