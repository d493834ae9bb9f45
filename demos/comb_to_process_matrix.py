"""From a causally ordered comb to its process matrix and back.

Builds a random two-slot comb, purifies it, assembles the process matrix by
slot tomography, and checks that contracting the matrix with the channels'
Choi operators (the Born rule) reproduces the direct slot-by-slot
evaluation.  Ends with the entropic witness of the comb's own order, which
must respect the dimension bound.
"""
import argparse

import numpy as np

from qcausal import (
    VON_NEUMANN,
    as_fixed_order,
    comb_apply,
    dp_witness,
    interventional_state,
    process_matrix_of,
    purify_comb,
    random_channel,
    sample_fixed_order_comb,
)


def choi(channel):
    """Choi operator ``sum_t |K_t>><<K_t|`` as ``J[in, out, in', out']``."""
    k = channel.kraus
    return np.einsum("tai,tbj->iajb", k, k.conj())


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--order", choices=("AB", "BA"), default="AB")
    args = p.parse_args()

    comb = sample_fixed_order_comb(args.seed, order=args.order)
    dims = {l: comb.dims[l] for l in ("A0", "A1", "B0", "B1", "F")}
    print(f"comb order {comb.order}, slot dims {dims}")

    a = random_channel([("A0", dims["A0"])], [("A1", dims["A1"])],
                       kraus_rank=2, seed=args.seed + 1)
    b = random_channel([("B0", dims["B0"])], [("B1", dims["B1"])],
                       kraus_rank=2, seed=args.seed + 2)

    direct = comb_apply(comb, a, b)
    print(f"direct evaluation: output trace {direct.matrix.trace().real:.6f}")

    pc = purify_comb(comb)
    again = comb_apply(as_fixed_order(pc), a, b)
    print(f"purified round trip: max dev {np.abs(direct.matrix - again.matrix).max():.2e}")

    w = process_matrix_of(comb)
    # Born rule: rho_F = Tr_{A0 A1 B0 B1}[W (J_a ⊗ J_b)^T]
    via_w = np.einsum("ijklfpqrsg,ijpq,klrs->fg", w.tensor(), choi(a), choi(b))
    print(f"process-matrix contraction: max dev "
          f"{np.abs(direct.matrix - via_w).max():.2e}")
    print(f"trace of W = {w.matrix.trace().real:.3f} "
          f"(= dim A1 * dim B1 = {dims['A1'] * dims['B1']})")

    tau = interventional_state(pc)
    value, bound = dp_witness(tau, comb.order, VON_NEUMANN)
    print(f"\nDP witness along the comb's own order {comb.order}: "
          f"{value:+.6f} >= bound {bound:+.6f}  "
          f"({'ok' if value >= bound - 1e-9 else 'VIOLATED'})")
    other = "BA" if comb.order == "AB" else "AB"
    v2, b2 = dp_witness(tau, other, VON_NEUMANN)
    print(f"witness against the other order {other}:  {v2:+.6f} vs bound {b2:+.6f} "
          "(may go either way for a fixed-order process)")


if __name__ == "__main__":
    main()
