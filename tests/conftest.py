"""Harness that several test files share, each concern written once: the
environment of a child interpreter on this source tree, the traced
allocation peak of a call, and a purified comb of given slot dimensions."""
import os
import tracemalloc
from pathlib import Path

import numpy as np

from qcausal import PureState, PurifiedComb, haar_unitary, random_pure

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """This process's environment with this tree's ``src`` first on
    ``PYTHONPATH``, so that a child interpreter imports this qcausal."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def traced_peak(f) -> int:
    """Traced allocation peak of ``f()``, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def purified_comb_of_shape(order, shape, seed, q0=2) -> PurifiedComb:
    """Random purified comb with slot dimensions ``(first0, first1, second0,
    second1, F) = shape``, its psi, u1 and u2 drawn in the order
    ``sample_purified_comb`` draws them."""
    first, second = order
    rng = np.random.default_rng(seed)
    d = dict(zip((f"{first}0", f"{first}1", f"{second}0", f"{second}1", "F"), shape))
    d["Q0"] = q0
    d["Q1"] = d[f"{first}1"] * q0 // d[f"{second}0"]
    d["Q2"] = d[f"{second}1"] * d["Q1"] // d["F"]
    psi = PureState(random_pure(d[f"{first}0"] * q0, rng),
                    [(f"{first}0", d[f"{first}0"]), ("Q0", q0)])
    u1 = haar_unitary(d[f"{first}1"] * q0, rng)
    u2 = haar_unitary(d[f"{second}1"] * d["Q1"], rng)
    return PurifiedComb(order, psi, u1, u2, d)
