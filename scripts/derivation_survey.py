#!/usr/bin/env python3
"""Survey derivation algebras over the standard battery of gluings.

For each (n, m, r, B) this prints the brute-force kernel dimension next to
the closed-form count and the torus/nilpotent split, flagging any gluing
where the two disagree."""
import time

from qfla.builder import build_quasi, make_spec
from qfla.derivations import der_dimension, derivation_oracle, nilpotent_basis, torus_basis

BATTERY = [
    make_spec(5, 1, 1),
    make_spec(5, 2, 1, [["1"]]),
    make_spec(5, 3, 1, [["1", "1"]]),
    make_spec(5, 3, 2, [["1"], ["0"]]),
    make_spec(5, 3, 2, [["1"], ["1"]]),
    make_spec(7, 1, 1),
    make_spec(7, 2, 1, [["1"]]),
]


def describe(spec):
    b = "; ".join(
        ",".join(str(spec.B.entry(i, j)) for j in range(spec.B.cols))
        for i in range(spec.B.rows)
    )
    return f"n={spec.n} m={spec.m} r={spec.r} B=[{b}]"


def main():
    print(f"{'gluing':34} {'dim':>4} {'oracle':>7} {'formula':>8} {'torus':>6} {'nilp':>5}  note")
    for spec in BATTERY:
        L = build_quasi(spec)
        t0 = time.perf_counter()
        oracle = len(derivation_oracle(L))
        dt = time.perf_counter() - t0
        torus = len(torus_basis(spec))
        formula = der_dimension(spec)
        if formula is None:
            print(f"{describe(spec):34} {L.dim:>4} {oracle:>7} {'-':>8} {torus:>6} {'-':>5}  no block form ({dt:.2f}s)")
            continue
        nilp = len(nilpotent_basis(spec))
        note = f"({dt:.2f}s)" if oracle == formula else f"MISMATCH ({dt:.2f}s)"
        print(f"{describe(spec):34} {L.dim:>4} {oracle:>7} {formula:>8} {torus:>6} {nilp:>5}  {note}")


if __name__ == "__main__":
    main()
