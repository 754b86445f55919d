#!/usr/bin/env python3
"""Walk through an isomorphism decision with its certificates.

Decides two (5,3,2) gluings both ways: a pair differing only by a top
rescaling (isomorphic, with a verified monomial witness and algebra map)
and a pair whose kernel nonzero-patterns differ (not isomorphic)."""
from qfla.builder import build_quasi, make_spec
from qfla.iso import iso_decide
from qfla.jsonio import dumps, iso_verdict_to_json
from qfla.liecore import bracket_preserving
from qfla.linalg import rank


def show(spec1, spec2):
    v = iso_decide(spec1, spec2)
    print(dumps(iso_verdict_to_json(v)), end="")
    if v.isomorphic:
        L1, L2 = build_quasi(spec1), build_quasi(spec2)
        assert rank(v.map) == L1.dim and bracket_preserving(L1, L2, v.map)
        scales = ", ".join(str(x) for x in v.equivalence.scale)
        print(f"# verified: bijective, bracket-preserving; K scales = ({scales})")
    print()


def main():
    a = make_spec(5, 3, 2, [["1"], ["1"]])
    b = make_spec(5, 3, 2, [["2"], ["1"]])
    c = make_spec(5, 3, 2, [["1"], ["0"]])
    print("# rescaled gluings (expect isomorphic):")
    show(a, b)
    print("# decomposable vs indecomposable gluing (expect not isomorphic):")
    show(c, a)


if __name__ == "__main__":
    main()
