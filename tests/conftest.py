"""Shared fixtures: the standard battery of gluing parameters and random
candidate generators used by the equivalence suites."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qfla.builder import make_spec, proportional_classes
from qfla.derivations import GeneratorImages
from qfla.linalg import scalar

# The standard battery: every (n, m, r, B) the suites run against.
TEST_MATRIX = [
    make_spec(5, 1, 1),
    make_spec(5, 2, 1, [["1"]]),
    make_spec(5, 3, 1, [["1", "1"]]),
    make_spec(5, 3, 2, [["1"], ["0"]]),
    make_spec(5, 3, 2, [["1"], ["1"]]),  # mixes both tops: no block form
    make_spec(7, 1, 1),
    make_spec(7, 2, 1, [["1"]]),
    make_spec(5, 3, 1, [["1/2", "-2/3"]]),  # fractional B
    make_spec(7, 4, 2, [["1", "2"], ["3", "-1"]]),  # generic: min(r, m - r) = 2
    make_spec(5, 5, 3, [["1", "0"], ["1", "0"], ["0", "1"]]),  # mixing, two components
    make_spec(9, 4, 1, [["1", "3", "-1"]]),
    make_spec(5, 4, 4),  # r = m: no glued copy
    make_spec(5, 5, 2, [["1", "1", "2"], ["0", "0", "0"]]),  # a zero row: copy 2 is free
    make_spec(11, 3, 1, [["1", "-2"]]),  # n = 11: extension columns reach degree 11
    make_spec(5, 6, 3, [["1", "2", "-1"], ["1", "-1", "3"], ["2", "1", "1"]]),  # generic, k = 3
]

# Block form: beta's r unit columns are its only proportional classes.
BLOCK_SPECS = [s for s in TEST_MATRIX if len(proportional_classes(s.beta)) == s.r]

# Gluings whose copies all share one top vector, so every derivation has one
# top eigenvalue across the copies.
SINGLE_TOP_SPECS = [s for s in TEST_MATRIX if s.r == 1]


def sparse(v) -> dict:
    """A dense coordinate vector as a sparse vector {index: coefficient}."""
    return {i: x for i, x in enumerate(v) if x}


def from_dense(e0, e1) -> GeneratorImages:
    """Generator images from dense coordinate lists, each entry made exact by
    ``scalar`` and the zeros dropped."""

    def exact(v):
        return {k: x for k, x in enumerate(map(scalar, v)) if x}

    return GeneratorImages(tuple(map(exact, e0)), tuple(map(exact, e1)))


def dense(images, dim: int) -> tuple:
    """Generator images as dense coordinate lists (e0, e1) of length dim, to
    be edited and passed back through ``from_dense``."""

    def listed(vectors):
        return [[v.get(k, Fraction(0)) for k in range(dim)] for v in vectors]

    return listed(images.e0), listed(images.e1)


def flatten(M) -> dict:
    """The dim^2 entries of a matrix as one sparse vector, indexed row-major."""
    entries = ((i, j, M.entry(i, j)) for i in range(M.rows) for j in range(M.cols))
    return {i * M.cols + j: x for i, j, x in entries if x}


def spec_id(spec) -> str:
    cols = "x".join(
        ",".join(str(spec.B.entry(i, j)) for i in range(spec.B.rows))
        for j in range(spec.B.cols)
    )
    return f"n{spec.n}m{spec.m}r{spec.r}" + (f"B{cols}" if cols else "")


SMALL_VALUES = [0, 0, 0, 1, -1, 2, Fraction(1, 2)]
NONZERO_VALUES = [1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


def random_vector(rng: random.Random, length: int) -> list:
    return [Fraction(rng.choice(SMALL_VALUES)) for _ in range(length)]


def random_images(spec, rng: random.Random) -> GeneratorImages:
    """Unconstrained random generator images (usually not a derivation)."""
    e0 = [random_vector(rng, spec.dim) for _ in range(spec.m)]
    e1 = [random_vector(rng, spec.dim) for _ in range(spec.m)]
    return from_dense(e0, e1)


def random_supported_images(spec, rng: random.Random) -> GeneratorImages:
    """Random images within the support shapes the derivation test expects
    (the remaining scalar conditions still only hold sometimes)."""
    n, m, r = spec.n, spec.m, spec.r
    e0 = [[Fraction(0)] * spec.dim for _ in range(m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(m)]
    for s in range(1, m + 1):
        e0[s - 1][spec.gen_index(s, 0)] = Fraction(rng.choice(SMALL_VALUES))
        for i in range(2, n):
            e0[s - 1][spec.gen_index(s, i)] = Fraction(rng.choice(SMALL_VALUES))
        for i in range(1, n - 1):
            e1[s - 1][spec.gen_index(s, i)] = Fraction(rng.choice(SMALL_VALUES))
        for p in range(1, m + 1):
            e1[s - 1][spec.gen_index(p, n - 1)] = Fraction(rng.choice(SMALL_VALUES))
        for t in range(1, r + 1):
            e0[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
            e1[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
    return from_dense(e0, e1)


def random_passing_images(spec, rng: random.Random) -> GeneratorImages:
    """Random images satisfying the full derivation condition battery."""
    n, m, r = spec.n, spec.m, spec.r
    a = Fraction(rng.choice(SMALL_VALUES))
    b = Fraction(rng.choice(SMALL_VALUES))  # shared weights: glued tops agree
    e0 = [[Fraction(0)] * spec.dim for _ in range(m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(m)]
    for s in range(1, m + 1):
        e0[s - 1][spec.gen_index(s, 0)] = a
        e1[s - 1][spec.gen_index(s, 1)] = b
        for i in range(2, n):
            e0[s - 1][spec.gen_index(s, i)] = Fraction(rng.choice(SMALL_VALUES))
        for i in range(2, n - 1, 2):  # even levels only
            e1[s - 1][spec.gen_index(s, i)] = Fraction(rng.choice(SMALL_VALUES))
        e1[s - 1][spec.gen_index(s, n - 1)] = Fraction(rng.choice(SMALL_VALUES))
        for t in range(1, r + 1):
            e0[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
            e1[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
    return from_dense(e0, e1)


def random_aut_candidate(spec, rng: random.Random, same_copy: bool = False) -> GeneratorImages:
    """Random support-respecting automorphism candidate.

    Leading coefficients are usually (not always) nonzero, so both verdicts
    occur; ``same_copy`` pins the copy permutation to the identity.
    """
    n, m, r = spec.n, spec.m, spec.r
    perm = list(range(1, m + 1))
    if not same_copy:
        rng.shuffle(perm)
    e0 = [[Fraction(0)] * spec.dim for _ in range(m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(m)]
    for s in range(1, m + 1):
        q = perm[s - 1]
        e0[s - 1][spec.gen_index(q, 0)] = Fraction(rng.choice(NONZERO_VALUES + [0]))
        for i in range(2, n):
            e0[s - 1][spec.gen_index(q, i)] = Fraction(rng.choice(SMALL_VALUES))
        for i in range(1, n - 1):
            e1[s - 1][spec.gen_index(q, i)] = Fraction(rng.choice(SMALL_VALUES))
        for p in range(1, m + 1):
            e1[s - 1][spec.gen_index(p, n - 1)] = Fraction(rng.choice(SMALL_VALUES))
        for t in range(1, r + 1):
            e0[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
            e1[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
    return from_dense(e0, e1)


def passing_aut_candidate(spec, rng: random.Random) -> GeneratorImages:
    """Random candidate passing the whole automorphism battery.

    Strategy: identity copy permutation, shared leading scales so the top
    scales agree, convolution-compatible e1 coefficients (b_{2k+1} solved from
    the even ones), no cross-copy e_{*,n-1} terms.
    """
    n, m, r = spec.n, spec.m, spec.r
    a = Fraction(rng.choice(NONZERO_VALUES))
    b = Fraction(rng.choice(NONZERO_VALUES))
    e0 = [[Fraction(0)] * spec.dim for _ in range(m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(m)]
    for s in range(1, m + 1):
        e0[s - 1][spec.gen_index(s, 0)] = a
        for i in range(2, n):
            e0[s - 1][spec.gen_index(s, i)] = Fraction(rng.choice(SMALL_VALUES))
        coeff = {1: b}
        for i in range(2, n - 1):
            if i % 2 == 0:
                coeff[i] = Fraction(rng.choice(SMALL_VALUES))
            else:
                # alternating convolution at order i must vanish; solve for
                # the highest odd coefficient from the lower ones
                total = Fraction(0)
                for j in range(2, i):
                    total += (Fraction(-1) ** j) * coeff[j] * coeff[i - j + 1]
                coeff[i] = total / (2 * coeff[1])
        for i, v in coeff.items():
            e1[s - 1][spec.gen_index(s, i)] = v
        e1[s - 1][spec.gen_index(s, n - 1)] = Fraction(rng.choice(SMALL_VALUES))
        for t in range(1, r + 1):
            e0[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
            e1[s - 1][spec.top_index(t)] = Fraction(rng.choice(SMALL_VALUES))
    return from_dense(e0, e1)


def zero_copy_variants(images, rng: random.Random) -> list:
    """The images with no copy, one copy, all but one copy and every copy
    sent to zero (both generator images of a copy), the copies drawn by rng;
    ``extend_images`` skips exactly such copies."""
    copies = range(1, len(images.e0) + 1)
    out = []
    for zero in (set(), {rng.choice(copies)}, set(copies) - {rng.choice(copies)}, set(copies)):
        e0, e1 = (
            tuple({} if s in zero else v for s, v in zip(copies, vs))
            for vs in (images.e0, images.e1)
        )
        out.append(GeneratorImages(e0, e1))
    return out


@pytest.fixture
def rng():
    return random.Random(20260826)
