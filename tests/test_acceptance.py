"""Release gate: every shipped guarantee, checked exactly (tolerance zero).

Each check prints one ``[acceptance] ...: PASS/FAIL`` line, and every check
is expected to pass.  Among the battery's block-form gluings with more than
one block is (n,m,r,B) = (5,3,2,(1,0)^t): copy 3 glues onto copy 1 and copy 2
is a free summand, so the algebra is N(Q_5,2,1) (+) Q_5.  Its derivation dimension
is 33 = 18 + 9 + 4 + 2: the two summands' derivations plus the maps sending
each summand's generators into the other's centre (Der(A (+) B) =
Der A (+) Der B (+) Hom(A/[A,A], Z(B)) (+) Hom(B/[B,B], Z(A))).  The
closed-form count must reach it with one torus direction per block.
"""
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    BLOCK_SPECS,
    SINGLE_TOP_SPECS,
    TEST_MATRIX,
    dense,
    flatten,
    from_dense,
    passing_aut_candidate,
    random_aut_candidate,
    random_images,
    random_passing_images,
    random_supported_images,
    spec_id,
)
from qfla.automorphisms import (
    automorphism_conditions,
    extend_endomorphism,
    make_scaling_automorphism,
)
from qfla.builder import build_quasi, make_spec
from qfla.cli import main
from qfla.derivations import (
    der_dimension,
    derivation_conditions,
    derivation_oracle,
    extend_derivation_candidate,
    is_derivation,
    nilpotent_basis,
    top_weights,
    torus_basis,
)
from qfla.iso import iso_decide
from qfla.jsonio import candidate_to_json, dumps, spec_to_json
from qfla.liecore import (
    bracket_preserving,
    is_isomorphism,
    is_minimal_generating_set,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from qfla.linalg import column_span, rank


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -------------------------------------------------------- gate construction


def test_construction_suite():
    start = time.perf_counter()
    for spec in TEST_MATRIX:
        L = build_quasi(spec)  # check_jacobi has passed on it
        assert L.dim == spec.m * spec.n + spec.r
        chain = lower_central_series(L)
        assert chain[spec.n - 1].cols == spec.r
        assert chain[spec.n].cols == 0
        assert minimal_generator_count(chain) == 2 * spec.m
        gens = [{spec.gen_index(s, t): 1} for s in range(1, spec.m + 1) for t in (0, 1)]
        assert is_minimal_generating_set(L, gens)
        chain = quasi_cyclic_split(L, column_span(gens, L.dim))
        assert chain[0].cols == 2 * spec.m
        assert sum(space.cols for space in chain) == L.dim
    elapsed = time.perf_counter() - start
    verdict("construction suite (15 gluings, < 5 s)", elapsed < 5.0, f"{elapsed:.2f}s")


# ----------------------------------------------- gate derivation dimensions

EXPECTED_DER_DIM = {
    spec_id(make_spec(5, 1, 1)): 9,
    spec_id(make_spec(5, 2, 1, [["1"]])): 18,
    spec_id(make_spec(5, 3, 1, [["1", "1"]])): 28,
    spec_id(make_spec(5, 3, 2, [["1"], ["0"]])): 33,  # N(Q_5,2,1) (+) Q_5: see module docstring
    spec_id(make_spec(7, 1, 1)): 12,
    spec_id(make_spec(7, 2, 1, [["1"]])): 24,
    # by the paper's count m + r + sum_l ((2r + n + d - 2) m_l + m_l (m_l - 1) / 2)
    # over the blocks of m_l copies, d = (n - 1) / 2:
    # one block of 3, 2r + n + d - 2 = 2 + 5 + 2 - 2 = 7: 3 + 1 + (21 + 3) = 28
    spec_id(make_spec(5, 3, 1, [["1/2", "-2/3"]])): 28,
    # one block of 4, 2 + 9 + 4 - 2 = 13: 4 + 1 + (52 + 6) = 63
    spec_id(make_spec(9, 4, 1, [["1", "3", "-1"]])): 63,
    # four blocks of 1, 8 + 5 + 2 - 2 = 13: 4 + 4 + 4 * 13 = 60
    spec_id(make_spec(5, 4, 4)): 60,
    # blocks of 4 and 1, 4 + 5 + 2 - 2 = 9: 5 + 2 + (36 + 6) + 9 = 58
    spec_id(make_spec(5, 5, 2, [["1", "1", "2"], ["0", "0", "0"]])): 58,
    # n = 11, d = 5; one block of 3, 2 + 11 + 5 - 2 = 16: 3 + 1 + (48 + 3) = 55
    spec_id(make_spec(11, 3, 1, [["1", "-2"]])): 55,
}


@pytest.fixture(scope="module")
def oracle_runs():
    runs = {}
    start = time.perf_counter()
    for spec in BLOCK_SPECS:
        runs[spec_id(spec)] = derivation_oracle(build_quasi(spec))
    return runs, time.perf_counter() - start


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=spec_id)
def test_derivation_dimension(spec, oracle_runs):
    runs, _ = oracle_runs
    expected = EXPECTED_DER_DIM[spec_id(spec)]
    got = len(runs[spec_id(spec)])
    assert got == der_dimension(spec)
    verdict(
        f"derivation dimension {spec_id(spec)} == {expected}",
        got == expected,
        f"oracle found {got}",
    )


def test_derivation_oracle_runtime(oracle_runs):
    _, elapsed = oracle_runs
    verdict("derivation oracle runtime < 60 s", elapsed < 60.0, f"{elapsed:.2f}s")


# ------------------------------------ gate derivation condition equivalence


def _images_with(spec, assignments):
    e0 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    e1 = [[Fraction(0)] * spec.dim for _ in range(spec.m)]
    for which, s, k, v in assignments:
        (e0 if which == 0 else e1)[s - 1][k] = Fraction(v)
    return from_dense(e0, e1)


MUTANT_VALUES = [1, 2, 3, -1, Fraction(1, 2)]


def _derivation_mutants(spec):
    """Five single-entry perturbations per condition, each tripping exactly it."""
    out = {}
    out["e0-support"] = [
        _images_with(spec, [(0, 1, spec.gen_index(1, 1), v)]) for v in MUTANT_VALUES
    ]
    out["e1-support"] = [
        _images_with(spec, [(1, 1, spec.gen_index(2, 2), v)]) for v in MUTANT_VALUES
    ]
    out["odd-level-vanishing"] = [
        _images_with(spec, [(1, 1, spec.gen_index(1, 3), v)]) for v in MUTANT_VALUES
    ]
    out["glued-weight-match"] = [
        _images_with(spec, [(1, 1, spec.gen_index(1, 1), v)]) for v in MUTANT_VALUES
    ]
    out["cross-pair-balance"] = [
        _images_with(spec, [(1, 1, spec.gen_index(2, spec.n - 1), v)])
        for v in MUTANT_VALUES
    ]
    return out


def test_derivation_condition_equivalence(rng):
    ok = True
    for spec in TEST_MATRIX:
        L = build_quasi(spec)
        agreeing = []
        for draw in (random_images, random_supported_images, random_passing_images):
            for _ in range(70):
                gi = draw(spec, rng)
                predicted = derivation_conditions(spec, gi).ok
                actual = is_derivation(L, extend_derivation_candidate(spec, gi))
                agreeing.append(predicted == actual)
        ok = ok and len(agreeing) >= 200 and all(agreeing)
    spec = make_spec(5, 2, 1, [["1"]])
    L = build_quasi(spec)
    for label, mutants in _derivation_mutants(spec).items():
        for gi in mutants:
            v = derivation_conditions(spec, gi)
            ok = ok and (v.ok, v.failed) == (False, label)
            ok = ok and not is_derivation(L, extend_derivation_candidate(spec, gi))
    verdict("derivation conditions == Leibniz (210/gluing + 25 mutants)", ok)


# --------------------------------------------------- gate closed-form basis


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=spec_id)
def test_closed_form_basis_span(spec, oracle_runs):
    runs, _ = oracle_runs
    L = build_quasi(spec)
    elements = torus_basis(spec) + nilpotent_basis(spec)
    assert all(is_derivation(L, D) for D in elements)
    torus = torus_basis(spec)
    for i, A in enumerate(torus):
        for B in torus[i + 1 :]:
            assert A * B == B * A
    size = L.dim * L.dim
    closed = column_span([flatten(D) for D in elements], size)
    oracle = column_span([flatten(D) for D in runs[spec_id(spec)]], size)
    verdict(
        f"closed-form basis spans Der {spec_id(spec)}",
        closed == oracle,
        f"{len(elements)} closed-form vs {len(runs[spec_id(spec)])} oracle",
    )


def test_top_eigenvalue_uniform_on_single_top(oracle_runs):
    runs, _ = oracle_runs
    ok = True
    for spec in SINGLE_TOP_SPECS:
        for D in runs[spec_id(spec)]:
            tops = top_weights(spec, D)
            ok = ok and len(set(tops)) == 1
    verdict("top eigenvalue uniform across copies (r=1 gluings)", ok)


# ---------------------------------- gate automorphism condition equivalence


def _identity_candidate(spec):
    return make_scaling_automorphism(spec, [1] * spec.m, [1] * spec.m)


def _aut_mutants(spec):
    out = {}
    n = spec.n
    base = _identity_candidate(spec)

    def tweak(e0_edits=(), e1_edits=()):
        e0, e1 = dense(base, spec.dim)
        for s, k, v in e0_edits:
            e0[s - 1][k] = Fraction(v)
        for s, k, v in e1_edits:
            e1[s - 1][k] = Fraction(v)
        return from_dense(e0, e1)

    out["single-target-copy"] = [
        tweak(e0_edits=[(1, spec.gen_index(2, 0), v)]) for v in MUTANT_VALUES
    ]
    out["copy-permutation"] = [
        tweak(
            e0_edits=[(2, spec.gen_index(2, 0), 0), (2, spec.gen_index(1, 0), v)],
            e1_edits=[(2, spec.gen_index(2, 1), 0), (2, spec.gen_index(1, 1), v)],
        )
        for v in MUTANT_VALUES
    ]
    out["leading-coefficients"] = [
        tweak(e1_edits=[(1, spec.gen_index(1, 1), 0), (1, spec.gen_index(1, 2), v)])
        for v in MUTANT_VALUES
    ]
    out["odd-convolution"] = [
        tweak(e1_edits=[(1, spec.gen_index(1, 2), v)]) for v in MUTANT_VALUES
    ]
    out["gluing-compatibility"] = [
        make_scaling_automorphism(spec, [1, 1], [v, 5 * v]) for v in MUTANT_VALUES
    ]
    return out


def test_automorphism_condition_equivalence(rng):
    ok = True
    for spec in TEST_MATRIX:
        L = build_quasi(spec)
        agreeing = []
        for draw in (random_aut_candidate, passing_aut_candidate):
            for _ in range(100):
                cand = draw(spec, rng)
                predicted = automorphism_conditions(spec, cand).ok
                actual = is_isomorphism(L, L, extend_endomorphism(spec, L, cand))
                agreeing.append(predicted == actual)
        ok = ok and len(agreeing) >= 200 and all(agreeing)
    spec = make_spec(5, 2, 1, [["1"]])
    L = build_quasi(spec)
    for label, mutants in _aut_mutants(spec).items():
        for cand in mutants:
            v = automorphism_conditions(spec, cand)
            ok = ok and (v.ok, v.failed) == (False, label)
            ok = ok and not is_isomorphism(L, L, extend_endomorphism(spec, L, cand))
    # equal copy scales verify; unequal ones fail exactly at the gluing check
    equal = make_scaling_automorphism(spec, [2, 2], [3, 3])
    ok = ok and automorphism_conditions(spec, equal).ok
    ok = ok and is_isomorphism(L, L, extend_endomorphism(spec, L, equal))
    verdict("automorphism conditions == brute force (200/gluing + 25 mutants)", ok)


# ----------------------------------------------- gate isomorphism decisions


def test_isomorphism_decisions():
    start = time.perf_counter()
    ok = True

    pair_yes = (make_spec(5, 3, 2, [["1"], ["1"]]), make_spec(5, 3, 2, [["2"], ["1"]]))
    v = iso_decide(*pair_yes)
    ok = ok and v.isomorphic
    L1, L2 = build_quasi(pair_yes[0]), build_quasi(pair_yes[1])
    ok = ok and rank(v.map) == L1.dim and bracket_preserving(L1, L2, v.map)

    pair_no = (make_spec(5, 3, 2, [["1"], ["0"]]), make_spec(5, 3, 2, [["1"], ["1"]]))
    ok = ok and not iso_decide(*pair_no).isomorphic

    for spec in TEST_MATRIX:  # reflexivity
        ok = ok and iso_decide(spec, spec).isomorphic

    # symmetry
    ok = ok and iso_decide(pair_yes[1], pair_yes[0]).isomorphic
    ok = ok and not iso_decide(pair_no[1], pair_no[0]).isomorphic

    # permuting the copies of a gluing never changes the isomorphism class
    base = make_spec(5, 4, 2, [["1", "2"], ["3", "4"]])
    swapped_free = make_spec(5, 4, 2, [["2", "1"], ["4", "3"]])
    swapped_glued = make_spec(5, 4, 2, [["3", "4"], ["1", "2"]])
    ok = ok and iso_decide(base, swapped_free).isomorphic
    ok = ok and iso_decide(base, swapped_glued).isomorphic

    elapsed = time.perf_counter() - start
    verdict("isomorphism decisions with verified witnesses (< 10 s)", ok and elapsed < 10.0, f"{elapsed:.2f}s")


# ----------------------------------------------------- gate CLI determinism


# sha256 of each battery command's stdout.  The digests pin the CLI bytes
# across changes to the code, not only between two runs of the same code.
GOLDEN_BATTERY = [
    (["build", "--n", "5", "--m", "1", "--r", "1"], 0,
        "f722017bf606ebfe87c30850107dd8a5f952fc9f52d6a50220f0bc6aab56e5b9"),
    (["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]'], 0,
        "182974e538d27898a9a544604797e15e325368c783f26f7a2931099551d7c1fb"),
    (["build", "--n", "7", "--m", "1", "--r", "1"], 0,
        "8a1975594870b093eccddc5a6bbd196230afd4de2213f31bbd3a981d9addd6b6"),
    (["build", "--n", "5", "--m", "3", "--r", "2", "--B", '[["1"],["0"]]'], 0,
        "bf863c784f699e39d67d192fd25b86c6970131830c97fac9af9f1f5af7102620"),
    (["check", "{algebra}"], 0,
        "334e687dcee6f2199ecb74cba445fe5636566f1ddf8270250e24db54a35d746d"),
    (["der", "{algebra}", "--compare"], 0,
        "c5401bbb933130e9cf56f8fcbbfb310587c8d224f0907fddc89ba7507b699fc1"),
    (["iso", "{spec_a}", "{spec_b}"], 0,
        "27fe1f89497e16997cdf9f26ed41b4409d56d91c14c0e0df79ccb43075a8c348"),
    (["iso", "{spec_a}", "{spec_a}"], 0,
        "2a720774395039f0546d13d13bffd1dbef70d92c4504f5219972863c05c03863"),
    (["iso", "{spec_c}", "{spec_a}"], 0,
        "a866db6438a71759922c7cbb05d641d3ac8a43836d7bdc7738f30cfe9c117ec1"),
    (["related", "{spec_a}"], 0,
        "fb26f8f00932e5bc2b62f1fe1dd3dd04674f2f4a49fe2e57c0bd79b0d23b09fa"),
    (["related", "{spec_b}"], 0,
        "701c78a3a436628a345cc1cba837adc7975d501ef607f801f830209c39e9c24b"),
    (["weights", "{algebra}"], 0,
        "15be246e04ab5ca005b024e270ef6763cd90056ef38afdbb23e0af7eaf5c4dda"),
    (["aut-check", "{algebra}", "{aut_pass}", "--strict"], 0,
        "f6f83883160d2637bc44dd43f1745649096159667ac9449d8a91fd9f40836da4"),
    (["aut-check", "{algebra}", "{aut_fail}", "--strict"], 1,
        "96c8eacd61175fc76c7a0494f484c0310d27b8fe6d8c4de1506fe4db6512a6d3"),
    # relabelled pairs whose witness permutes the copies and rescales the tops
    (["iso", "{spec_d}", "{spec_e}"], 0,
        "500aac36dd104f34543b16004ea0d14b142c47c396ba7ceb183864fb71bd2f32"),
    (["iso", "{spec_f}", "{spec_g}"], 0,
        "69c564698707bce70ce58bcdc5b1d859a96b8cc816e4b64556fdb6a575cf3ec0"),
    # a mixing gluing whose copy swap and scales break the gluing
    (["aut-check", "{algebra_mix}", "{aut_mix}", "--strict"], 1,
        "96c8eacd61175fc76c7a0494f484c0310d27b8fe6d8c4de1506fe4db6512a6d3"),
    # the same mixing gluing: one support component, so an m + 1 torus
    (["der", "{algebra_mix}", "--compare"], 0,
        "81e70e476a383655979f707090c7b6673f30689919c056c8c1a914756c9f68c2"),
    # m = r: no glued copies, so the witness is the identity on the copies
    (["iso", "{spec_h}", "{spec_h}"], 0,
        "61c1cdfaac92f6275cdd4afec1e405e3c7dea34b200900b299f5c1f01bf7f025"),
    # two support components (c = 2): weights decomposes under m + 1 of the
    # m + 2 torus members, 11 weight spaces in dimension 12
    (["weights", "{spec_h}"], 0,
        "080716421487844af04208e59c473200ff57c3e8d48b1558e570d16793b749cb"),
]


def golden_files(tmp_path) -> dict:
    """The input files that GOLDEN_BATTERY's templates name, written to tmp_path."""
    files = {
        k: str(tmp_path / f"{k}.json")
        for k in ("algebra", "algebra_mix", "aut_pass", "aut_fail", "aut_mix")
    }
    build = ["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]']
    assert main(build + ["--out", files["algebra"]]) == 0
    build_mix = ["build", "--n", "5", "--m", "3", "--r", "2", "--B", '[["1"],["1"]]']
    assert main(build_mix + ["--out", files["algebra_mix"]]) == 0
    specs = {
        "spec_a": (5, 3, 2, [["1"], ["1"]]),
        "spec_b": (5, 3, 2, [["2"], ["1"]]),
        "spec_c": (5, 3, 2, [["1"], ["0"]]),
        "spec_d": (5, 5, 2, [["1", "2", "-1"], ["1", "-1", "3"]]),
        "spec_e": (5, 5, 2, [["-9/2", "-1/4", "1"], ["-15", "-1", "6"]]),
        "spec_f": (7, 5, 3, [["1", "2"], ["1", "-1"], ["2", "3"]]),
        "spec_g": (7, 5, 3, [["-5/3", "1/6"], ["25/2", "-3/4"], ["-15", "1"]]),
        "spec_h": (5, 2, 2),
    }
    for name, args in specs.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(dumps(spec_to_json(make_spec(*args))))
    spec = make_spec(5, 2, 1, [["1"]])
    mix = make_spec(5, 3, 2, [["1"], ["1"]])
    candidates = (
        ("aut_pass", spec, make_scaling_automorphism(spec, [1, 1], [2, 2])),
        ("aut_fail", spec, make_scaling_automorphism(spec, [1, 1], [2, 3])),
        ("aut_mix", mix, make_scaling_automorphism(mix, [1, 1, 1], [1, 1, 2], perm=[2, 1, 3])),
    )
    for name, shape, cand in candidates:
        (tmp_path / f"{name}.json").write_text(dumps(candidate_to_json(shape, cand.e0, cand.e1)))
    return files


def test_cli_golden_battery(tmp_path, capsys):
    files = golden_files(tmp_path)
    capsys.readouterr()
    golden = []
    for run_no in range(2):
        outputs = []
        for template, code, _ in GOLDEN_BATTERY:
            assert main([arg.format(**files) for arg in template]) == code
            outputs.append(capsys.readouterr().out)
            json.loads(outputs[-1])  # every emission is valid JSON
        golden.append(outputs)
    digests = [hashlib.sha256(out.encode("utf-8")).hexdigest() for out in golden[0]]
    mismatched = [
        " ".join(template)
        for (template, _, expected), got in zip(GOLDEN_BATTERY, digests)
        if got != expected
    ]
    with capsys.disabled():
        verdict(
            f"CLI battery byte-identical to pinned digests, twice ({len(digests)} commands)",
            golden[0] == golden[1] and not mismatched,
            f"digest mismatch: {mismatched}",
        )
