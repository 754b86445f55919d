"""Command-line front end: verbs, JSON round trips, exit codes, determinism."""
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qfla
from conftest import TEST_MATRIX, spec_id
from qfla import cli
from qfla.automorphisms import exp_ad, make_scaling_automorphism
from qfla.builder import build_quasi, change_of_basis, make_spec
from qfla.cli import VERBS, main
from qfla.jsonio import algebra_to_json, candidate_to_json, dumps, matrix_from_json, spec_to_json
from qfla.liecore import (
    LieAlgebra,
    NotQuasiCyclic,
    bracket_preserving,
    is_filiform,
    is_isomorphism,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from qfla.linalg import Matrix, rank


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


@pytest.fixture
def spec521_file(tmp_path):
    path = tmp_path / "n521.json"
    path.write_text(dumps(spec_to_json(make_spec(5, 2, 1, [["1"]]))))
    return str(path)


@pytest.fixture
def algebra521_file(tmp_path, run):
    path = tmp_path / "a521.json"
    code, _, _ = run("build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]', "--out", str(path))
    assert code == 0
    return str(path)


class TestBuild:
    def test_dimension_and_spec_embedding(self, run):
        code, out, _ = run("build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]')
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 11
        assert data["spec"] == {"n": 5, "m": 2, "r": 1, "B": [["1"]]}

    def test_bad_parameters_exit_2(self, run):
        code, _, err = run("build", "--n", "4", "--m", "1", "--r", "1")
        assert code == 2
        assert "odd" in err

    def test_missing_B_exit_2(self, run):
        code, _, err = run("build", "--n", "5", "--m", "2", "--r", "1")
        assert code == 2


class TestCheck:
    def test_report(self, run, algebra521_file):
        code, out, _ = run("check", algebra521_file)
        assert code == 0
        data = json.loads(out)
        assert data["jacobi"] is True
        assert data["lcs_dims"] == [11, 7, 5, 3, 1, 0]
        assert data["filiform"] is False
        assert data["min_generators"] == 4
        assert data["quasi_cyclic"]["dims"][0] == 4

    def test_round_trip_build_check(self, run, tmp_path, algebra521_file):
        # re-serializing what build wrote reproduces identical bytes
        data = json.loads(open(algebra521_file).read())
        assert dumps(data) == open(algebra521_file).read()

    def test_jacobi_failure_reported(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            dumps(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "value": [[2, "1"]]},
                        {"i": 0, "j": 2, "value": [[0, "1"]]},
                    ],
                }
            )
        )
        code, out, _ = run("check", str(path))
        assert code == 0
        assert json.loads(out)["jacobi"] is False
        code, _, _ = run("check", str(path), "--strict")
        assert code == 1


def two_walk_report(L, spec) -> dict:
    """The reference for check's structure fields, from two walks: the lower
    central series as the walk of the whole basis and, given a spec, the
    split by its e_{s0}, e_{s1}."""
    dims = [space.cols for space in lower_central_series(L)]
    report = {
        "lcs_dims": dims,
        "filiform": is_filiform(dims),
        "min_generators": minimal_generator_count(dims),
        "quasi_cyclic": None,
    }
    if spec is not None:
        gens = [{spec.gen_index(s, t): 1} for s in range(1, spec.m + 1) for t in (0, 1)]
        try:
            chain = quasi_cyclic_split(L, Matrix.from_columns(gens, L.dim))
            report["quasi_cyclic"] = {"dims": [space.cols for space in chain]}
        except NotQuasiCyclic as exc:
            report["quasi_cyclic"] = {"dims": None, "detail": str(exc)}
    return report


def mixing_specs(seed: int, count: int) -> list:
    """Gluings drawn by random.Random(seed) whose B has no zero entry, so
    every glued copy mixes every top."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        n, m = rng.choice([5, 7, 9]), rng.randint(2, 6)
        r = rng.randint(1, m - 1)
        B = [[rng.choice(["1", "-1", "2", "1/2", "-3/2", "3"]) for _ in range(m - r)] for _ in range(r)]
        specs.append(make_spec(n, m, r, B))
    return specs


def table_json(L) -> dict:
    """A bare algebra file of L: its table, with no spec."""
    brackets = [
        {"i": i, "j": j, "value": [[k, str(c)] for k, c in sorted(L.sc[(i, j)].items())]}
        for i, j in sorted(L.sc)
    ]
    return {"dim": L.dim, "brackets": brackets}


class TestCheckInOneWalk:
    """On a table whose indices rise, check reads the series off the split by
    the generators, one walk; on other tables, and when the split overlaps or
    falls short, off the walk of the whole basis, as it used to."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The calls check makes to the series and to the split, by name."""
        calls = []
        for name in ("lower_central_series", "quasi_cyclic_split"):

            def spy(*args, _fn=getattr(cli, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(cli, name, spy)
        return calls

    def check(self, run, path) -> dict:
        code, out, err = run("check", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data.pop("jacobi"), data.pop("detail", None)) == (True, None)
        return data

    @pytest.mark.parametrize("spec", TEST_MATRIX + mixing_specs(38, 8), ids=spec_id)
    def test_one_walk_matches_the_two_walks(self, run, tmp_path, walks, spec):
        L = build_quasi(spec)
        tagged, bare = tmp_path / "tagged.json", tmp_path / "bare.json"
        tagged.write_text(dumps(algebra_to_json(L, spec)))
        bare.write_text(json.dumps(table_json(L)))
        assert self.check(run, tagged) == two_walk_report(L, spec)
        assert self.check(run, bare) == two_walk_report(L, None)
        assert walks == ["quasi_cyclic_split"] * 2

    def test_a_table_in_reversed_basis_order_takes_the_whole_basis_walk(
        self, run, tmp_path, walks
    ):
        L = build_quasi(make_spec(5, 3, 1, [["1", "1/2"]]))
        flip = Matrix.from_columns([{L.dim - 1 - k: 1} for k in range(L.dim)], L.dim)
        reversed_table = change_of_basis(L, flip)  # each bracket lands below its pair
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(table_json(reversed_table)))
        assert self.check(run, path) == two_walk_report(L, None)
        assert walks == ["lower_central_series"]

    def test_overlapping_generator_levels_take_the_whole_basis_walk(
        self, run, tmp_path, walks
    ):
        # [e0, e1] = e3, [e0, e3] = e4, [e1, e2] = e4: the indices rise, and
        # e0, e1, e2 generate, but e4 lies in both [U, U] and [U, [U, U]]
        L = LieAlgebra(5, {(0, 1): {3: 1}, (0, 3): {4: 1}, (1, 2): {4: 1}})
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(table_json(L)))
        U = Matrix.from_columns([{0: 1}, {1: 1}, {2: 1}], 5)
        with pytest.raises(NotQuasiCyclic, match=r"^sum of chain spaces has rank 5 < 6$"):
            quasi_cyclic_split(L, U)
        walks.clear()
        assert self.check(run, path) == {
            "lcs_dims": [5, 2, 1, 0],
            "filiform": False,
            "min_generators": 3,
            "quasi_cyclic": None,
        }
        assert self.check(run, path) == two_walk_report(L, None)
        assert walks == ["quasi_cyclic_split", "lower_central_series"] * 2


class TestDer:
    def test_compare_agrees(self, run, algebra521_file):
        code, out, _ = run("der", algebra521_file, "--compare")
        assert code == 0
        data = json.loads(out)
        assert data["dim_oracle"] == 18
        assert data["dim_formula"] == 18
        assert data["agree"] is True
        assert len(data["torus"]) == 3
        assert len(data["nilpotent"]) == 15
        assert len(data["lambda_table"]) == 18

    def test_torus_grows_per_block(self, run, tmp_path):
        # (5,3,2,(1,0)^t) has two blocks: der reports an m + r = 5 member
        # torus, while weights keeps decomposing under the m + 1 = 4 members
        path = str(tmp_path / "a532.json")
        code, _, _ = run(
            "build", "--n", "5", "--m", "3", "--r", "2", "--B", '[["1"],["0"]]', "--out", path
        )
        assert code == 0
        code, out, _ = run("der", path, "--compare", "--strict")
        assert code == 0
        data = json.loads(out)
        assert len(data["torus"]) == 5
        assert data["dim_formula"] == data["dim_oracle"] == 33
        assert data["agree"] is True
        code, out, _ = run("weights", path)
        assert code == 0
        data = json.loads(out)
        assert data["torus_size"] == 4
        assert sum(entry["dim"] for entry in data["weights"]) == 17

    def test_spec_file_accepted_directly(self, run, spec521_file):
        code, out, _ = run("der", spec521_file)
        assert code == 0
        assert json.loads(out)["dim_oracle"] == 18


class TestAutCheck:
    def _write_candidate(self, tmp_path, betas):
        spec = make_spec(5, 2, 1, [["1"]])
        cand = make_scaling_automorphism(spec, [1, 1], betas)
        path = tmp_path / "cand.json"
        path.write_text(dumps(candidate_to_json(spec, cand.e0, cand.e1)))
        return str(path)

    def test_passing_candidate(self, run, tmp_path, algebra521_file):
        cand = self._write_candidate(tmp_path, [2, 2])
        code, out, _ = run("aut-check", algebra521_file, cand)
        assert code == 0
        data = json.loads(out)
        assert data["conditions"]["ok"] is True
        assert data["brute_force"] is True
        assert data["agree"] is True

    def test_failing_candidate_strict_exit_1(self, run, tmp_path, algebra521_file):
        cand = self._write_candidate(tmp_path, [2, 3])
        code, out, _ = run("aut-check", algebra521_file, cand, "--strict")
        assert code == 1
        data = json.loads(out)
        assert data["conditions"]["failed"] == "gluing-compatibility"
        assert data["agree"] is True

    def test_fractions_in_the_table_and_the_candidate(self, run, tmp_path):
        # B holds 1/2 and -1/3 and the candidate is exp(ad x) for a fractional
        # x, so the brute-force check clears denominators on both sides
        spec = make_spec(5, 3, 1, [["1/2", "-1/3"]])
        L = build_quasi(spec)
        algebra = tmp_path / "a531.json"
        algebra.write_text(dumps(algebra_to_json(L, spec)))
        cols = exp_ad(L, {k: Fraction(k + 1, 2 * k + 3) for k in range(L.dim)}).columns()
        e0, e1 = ([cols[spec.gen_index(s, t)] for s in range(1, spec.m + 1)] for t in (0, 1))
        odd = dict(e1[1])  # breaks the order-3 convolution of copy 2
        odd[spec.gen_index(2, 3)] = odd.get(spec.gen_index(2, 3), 0) + Fraction(1, 2)
        for images, code, ok in ((e1, 0, True), ([e1[0], odd, e1[2]], 1, False)):
            path = tmp_path / "cand.json"
            path.write_text(dumps(candidate_to_json(spec, e0, images)))
            assert "/" in path.read_text() and "/" in algebra.read_text()
            code_got, out, _ = run("aut-check", str(algebra), str(path), "--strict")
            data = json.loads(out)
            assert code_got == code
            assert data["conditions"]["failed"] == (None if ok else "odd-convolution")
            assert data["brute_force"] is ok
            assert data["agree"] is True

    def test_detail_past_the_digit_limit(self, run, tmp_path):
        # the order-3 convolution total of e_11 -> e_11 + 10^4000 e_12 is
        # 10^8000: the verdict naming it is worked out and written past
        # Python's digit limit, and the caller's limit is left as it was
        algebra = tmp_path / "a711.json"
        assert run("build", "--n", "7", "--m", "1", "--r", "1", "--out", str(algebra))[0] == 0
        e0, e1 = ["0"] * 8, ["0"] * 8
        e0[0], e1[1], e1[2] = "1", "1", "1" + "0" * 4000
        path = tmp_path / "cand.json"
        path.write_text(json.dumps({"images": {"e_10": e0, "e_11": e1}}))
        limit = sys.get_int_max_str_digits()
        for flags, code in (([], 0), (["--strict"], 1)):
            got, out, err = run("aut-check", str(algebra), str(path), *flags)
            assert (got, err) == (code, "")
            assert sys.get_int_max_str_digits() == limit
            data = json.loads(out)  # one JSON object, nothing after it
            assert data["conditions"]["failed"] == "odd-convolution"
            assert data["conditions"]["detail"] == "copy 1 convolution at order 3 is 1" + "0" * 8000
            assert data["brute_force"] is False and data["agree"] is True

    def test_malformed_candidate_exit_2(self, run, tmp_path, algebra521_file):
        path = tmp_path / "broken.json"
        path.write_text('{"images": {"e_10": ["1"]}}')
        code, _, err = run("aut-check", algebra521_file, str(path))
        assert code == 2
        assert "images" in err

    @pytest.mark.parametrize(
        "where, key, field",
        [
            (None, "note", "note: not a candidate field (expected images)"),
            ("images", "e_31", "images.e_31: not e_s0 or e_s1 for a copy s in 1..2"),
            ("images", "e_01", "images.e_01: not e_s0 or e_s1 for a copy s in 1..2"),
            ("images", "e_12", "images.e_12: not e_s0 or e_s1 for a copy s in 1..2"),
        ],
        ids=["top", "copy_3", "copy_0", "level_2"],
    )
    def test_candidate_key_that_nothing_reads_exit_2(
        self, run, tmp_path, algebra521_file, where, key, field
    ):
        # a key beside the 2m images would be skipped unread, so it is refused
        path = self._write_candidate(tmp_path, [2, 2])
        data = json.loads(Path(path).read_text())
        (data[where] if where else data)[key] = data["images"]["e_21"]
        Path(path).write_text(json.dumps(data))
        code, out, err = run("aut-check", algebra521_file, path)
        assert (code, out, err) == (2, "", f"error: {field}\n")


class TestIso:
    def _spec_file(self, tmp_path, name, *args):
        path = tmp_path / name
        path.write_text(dumps(spec_to_json(make_spec(*args))))
        return str(path)

    def test_isomorphic_pair(self, run, tmp_path):
        a = self._spec_file(tmp_path, "a.json", 5, 3, 2, [["1"], ["1"]])
        b = self._spec_file(tmp_path, "b.json", 5, 3, 2, [["2"], ["1"]])
        code, out, _ = run("iso", a, b)
        assert code == 0
        data = json.loads(out)
        assert data["isomorphic"] is True
        assert data["witness"]["K"]["scale"] == ["2", "1", "1"]

    def test_not_isomorphic_strict_exit_1(self, run, tmp_path):
        a = self._spec_file(tmp_path, "a.json", 5, 3, 2, [["1"], ["0"]])
        b = self._spec_file(tmp_path, "b.json", 5, 3, 2, [["1"], ["1"]])
        code, out, _ = run("iso", a, b, "--strict")
        assert code == 1
        assert json.loads(out)["isomorphic"] is False

    def test_missing_file_exit_2(self, run, spec521_file):
        code, _, err = run("iso", spec521_file, "/nonexistent.json")
        assert code == 2

    def test_large_prime_scale_answers_in_time(self, tmp_path):
        # 10^18 + 3 is prime: dividing by every odd number up to its square
        # root would run for minutes, so it has to be split as one base
        glued = [["1"], ["1"]], [["1000000000000000003"], ["1"]]
        a, b = (self._spec_file(tmp_path, f"{k}.json", 5, 3, 2, B) for k, B in zip("ab", glued))
        proc = _python(tmp_path, "-m", "qfla.cli", "iso", a, b, timeout=10)
        assert proc.returncode == 0, proc.stderr.decode()
        witness = matrix_from_json(json.loads(proc.stdout)["witness"]["map"], "map")
        L1, L2 = (build_quasi(make_spec(5, 3, 2, B)) for B in glued)
        assert rank(witness) == L1.dim and bracket_preserving(L1, L2, witness)

    def test_witness_past_the_digit_limit(self, run, tmp_path):
        # the witness of these 3,000-digit gluings holds numbers of over
        # 4,300 digits, which str() refuses under Python's default limit:
        # emission lifts the limit for its own writes and restores it
        glued = [["7" * 3000, "3" * 3000]], [["1/" + "7" * 3000, "3" * 3000]]
        a, b = (self._spec_file(tmp_path, f"{k}.json", 5, 3, 1, B) for k, B in zip("ab", glued))
        limit = sys.get_int_max_str_digits()
        code, out, err = run("iso", a, b)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)  # one JSON object, nothing after it
            witness = matrix_from_json(data["witness"]["map"], "map")
        finally:
            sys.set_int_max_str_digits(limit)
        assert data["isomorphic"] is True
        L1, L2 = (build_quasi(make_spec(5, 3, 1, B)) for B in glued)
        assert is_isomorphism(L1, L2, witness)
        code, out, err = run("iso", a, b, "--out", str(tmp_path / "missing" / "x.json"))
        assert (code, out) == (2, "") and err.startswith("error: --out:")
        assert sys.get_int_max_str_digits() == limit


class TestInputContract:
    @pytest.mark.parametrize(
        "field,data",
        [
            ("m", {"n": 5, "m": True, "r": True}),
            ("n", {"n": True, "m": 1, "r": 1}),
            ("B", {"n": 5, "m": 2, "r": 1, "B": [[True]]}),
        ],
    )
    def test_boolean_spec_fields_exit_2(self, run, tmp_path, field, data):
        # JSON true is not an integer, though Python's bool is an int subclass
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        code, out, err = run("related", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    # (field at fault, (n, m, r, B)); B None is left out of the file and the flags
    SPEC_REFUSALS = [
        ("r", (5, 2, 3, None)),
        ("m", (5, -1, 1, None)),
        ("r", (5, 2, 0, [])),
        ("n", (4, 1, 1, None)),
        ("B", (5, 2, 1, [["1"], ["1"]])),
        ("B", (5, 2, 1, None)),
        ("B", (5, 3, 2, [["0"], ["0"]])),
    ]
    REFUSAL_IDS = [
        "r_above_m", "m_negative", "r_zero", "n_even", "B_two_rows", "B_missing", "B_zero_column"
    ]

    @pytest.mark.parametrize("field,params", SPEC_REFUSALS, ids=REFUSAL_IDS)
    def test_spec_file_refusal_names_the_field(self, run, tmp_path, field, params):
        n, m, r, B = params
        data = {"n": n, "m": m, "r": r} if B is None else {"n": n, "m": m, "r": r, "B": B}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code, out, err = run("related", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("field,params", SPEC_REFUSALS, ids=REFUSAL_IDS)
    def test_build_refusal_names_the_field(self, run, field, params):
        n, m, r, B = params
        flags = ["--n", str(n), "--m", str(m), "--r", str(r)]
        code, out, err = run("build", *flags, *([] if B is None else ["--B", json.dumps(B)]))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize(
        "field,edit",
        [
            ("dim", lambda data: data.update(dim=True)),
            ("brackets", lambda data: data["brackets"][0].update(i=False)),
            ("value", lambda data: data["brackets"][0]["value"][0].__setitem__(0, True)),
            ("value", lambda data: data["brackets"][0]["value"][0].__setitem__(1, True)),
        ],
        ids=["dim", "i", "k", "scalar"],
    )
    def test_boolean_algebra_fields_exit_2(self, run, tmp_path, algebra521_file, field, edit):
        data = json.loads(open(algebra521_file).read())
        edit(data)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        code, out, err = run("check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize(
        "field,data",
        [
            ("brackets", {"dim": 3, "brackets": 7}),
            ("value", {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": 5}]}),
        ],
        ids=["brackets", "value"],
    )
    def test_non_array_brackets_exit_2(self, run, tmp_path, field, data):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(data))
        code, out, err = run("check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("verb", ["der", "weights", "aut-check"])
    def test_jacobi_failing_table_without_spec_exit_2(self, run, tmp_path, verb):
        # [e_2, [e_0, e_1]] = e_0 and the other two terms vanish; only `check`
        # reads a table without a spec, every other verb refuses it unread
        path = tmp_path / "nonlie.json"
        brackets = [{"i": 0, "j": 1, "value": [[3, "1"]]}, {"i": 2, "j": 3, "value": [[0, "1"]]}]
        path.write_text(json.dumps({"dim": 4, "brackets": brackets}))
        candidate = [str(path)] if verb == "aut-check" else []
        code, out, err = run(verb, str(path), *candidate)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: no gluing parameters found (need 'spec' or 'n'/'m'/'r')\n"

    @pytest.mark.parametrize("verb", ["der", "weights", "aut-check"])
    def test_table_without_spec_exit_2(self, run, tmp_path, verb):
        # a Lie table (the Heisenberg algebra) with no gluing parameters:
        # only `check` takes a bare table
        path = tmp_path / "heisenberg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [[2, "1"]]}]}))
        candidate = [str(path)] if verb == "aut-check" else []
        code, out, err = run(verb, str(path), *candidate)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: no gluing parameters found (need 'spec' or 'n'/'m'/'r')\n"

    @pytest.mark.parametrize(
        "field,data",
        [
            ("value", {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [[2, "1"], [2, "1"]]}]}),
            (
                "brackets",
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "value": [[2, "1"]]},
                        {"i": 0, "j": 1, "value": [[2, "5"]]},
                    ],
                },
            ),
            # zeros are dropped only after the repeats are looked for
            ("value", {"dim": 3, "brackets": [{"i": 0, "j": 1, "value": [[2, "0"], [2, "1"]]}]}),
            (
                "brackets",
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "value": [[2, "0"]]},
                        {"i": 0, "j": 1, "value": [[2, "1"]]},
                    ],
                },
            ),
            (
                "brackets",
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 0, "j": 1, "value": []},
                        {"i": 0, "j": 1, "value": [[2, "1"]]},
                    ],
                },
            ),
        ],
        ids=["value", "brackets", "value_first_zero", "brackets_first_zero", "brackets_first_empty"],
    )
    def test_duplicate_entries_exit_2(self, run, tmp_path, field, data):
        # a repeated entry is refused, not silently overwritten by the last one
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        code, out, err = run("check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("B", ["[" * 100_000, '[["1"'], ids=["too_deep", "malformed"])
    def test_unparsable_B_exit_2(self, run, B):
        code, out, err = run("build", "--n", "5", "--m", "2", "--r", "1", "--B", B)
        assert (code, out) == (2, "")
        assert err.startswith("error: B:")

    @pytest.mark.parametrize("where", ["B", "parameters", "algebra", "candidate"])
    def test_integer_past_the_digit_limit_exit_2(self, run, tmp_path, algebra521_file, where):
        # json.loads refuses an integer literal of over 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        huge = "7" * 5000
        path = str(tmp_path / "huge.json")
        if where == "B":
            argv, field = ["build", "--n", "5", "--m", "2", "--r", "1", "--B", f"[[{huge}]]"], "B"
        elif where == "parameters":
            argv, field = ["related", path], path
            Path(path).write_text(f'{{"n": {huge}, "m": 2, "r": 1, "B": [["1"]]}}')
        elif where == "algebra":
            argv, field = ["check", path], path
            Path(path).write_text(f'{{"dim": {huge}}}')
        else:
            argv, field = ["aut-check", algebra521_file, path], path
            Path(path).write_text(f'{{"images": {{"e_10": [[0, {huge}]]}}}}')
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["B", "images.e_10", "value"])
    def test_zero_denominator_names_the_field(self, run, tmp_path, algebra521_file, where):
        # "p/0" is a malformed scalar wherever a scalar is read
        if where == "B":
            argv = ["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["3/0"]]']
            text = "3/0"
        elif where == "value":
            data = json.loads(open(algebra521_file).read())
            data["brackets"][0]["value"][0][1] = text = "2/0"
            path = tmp_path / "zero.json"
            path.write_text(json.dumps(data))
            argv = ["check", str(path)]
        else:
            spec = make_spec(5, 2, 1, [["1"]])
            images = candidate_to_json(spec, [{}] * 2, [{}] * 2)
            images["images"]["e_10"][0] = text = "1/0"
            path = tmp_path / "zero.json"
            path.write_text(json.dumps(images))
            argv = ["aut-check", algebra521_file, str(path)]
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {where}: zero denominator in '{text}'\n"

    @pytest.mark.parametrize("where", ["B", "images.e_10", "value"])
    def test_exponent_notation_names_the_field(self, run, tmp_path, algebra521_file, where):
        # refused before any arithmetic: Fraction("1e99999999") would compute 10**99999999
        text = "1e99999999"
        path = tmp_path / "exponent.json"
        if where == "B":
            path.write_text(json.dumps({"n": 5, "m": 2, "r": 1, "B": [[text]]}))
            argv = ["related", str(path)]
        elif where == "value":
            data = json.loads(open(algebra521_file).read())
            data["brackets"][0]["value"][0][1] = text
            path.write_text(json.dumps(data))
            argv = ["check", str(path)]
        else:
            spec = make_spec(5, 2, 1, [["1"]])
            images = candidate_to_json(spec, [{}] * 2, [{}] * 2)
            images["images"]["e_10"][0] = text
            path.write_text(json.dumps(images))
            argv = ["aut-check", algebra521_file, str(path)]
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == f"error: {where}: exponent notation in '{text}' is not accepted\n"

    def test_brackets_contradicting_spec_exit_2(self, run, tmp_path, algebra521_file):
        data = json.loads(open(algebra521_file).read())
        data["brackets"] = []  # an abelian table tagged as N(Q_5, 2, 1)
        path = tmp_path / "abelian.json"
        path.write_text(dumps(data))
        for argv in (["der", str(path), "--compare", "--strict"], ["check", str(path)]):
            code, out, err = run(*argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: brackets:")

    @pytest.mark.parametrize("verb", ["iso", "related"])
    def test_spec_readers_check_the_brackets(self, run, tmp_path, algebra521_file, verb):
        # iso and related read only the spec of an algebra file, but a table
        # that contradicts it is refused as by every other verb
        data = json.loads(open(algebra521_file).read())
        data["brackets"] = []
        path = tmp_path / "abelian.json"
        path.write_text(dumps(data))
        second = [algebra521_file] if verb == "iso" else []
        code, out, err = run(verb, str(path), *second)
        assert (code, out) == (2, "")
        assert err == "error: brackets: the structure constants contradict the embedded spec\n"
        code, out, _ = run(verb, algebra521_file, *second)
        assert code == 0 and json.loads(out)

    @pytest.mark.parametrize("verb", ["check", "der", "aut-check", "iso", "related", "weights"])
    def test_spec_without_dim_is_read_as_an_algebra_file(self, run, tmp_path, spec521_file, verb):
        # an object with a spec is an algebra file: a table and labels beside
        # it are checked, never skipped because the dim is missing
        path = tmp_path / "dimless.json"
        brackets = [{"i": 0, "j": 1, "value": [[5, "7"]]}]
        spec = {"n": 5, "m": 1, "r": 1}
        path.write_text(json.dumps({"brackets": brackets, "labels": "garbage", "spec": spec}))
        second = [spec521_file] if verb in ("aut-check", "iso") else []
        code, out, err = run(verb, str(path), *second)
        assert (code, out, err) == (2, "", "error: dim: expected a nonnegative integer\n")

    @pytest.mark.parametrize("verb", ["check", "der", "aut-check", "iso", "related", "weights"])
    def test_parameter_file_with_other_keys_exit_2(self, run, tmp_path, spec521_file, verb):
        # a bare parameter file holds n, m, r and B alone: a table beside
        # them would be skipped unread, so the first other key is refused
        path = tmp_path / "extra.json"
        brackets = [{"i": 0, "j": 1, "value": [[5, "7"]]}]
        path.write_text(json.dumps({"n": 5, "m": 1, "r": 1, "labels": "garbage", "brackets": brackets}))
        second = [spec521_file] if verb in ("aut-check", "iso") else []
        code, out, err = run(verb, str(path), *second)
        assert (code, out) == (2, "")
        assert err == "error: labels: not a gluing parameter (expected n, m, r and B)\n"

    @pytest.mark.parametrize("verb", ["check", "der", "aut-check", "iso", "related", "weights"])
    def test_algebra_file_with_other_keys_exit_2(self, run, tmp_path, algebra521_file, verb):
        data = json.loads(open(algebra521_file).read())
        data["note"] = "copied by hand"
        path = tmp_path / "noted.json"
        path.write_text(dumps(data))
        second = [algebra521_file] if verb in ("aut-check", "iso") else []
        code, out, err = run(verb, str(path), *second)
        assert (code, out) == (2, "")
        assert err == "error: note: not an algebra field (expected dim, labels, brackets and spec)\n"

    def test_misspelt_brackets_exit_2(self, run, tmp_path):
        # "bracket" for "brackets" would read as an abelian table and pass
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"dim": 3, "bracket": [{"i": 0, "j": 1, "value": [[2, "1"]]}]}))
        code, out, err = run("check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: bracket: not an algebra field (expected dim, labels, brackets and spec)\n"

    @pytest.mark.parametrize("verb", ["check", "der", "aut-check", "iso", "related", "weights"])
    def test_embedded_spec_with_other_keys_exit_2(self, run, tmp_path, algebra521_file, verb):
        data = json.loads(open(algebra521_file).read())
        data["spec"]["note"] = "copied by hand"
        path = tmp_path / "noted.json"
        path.write_text(dumps(data))
        second = [algebra521_file] if verb in ("aut-check", "iso") else []
        code, out, err = run(verb, str(path), *second)
        assert (code, out) == (2, "")
        assert err == "error: note: not a gluing parameter (expected n, m, r and B)\n"

    @pytest.mark.parametrize(
        "labels",
        [["a", "b", "c", "d"], ["x"] * 17, [str(k) for k in range(16)] + [7], "abc"],
        ids=["count", "repeated", "not_a_string", "not_an_array"],
    )
    def test_labels_that_do_not_name_the_basis_exit_2(self, run, tmp_path, labels):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"dim": 17, "labels": labels}))
        code, out, err = run("check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: labels: expected an array of 17 distinct strings\n"

    @pytest.mark.parametrize("verb", ["check", "related"])
    def test_huge_dim_is_refused_before_it_is_allocated(self, run, tmp_path, verb):
        # a table of 10**30 basis vectors would exhaust memory before any check
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 10**30, "labels": ["a", "b", "c", "d"]}))
        code, out, err = run(verb, str(path))
        assert (code, out) == (2, "")
        field = "dim" if verb == "check" else path
        assert err.startswith(f"error: {field}: ")

    def test_zero_entries_of_a_table_without_spec_change_nothing(self, run, tmp_path):
        # Q_5 in its x-basis, once bare and once with zero coefficients and an
        # all-zero bracket added
        brackets = [{"i": 0, "j": i, "value": [[i + 1, "1"]]} for i in range(1, 5)]
        brackets += [{"i": 1, "j": 4, "value": [[5, "-1"]]}, {"i": 2, "j": 3, "value": [[5, "1"]]}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"dim": 6, "brackets": brackets}))
        brackets[0]["value"] += [[3, "0"], [4, "0/5"]]
        brackets.append({"i": 1, "j": 2, "value": [[0, "0"], [5, "0/7"]]})
        zeros = tmp_path / "zeros.json"
        zeros.write_text(json.dumps({"dim": 6, "brackets": brackets}))
        expected = run("check", str(bare))
        assert expected[0] == 0 and json.loads(expected[1])["filiform"] is True
        assert run("check", str(zeros)) == expected

    def test_spec_tagged_table_compares_nonzero_entries(self, run, tmp_path, algebra521_file):
        # zero coefficients and empty brackets in the file are not contradictions
        data = json.loads(open(algebra521_file).read())
        data["brackets"][0]["value"].append([3, "0"])
        data["brackets"].append({"i": 0, "j": 5, "value": []})
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(data))
        code, out, _ = run("check", str(path))
        assert code == 0
        assert out == run("check", algebra521_file)[1]

    def test_search_cap_refusal_names_m(self, run, tmp_path):
        path = tmp_path / "n5131.json"
        path.write_text(dumps(spec_to_json(make_spec(5, 13, 1, [["1"] * 12]))))
        code, out, err = run("iso", str(path), str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: m:")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_file_newlines_read_as_lf(self, run, tmp_path, newline):
        """A file's "\\r\\n" and "\\r" read as "\\n", so a well-formed file
        parses alike and a malformed one is refused at the same position."""
        good = b'{\n  "n": 5,\n  "m": 2,\n  "r": 1,\n  "B": [["1"]]\n}\n'
        bad = b'{\n  "n": 5,\n  "m": 2\n  "r": 1\n}\n'
        for name, content in (("good", good), ("bad", bad)):
            lf, other = tmp_path / f"{name}-lf.json", tmp_path / f"{name}-other.json"
            lf.write_bytes(content)
            other.write_bytes(content.replace(b"\n", newline))
            code, out, err = run("related", str(other))
            assert (code, out, err.replace(str(other), str(lf))) == run("related", str(lf))
            assert code == (0 if name == "good" else 2)
        assert "line 4 column 3 (char 23)" in err

    def test_unwritable_out_exit_2(self, run, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            "build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]', "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --out:")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "content",
        [b'\xff\xfe{"n":5}', b"[" * 100_000],
        ids=["not_utf8", "too_deep"],
    )
    def test_unreadable_json_exit_2(self, run, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run("related", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}:")

    # (field at fault, argv); no file is read, so none of the paths exist
    ARGV_REFUSALS = [
        ("verb", []),
        ("verb", ["frob", "a.json"]),
        ("verb", ["--n", "5", "build"]),
        ("n", ["build", "--n", "x", "--m", "1", "--r", "1"]),
        ("n", ["build", "--m", "1", "--r", "1"]),
        ("m", ["build", "--n", "5", "--m=", "--r", "1"]),
        ("r", ["build", "--n", "5", "--m", "1", "--r"]),
        ("out", ["check", "a.json", "--out", "--strict"]),
        ("algebra", ["check"]),
        ("candidate", ["aut-check", "a.json"]),
        ("first", ["iso"]),
        ("second", ["iso", "a.json"]),
        ("spec", ["related", "--out", "x.json"]),
        ("b.json", ["related", "a.json", "b.json"]),
        ("--bogus", ["weights", "a.json", "--bogus"]),
        ("--comp", ["der", "a.json", "--comp"]),
        ("--strict=yes", ["check", "--strict=yes", "a.json"]),
    ]

    @pytest.mark.parametrize("field,argv", ARGV_REFUSALS)
    def test_argv_refusal_is_one_line_naming_the_field(self, run, field, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"error: {field}: ")

    def test_argv_order_and_option_forms_do_not_matter(self, run, algebra521_file):
        build = ["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]']
        expected = run(*build)
        assert expected[0] == 0
        assert run("build", '--B=[["1"]]', "--r", "1", "--m=2", "--n=5") == expected
        assert run("der", algebra521_file, "--compare") == run("der", "--compare", algebra521_file)

    def test_zero_algebra_check(self, run, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 0}')
        code, out, _ = run("check", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["lcs_dims"], data["min_generators"]) == ([0], 0)


class TestEmission:
    """Output is one text, written to --out and then to stdout, so a --out
    that fails leaves stdout empty."""

    @pytest.fixture(scope="class")
    def algebra1562_file(self, tmp_path_factory):
        spec = make_spec(15, 6, 2, [["1", "1", "0", "0"], ["0", "0", "1", "1"]])
        path = tmp_path_factory.mktemp("emit") / "a1562.json"
        path.write_text(dumps(algebra_to_json(build_quasi(spec), spec)))
        return str(path)

    def test_stdout_and_out_hold_the_same_bytes(self, run, tmp_path, algebra1562_file):
        out_path = tmp_path / "der.json"
        code, out, _ = run("der", algebra1562_file, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == out.encode("utf-8")
        data = json.loads(out)
        assert data["dim_oracle"] == len(data["lambda_table"]) == data["dim_formula"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("verb", ["related", "der"])
    def test_a_full_disk_exits_2(self, run, algebra1562_file, verb):
        # related's text fails when the file is closed, der's on the write;
        # either way nothing has reached stdout
        code, out, err = run(verb, algebra1562_file, "--out", "/dev/full")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --out: ") and err.count("\n") == 1


class TestRelatedAndWeights:
    def test_related(self, run, spec521_file):
        code, out, _ = run("related", spec521_file)
        assert code == 0
        assert json.loads(out)["matrix"] == [["-1", "1"]]

    def test_weights(self, run, algebra521_file):
        code, out, _ = run("weights", algebra521_file)
        assert code == 0
        data = json.loads(out)
        assert data["torus_size"] == 3
        assert sum(entry["dim"] for entry in data["weights"]) == 11


class TestInputFiles:
    def test_a_bare_spec_file_is_read_once(self, run, spec521_file, monkeypatch):
        import qfla.cli

        reads = []
        read_json = qfla.cli._read_json
        monkeypatch.setattr(qfla.cli, "_read_json", lambda path: reads.append(path) or read_json(path))
        code, _, _ = run("weights", spec521_file)
        assert code == 0
        assert reads == [spec521_file]


class TestDeterminism:
    def test_battery_is_byte_stable(self, run, tmp_path, algebra521_file, spec521_file):
        spec332a = tmp_path / "s332a.json"
        spec332a.write_text(dumps(spec_to_json(make_spec(5, 3, 2, [["1"], ["1"]]))))
        spec332b = tmp_path / "s332b.json"
        spec332b.write_text(dumps(spec_to_json(make_spec(5, 3, 2, [["2"], ["1"]]))))
        spec = make_spec(5, 2, 1, [["1"]])
        cand = make_scaling_automorphism(spec, [1, 1], [2, 2])
        cand_file = tmp_path / "cand.json"
        cand_file.write_text(dumps(candidate_to_json(spec, cand.e0, cand.e1)))
        battery = [
            ("build", "--n", "5", "--m", "1", "--r", "1"),
            ("build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]'),
            ("build", "--n", "7", "--m", "2", "--r", "1", "--B", '[["1"]]'),
            ("build", "--n", "5", "--m", "3", "--r", "2", "--B", '[["1"],["0"]]'),
            ("check", algebra521_file),
            ("der", algebra521_file, "--compare"),
            ("aut-check", algebra521_file, str(cand_file)),
            ("iso", str(spec332a), str(spec332b)),
            ("iso", spec521_file, spec521_file),
            ("related", str(spec332a)),
            ("weights", algebra521_file),
        ]
        outputs = []
        for _ in range(2):
            run_outputs = []
            for argv in battery:
                code, out, _ = run(*argv)
                assert code == 0
                run_outputs.append(out)
            outputs.append(run_outputs)
        assert outputs[0] == outputs[1]


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[verb, "--help"] for verb in VERBS])
    def test_help_prints_usage_to_stdout(self, run, argv):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        verbs = VERBS if len(argv) == 1 else [argv[0]]
        usage = [line for line in out.splitlines() if line.startswith("usage: qfla ")]
        assert [line.split()[2] for line in usage] == list(verbs)
        for line, verb in zip(usage, verbs):
            _, positionals, options = VERBS[verb]
            assert all(name in line.split() for name in positionals)
            assert all(f"--{name}" in line for name in options)


SRC = str(Path(qfla.__file__).resolve().parent.parent)

# Runs every verb once through qfla.cli.main in its own interpreter, then
# prints which argv-parsing modules it imported.
EVERY_VERB = """
import contextlib, io, sys
from qfla.automorphisms import make_scaling_automorphism
from qfla.builder import make_spec
from qfla.cli import VERBS, main
from qfla.jsonio import candidate_to_json, dumps, spec_to_json

spec = make_spec(5, 2, 1, [["1"]])
cand = make_scaling_automorphism(spec, [1, 1], [2, 2])
open("s.json", "w").write(dumps(spec_to_json(spec)))
open("c.json", "w").write(dumps(candidate_to_json(spec, cand.e0, cand.e1)))
battery = [
    ["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]', "--out", "a.json"],
    ["check", "a.json"], ["der", "a.json", "--compare"], ["aut-check", "a.json", "c.json"],
    ["iso", "s.json", "s.json"], ["related", "s.json"], ["weights", "a.json"],
]
assert [argv[0] for argv in battery] == list(VERBS)
with contextlib.redirect_stdout(io.StringIO()):
    assert [main(argv) for argv in battery] == [0] * len(battery)
print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def _python(cwd, *args, timeout=120):
    """A fresh interpreter that imports qfla from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=timeout
    )


# Runs qfla.cli.main on its argv under a 1 GiB address-space limit, so an
# input that allocates by its size fails with MemoryError, not by swapping.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qfla.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestSizeCap:
    """Sizes that exhaust memory are refused by ``builder.MAX_DIM``."""

    def test_check_of_a_huge_bare_table(self, tmp_path):
        # 17 bytes: an honest abelian algebra of dim 10^8
        (tmp_path / "huge.json").write_text(json.dumps({"dim": 10**8}))
        proc = _python(tmp_path, "-c", CAPPED, "check", "huge.json", timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: dim: 100000000 exceeds 10000\n"

    def test_build_of_a_huge_gluing(self, tmp_path):
        argv = ["build", "--n", "5", "--m", "50000", "--r", "50000"]
        proc = _python(tmp_path, "-c", CAPPED, *argv, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            b"error: dim: m*n + r = 300000 exceeds 10000 (n=5, m=50000, r=50000)\n"
        )

    def test_check_of_a_wide_gluing(self, tmp_path):
        # 31 bytes: dim 9,996, under the cap.  The series and the split
        # bracket per nonzero bracket, not per pair, so this is answered.
        n, m, r = 5, 1666, 1666
        (tmp_path / "wide.json").write_text(json.dumps({"n": n, "m": m, "r": r}))
        proc = _python(tmp_path, "-c", CAPPED, "check", "wide.json", timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        data = json.loads(proc.stdout)
        assert data["quasi_cyclic"]["dims"] == [2 * m] + [m] * (n - 2) + [r]
        assert data["lcs_dims"][:4] == [9996, 6664, 4998, 3332]

    def test_check_of_a_wide_glued_gluing_matches_the_two_walks(self, tmp_path):
        n, m, r = 5, 400, 200  # glued copy r + k on top k
        B = [["1" if k == t else "0" for k in range(m - r)] for t in range(r)]
        (tmp_path / "wide.json").write_text(json.dumps({"n": n, "m": m, "r": r, "B": B}))
        proc = _python(tmp_path, "-c", CAPPED, "check", "wide.json", timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        data = json.loads(proc.stdout)
        spec = make_spec(n, m, r, B)
        assert data == {"jacobi": True, **two_walk_report(build_quasi(spec), spec)}


class TestEntryPoint:
    def test_module_entry_reads_sys_argv(self, run, tmp_path):
        argv = ["build", "--n", "5", "--m", "2", "--r", "1", "--B", '[["1"]]']
        proc = _python(tmp_path, "-m", "qfla.cli", *argv)
        code, out, _ = run(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")

    def test_no_verb_imports_argparse_gettext_or_locale(self, tmp_path):
        proc = _python(tmp_path, "-c", EVERY_VERB)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"[]\n"
