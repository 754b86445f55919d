"""Command-line front end: verbs, JSON round trips, exit codes, determinism."""
import json

import pytest

from qfla import build_quasi, make_spec
from qfla.automorphisms import make_scaling_automorphism
from qfla.cli import main
from qfla.jsonio import algebra_to_json, candidate_to_json, dumps, spec_to_json


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

    def test_malformed_candidate_exit_2(self, run, tmp_path, algebra521_file):
        path = tmp_path / "broken.json"
        path.write_text('{"images": {"e_10": ["1"]}}')
        code, _, err = run("aut-check", algebra521_file, str(path))
        assert code == 2
        assert "images" in err


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
        # reports a failing table, every other verb refuses it as input
        path = tmp_path / "nonlie.json"
        brackets = [{"i": 0, "j": 1, "value": [[3, "1"]]}, {"i": 2, "j": 3, "value": [[0, "1"]]}]
        path.write_text(json.dumps({"dim": 4, "brackets": brackets}))
        candidate = [str(path)] if verb == "aut-check" else []
        code, out, err = run(verb, str(path), *candidate)
        assert (code, out) == (2, "")
        assert err == "error: brackets: Jacobi identity fails on basis triple (0, 1, 2)\n"

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
        ],
        ids=["value", "brackets"],
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

    def test_non_integer_search_cap_exit_2(self, run, monkeypatch, spec521_file):
        monkeypatch.setenv("QFLA_MAX_M", "abc")
        code, out, err = run("iso", spec521_file, spec521_file)
        assert (code, out) == (2, "")
        assert "QFLA_MAX_M" in err

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

    def test_zero_algebra_check(self, run, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 0}')
        code, out, _ = run("check", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["lcs_dims"], data["min_generators"]) == ([0], 0)


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
