"""qfla: exact tools for the glued filiform algebras N(Q_n, m, r).

  build      an algebra from gluing parameters; --B is the gluing matrix as JSON
  check      Jacobi, LCS dims, generators and splitting of an algebra file
  der        the derivation algebra; --compare checks the oracle against the closed form
  aut-check  a candidate automorphism, by its conditions and by brute force
  iso        isomorphism of two gluings: a witness or a reason
  related    the (m-r) x m top-relation matrix of a gluing
  weights    the weight spaces of Grading and the CopyWeights

Positionals and options come in any order: "--name value" or "--name=value",
a flag as "--name", never abbreviated.  Each verb writes deterministic JSON to
stdout and to --out.  Exit status: 0 on success, 1 for a mathematical "no"
under --strict, 2 for input errors, reported on stderr as "error: <field>: ...".
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from .builder import BadInput, QuasiQnSpec, build_quasi, make_spec, related_matrix
from .derivations import (
    der_dimension,
    derivation_oracle,
    nilpotent_basis,
    top_weights,
    torus_basis,
    weight_decomposition,
)
from .automorphisms import automorphism_conditions, extend_through_grading
from .iso import iso_decide
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    candidate_from_json,
    condition_verdict_to_json,
    iso_verdict_to_json,
    matrix_from_json,
    pieces,
    spec_from_json,
)
from .liecore import (
    JacobiViolation,
    NotNilpotent,
    NotQuasiCyclic,
    is_filiform,
    is_isomorphism,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from .linalg import Matrix, spans_kernel


def _loads(text: str, field: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise BadInput(f"{field}: malformed JSON ({exc})") from exc
    except RecursionError:
        raise BadInput(f"{field}: JSON nested too deeply") from None


def _read_json(path: str):
    """The parsed file: its bytes decoded as UTF-8 once, with the universal
    newlines of a text-mode read ("\r\n" and "\r" become "\n")."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise BadInput(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 ({exc})") from exc
    return _loads(text.replace("\r\n", "\n").replace("\r", "\n"), path)


def _load_spec(data, path: str) -> QuasiQnSpec:
    """The gluing parameters of the parsed file ``path``: a bare parameter
    file or an algebra file embedding one.  Any object with a ``spec`` is
    read as an algebra file, so its table must pass every check and match
    the spec.  An algebra file without one is refused before it is read."""
    if isinstance(data, dict) and "spec" in data:
        return algebra_from_json(data)[1]
    if isinstance(data, dict) and "n" in data and "dim" not in data:
        return spec_from_json(data)
    raise BadInput(f"{path}: no gluing parameters found (need 'spec' or 'n'/'m'/'r')")


def _load_algebra(path: str):
    data = _read_json(path)
    if isinstance(data, dict) and "dim" in data:
        return algebra_from_json(data)
    spec = _load_spec(data, path)
    return build_quasi(spec), spec


def _emit(args, payload: dict) -> None:
    """Write payload's JSON text to --out, as bytes, and to stdout piece by
    piece (see ``jsonio.pieces``), so no whole text is held.  --out is
    opened before anything is written, so a path that cannot be opened
    leaves stdout empty; a write that fails later, as on a full disk, exits
    2 too, and stdout may then hold a partial text."""
    if not args.out:
        for piece in pieces(payload):
            sys.stdout.write(piece)
        return
    try:
        with open(args.out, "wb") as fh:
            for piece in pieces(payload):
                fh.write(piece.encode())
                sys.stdout.write(piece)
    except OSError as exc:
        raise BadInput(f"--out: {exc}") from exc


def _cmd_build(args) -> int:
    B = matrix_from_json(_loads(args.B, "B"), "B") if args.B else None
    spec = make_spec(args.n, args.m, args.r, B)
    _emit(args, algebra_to_json(build_quasi(spec), spec))
    return 0


def _cmd_check(args) -> int:
    report = dict.fromkeys(("lcs_dims", "filiform", "min_generators", "quasi_cyclic"))
    try:
        L, spec = _load_algebra(args.algebra)
    except JacobiViolation as exc:
        _emit(args, {**report, "jacobi": False, "detail": str(exc)})
        return 1 if args.strict else 0
    report["jacobi"] = True  # loading ran the Jacobi check and raised on failure
    try:
        chain = lower_central_series(L)
        report["lcs_dims"] = [space.cols for space in chain]
        report["filiform"] = is_filiform(chain)
        report["min_generators"] = minimal_generator_count(chain)
    except NotNilpotent as exc:
        report["detail"] = str(exc)
    if spec is not None and report["lcs_dims"] is not None:
        gens = [{spec.gen_index(s, t): 1} for s in range(1, spec.m + 1) for t in (0, 1)]
        try:
            chain = quasi_cyclic_split(L, Matrix.from_columns(gens, L.dim))
            report["quasi_cyclic"] = {"dims": [space.cols for space in chain]}
        except NotQuasiCyclic as exc:
            report["quasi_cyclic"] = {"dims": None, "detail": str(exc)}
    _emit(args, report)
    return 0


def _entries(M) -> dict:
    """The nonzero entries of M as one sparse vector, indexed row-major."""
    return {i * M.cols + j: x for j, col in enumerate(M.columns()) for i, x in col.items()}


def _cmd_der(args) -> int:
    spec = _load_spec(_read_json(args.algebra), args.algebra)
    oracle = derivation_oracle(build_quasi(spec))  # flat kernel vectors, a * dim + b
    torus = torus_basis(spec)
    nilpotent = nilpotent_basis(spec)  # None off block form, as is der_dimension
    report = {
        "dim_oracle": len(oracle),
        "torus": torus,
        "lambda_table": [tuple(map(Fraction, top_weights(spec, D))) for D in oracle],
        "dim_formula": der_dimension(spec),
        "nilpotent": nilpotent,
    }
    if args.compare:
        report["agree"] = (
            nilpotent is not None
            and report["dim_formula"] == report["dim_oracle"]
            and spans_kernel([_entries(D) for D in torus + nilpotent], oracle)
        )
    _emit(args, report)
    return 1 if args.compare and args.strict and not report["agree"] else 0


def _cmd_aut_check(args) -> int:
    spec = _load_spec(_read_json(args.algebra), args.algebra)
    L = build_quasi(spec)
    candidate = candidate_from_json(_read_json(args.candidate), spec)
    verdict = automorphism_conditions(spec, candidate)
    brute = is_isomorphism(L, L, extend_through_grading(spec, L, candidate))
    _emit(
        args,
        {
            "conditions": condition_verdict_to_json(verdict),
            "brute_force": brute,
            "agree": verdict.ok == brute,
        },
    )
    return 1 if args.strict and not verdict.ok else 0


def _cmd_iso(args) -> int:
    spec1 = _load_spec(_read_json(args.first), args.first)
    spec2 = _load_spec(_read_json(args.second), args.second)
    verdict = iso_decide(spec1, spec2)
    _emit(args, iso_verdict_to_json(verdict))
    return 1 if args.strict and not verdict.isomorphic else 0


def _cmd_related(args) -> int:
    spec = _load_spec(_read_json(args.spec), args.spec)
    _emit(args, {"m": spec.m, "r": spec.r, "matrix": related_matrix(spec.beta)})
    return 0


def _cmd_weights(args) -> int:
    spec = _load_spec(_read_json(args.algebra), args.algebra)
    L = build_quasi(spec)
    torus = torus_basis(spec)[: spec.m + 1]  # Grading and the CopyWeights
    decomposition = weight_decomposition(L, torus)
    table = [
        {"weight": tuple(map(Fraction, w)), "dim": dim}
        for w, dim in sorted(decomposition.items())
    ]
    _emit(args, {"torus_size": len(torus), "weights": table})
    return 0


# verb -> (handler, positional names, {option: kind}).  An int option is
# required; a str option or a bool flag that is left out reads None.
VERBS = {
    "build": (_cmd_build, (), {"n": int, "m": int, "r": int, "B": str, "out": str}),
    "check": (_cmd_check, ("algebra",), {"strict": bool, "out": str}),
    "der": (_cmd_der, ("algebra",), {"compare": bool, "strict": bool, "out": str}),
    "aut-check": (_cmd_aut_check, ("algebra", "candidate"), {"strict": bool, "out": str}),
    "iso": (_cmd_iso, ("first", "second"), {"strict": bool, "out": str}),
    "related": (_cmd_related, ("spec",), {"out": str}),
    "weights": (_cmd_weights, ("algebra",), {"out": str}),
}


def _help(verbs: dict) -> int:
    """Print each verb's synopsis, read off its row of VERBS, then the module docstring."""
    for verb, (_, positionals, options) in verbs.items():
        words = ["usage: qfla", verb, *positionals]
        for name, kind in options.items():
            word = f"--{name}" if kind is bool else f"--{name} {name.upper()}"
            words.append(word if kind is int else f"[{word}]")
        print(" ".join(words))
    print(f"\n{__doc__}", end="")
    return 0


def _parse(argv: list):
    """The handler for argv and its argument.  Every refusal is a ``BadInput``
    naming the verb, option, positional or token at fault."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, VERBS
    if not argv or argv[0] not in VERBS:
        got = f"unknown {argv[0]!r}" if argv else "missing"
        raise BadInput(f"verb: {got}; expected one of {', '.join(VERBS)}")
    verb, *rest = argv
    handler, positionals, options = VERBS[verb]
    if "-h" in rest or "--help" in rest:
        return _help, {verb: VERBS[verb]}
    args = dict.fromkeys(options)
    given, tokens = [], iter(rest)
    for token in tokens:
        name, eq, value = token[2:].partition("=")
        kind = options.get(name)
        if not token.startswith("--"):
            given.append(token)
        elif kind is None or (kind is bool and eq):
            raise BadInput(f"{token}: not an option of {verb} (see 'qfla {verb} -h')")
        elif kind is bool:
            args[name] = True
        else:
            value = value if eq else next(tokens, "--")  # at the end: no value
            if value.startswith("--"):
                raise BadInput(f"{name}: --{name} needs a value")
            try:
                args[name] = kind(value)
            except ValueError:
                raise BadInput(f"{name}: not an integer: {value!r}") from None
    if len(given) > len(positionals):
        raise BadInput(f"{given[len(positionals)]}: unexpected argument to {verb}")
    if len(given) < len(positionals):
        raise BadInput(f"{positionals[len(given)]}: missing")
    for name, kind in options.items():
        if kind is int and args[name] is None:
            raise BadInput(f"{name}: required option --{name} missing")
    return handler, SimpleNamespace(**args, **dict(zip(positionals, given)))


def main(argv: list | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
