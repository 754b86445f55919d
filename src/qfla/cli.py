"""Command-line front end.

Verbs: build | check | der | aut-check | iso | related | weights.  Every verb
writes deterministic JSON (sorted keys, exact "p/q" scalars) to stdout.  Exit
status: 0 on success, 1 for mathematical "no" verdicts under --strict, 2 for
input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .builder import (
    BadSpec,
    QuasiQnSpec,
    block_structure,
    build_quasi,
    make_spec,
    related_matrix_of,
)
from .derivations import (
    NonBlockForm,
    der_dimension,
    derivation_oracle,
    nilpotent_basis,
    top_weights,
    torus_basis,
    weight_decomposition,
    weight_torus,
)
from .automorphisms import (
    automorphism_conditions,
    extend_endomorphism,
    is_automorphism,
)
from .iso import BadSearchCap, SearchTooLarge, iso_decide
from .jsonio import (
    BadInput,
    algebra_from_json,
    algebra_to_json,
    candidate_from_json,
    condition_verdict_to_json,
    dumps,
    iso_verdict_to_json,
    matrix_from_json,
    matrix_to_json,
    related_to_json,
    spec_from_json,
)
from .liecore import (
    JacobiViolation,
    NotDirect,
    NotNilpotent,
    NotSpanning,
    is_filiform,
    lower_central_series,
    minimal_generator_count,
    quasi_cyclic_split,
)
from .linalg import ONE, column_span, scalar_to_str


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path}: malformed JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 ({exc})") from exc
    except RecursionError:
        raise BadInput(f"{path}: JSON nested too deeply") from None


def _load_spec(data, path: str) -> QuasiQnSpec:
    """The gluing parameters of the parsed file ``path``: a bare parameter
    file or an algebra file embedding one, whose brackets must then match
    the spec."""
    if isinstance(data, dict) and "dim" in data:
        spec = algebra_from_json(data)[1]
        if spec is not None:
            return spec
    elif isinstance(data, dict) and "spec" in data:
        return spec_from_json(data["spec"])
    elif isinstance(data, dict) and "n" in data:
        return spec_from_json(data)
    raise BadInput(f"{path}: no gluing parameters found (need 'spec' or 'n'/'m'/'r')")


def _load_algebra(path: str):
    data = _read_json(path)
    if isinstance(data, dict) and "dim" in data:
        return algebra_from_json(data)
    spec = _load_spec(data, path)
    return build_quasi(spec), spec


def _emit(args, payload: dict) -> None:
    text = dumps(payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadInput(f"--out: {exc}") from exc
    sys.stdout.write(text)


def _cmd_build(args) -> int:
    B = None
    if args.B:
        try:
            B = matrix_from_json(json.loads(args.B), "B")
        except json.JSONDecodeError as exc:
            raise BadInput(f"B: malformed JSON ({exc})") from exc
        except RecursionError:
            raise BadInput("B: JSON nested too deeply") from None
    try:
        spec = make_spec(args.n, args.m, args.r, B)
    except BadSpec as exc:
        raise BadInput(str(exc)) from exc
    _emit(args, algebra_to_json(build_quasi(spec), spec))
    return 0


def _cmd_check(args) -> int:
    try:
        L, spec = _load_algebra(args.algebra)
    except JacobiViolation as exc:
        _emit(
            args,
            {
                "jacobi": False,
                "detail": str(exc),
                "lcs_dims": None,
                "filiform": None,
                "min_generators": None,
                "quasi_cyclic": None,
            },
        )
        return 1 if args.strict else 0
    report = {"jacobi": True}  # loading ran the Jacobi check and raised on failure
    try:
        chain = lower_central_series(L)
        report["lcs_dims"] = [space.cols for space in chain]
        report["filiform"] = is_filiform(chain)
        report["min_generators"] = minimal_generator_count(chain)
    except NotNilpotent as exc:
        report.update(lcs_dims=None, filiform=None, min_generators=None, detail=str(exc))
    report["quasi_cyclic"] = None
    if spec is not None and report.get("lcs_dims") is not None:
        gens = [{spec.gen_index(s, t): ONE} for s in range(1, spec.m + 1) for t in (0, 1)]
        try:
            chain = quasi_cyclic_split(L, column_span(gens, L.dim))
            report["quasi_cyclic"] = {"dims": [space.cols for space in chain]}
        except (NotDirect, NotSpanning) as exc:
            report["quasi_cyclic"] = {"dims": None, "detail": str(exc)}
    _emit(args, report)
    return 0


def _entries(M) -> dict:
    """The nonzero entries of M as one sparse vector, indexed row-major."""
    return {i * M.cols + j: x for j, col in enumerate(M.columns()) for i, x in col.items()}


def _cmd_der(args) -> int:
    L, spec = _load_algebra(args.algebra)
    if spec is None:
        raise BadInput(f"{args.algebra}: 'spec' field required for derivation analysis")
    oracle = derivation_oracle(L)
    torus = torus_basis(spec)
    report = {
        "dim_oracle": len(oracle),
        "torus": [matrix_to_json(D) for D in torus],
        "lambda_table": [
            [scalar_to_str(w) for w in top_weights(spec, D)] for D in oracle
        ],
    }
    blocks = block_structure(spec)
    if blocks is None:
        report["dim_formula"] = None
        report["nilpotent"] = None
    else:
        nilpotent = nilpotent_basis(spec)
        report["dim_formula"] = der_dimension(spec)
        report["nilpotent"] = [matrix_to_json(D) for D in nilpotent]
        if args.compare:
            explicit = column_span([_entries(D) for D in torus + nilpotent], L.dim**2)
        del nilpotent  # its dim^2-wide matrices need not outlive the oracle's span or the dump
    agree = None
    if args.compare:
        if blocks is None:
            agree = False
        else:
            oracle_span = column_span([_entries(D) for D in oracle], L.dim**2)
            agree = report["dim_formula"] == report["dim_oracle"] and explicit == oracle_span
        report["agree"] = agree
    _emit(args, report)
    if args.compare and args.strict and not agree:
        return 1
    return 0


def _cmd_aut_check(args) -> int:
    L, spec = _load_algebra(args.algebra)
    if spec is None:
        raise BadInput(f"{args.algebra}: 'spec' field required for automorphism checking")
    candidate = candidate_from_json(_read_json(args.candidate), spec)
    verdict = automorphism_conditions(spec, candidate)
    brute = is_automorphism(L, extend_endomorphism(spec, L, candidate))
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
    _emit(args, related_to_json(related_matrix_of(spec)))
    return 0


def _cmd_weights(args) -> int:
    L, spec = _load_algebra(args.algebra)
    if spec is None:
        raise BadInput(f"{args.algebra}: 'spec' field required for the weight table")
    torus = weight_torus(spec)
    decomposition = weight_decomposition(L, torus)
    table = [
        {"weight": [scalar_to_str(x) for x in w], "dim": space.cols}
        for w, space in sorted(decomposition.items())
    ]
    _emit(args, {"torus_size": len(torus), "weights": table})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfla",
        description="Exact tools for the glued filiform algebras N(Q_n, m, r)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="construct an algebra from gluing parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--B", help='gluing matrix as JSON, e.g. \'[["1"]]\'')
    p.add_argument("--out", help="also write the JSON to this file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="structural diagnostics of an algebra file")
    p.add_argument("algebra")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("der", help="derivation algebra report")
    p.add_argument("algebra")
    p.add_argument("--compare", action="store_true", help="cross-check oracle vs closed form")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_der)

    p = sub.add_parser("aut-check", help="test a candidate automorphism")
    p.add_argument("algebra")
    p.add_argument("candidate")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_aut_check)

    p = sub.add_parser("iso", help="decide isomorphism of two gluings")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("related", help="annihilator matrix of the gluing")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_related)

    p = sub.add_parser(
        "weights",
        help="joint eigenspace table of the (m+1)-member torus: Grading and the CopyWeights",
    )
    p.add_argument("algebra")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_weights)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (BadInput, BadSearchCap, BadSpec, NonBlockForm, SearchTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacobiViolation as exc:  # from a file without a spec; `check` reports it instead
        print(f"error: brackets: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
