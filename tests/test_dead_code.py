"""Guard against dead code: every public top-level function or class in
``src/qfla``, and every public method or property of those classes, is
referenced from elsewhere in ``src/``, or is listed below.

A reference is a name or attribute use outside the definition's own body, in
any module but ``__init__.py`` (a re-export is not a caller).  Methods are
matched by name alone, so a use of ``identity`` counts for every class with
an ``identity`` method.

Every name has one home, the module that defines it: the package itself
binds only ``build_quasi``, which the benchmark harness reads off it.

Knobs count too: every parameter with a default, in a function or method of
``src/``, is passed by some call in ``src/``, by keyword or by position, or
is listed in ``UNPASSED_DEFAULTS`` with its reason.  A default that no call
overrides is a switch that only tests turn.  And some call in ``src/``,
``tests/`` or ``scripts/`` leaves it out: a default that every call passes
is a parameter that only looks optional.  Nor does ``src/`` read the
environment, a knob no call shows.

Leftovers count too: every name a module imports is used in that module, and
every private top-level function or module constant has a use somewhere in
``src/``.  Python calls dunder methods itself, so no name refers to them: each
one a class defines must be listed in ``DUNDERS`` with its reason.  No
module imports ``dataclasses``: the records are named tuples.
"""
import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import qfla
import qfla.builder
import qfla.cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qfla"

# Public names allowed to go without a caller in src/, each with its reason.
ALLOWED = {
    "build_qn": "public factory: Q_n itself",
    "qn_x_basis": "paper formula: Q_n in its defining x-basis",
    "rebase_x_to_e": "paper formula: e_0 = x_0 + x_1, e_i = x_i",
    "change_of_basis": "paper formula: carries the x-basis table to the e-basis",
    "closed_form_extension": "paper formula: the explicit derivation columns",
    "closed_form_endomorphism": "paper formula: the explicit endomorphism columns",
    "is_derivation": "reference check: the Leibniz rule on all basis pairs",
    "is_minimal_generating_set": "reference check: residues mod c^1 L form a basis",
    "rank": "reference check: full rank, which tests compare `is_isomorphism` against",
    "exp_ad": "public factory: inner automorphisms exp(ad x)",
    "candidate_to_json": "public factory: candidate files for aut-check",
    "dumps": "public factory: the whole text of jsonio.pieces, for input files",
}

# Dunder methods allowed on classes in src/, each with its reason.
DUNDERS = {
    "__init__": "protocol: construction",
    "__eq__": "protocol: equality",
    "__repr__": "protocol: printing",
    "__mul__": "E * prod in iso",
}

# Parameters with a default that no call in src/ passes, each with its reason.
UNPASSED_DEFAULTS = {
    "main(argv)": "the console script calls main() bare, so argv falls back to sys.argv",
}


def _uses(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _modules() -> dict:
    """{file name: parsed module} for every module but ``__init__.py``."""
    paths = (p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    return {p.name: ast.parse(p.read_text()) for p in paths}


def unreferenced_public_names() -> set:
    trees = _modules().values()
    total = sum((_uses(tree) for tree in trees), Counter())
    out = set()
    for tree in trees:
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                if total[top.name] - _uses(top)[top.name] == 0:
                    out.add(top.name)
                if isinstance(top, ast.ClassDef):
                    for member in top.body:
                        if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                            continue
                        if total[member.name] - _uses(member)[member.name] == 0:
                            out.add(f"{top.name}.{member.name}")
    return out


def test_every_public_definition_has_a_caller_or_a_reason():
    unreferenced = unreferenced_public_names()
    dead = sorted(unreferenced - set(ALLOWED))
    assert not dead, f"no caller in src/ and not allowlisted: {dead}"
    # an entry that gained a caller, or whose definition is gone, leaves the list
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, f"stale allowlist entries: {stale}"


def _defaulted(function: ast.FunctionDef, method: bool):
    """(name, position) of each parameter of ``function`` with a default, the
    position as a call site counts it (None for keyword-only ones)."""
    positional = function.args.posonlyargs + function.args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    skip = 1 if method and not static else 0  # self or cls is not written at the call
    first = len(positional) - len(function.args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(trees) -> dict:
    """{called name: [ast.Call, ...]} over ``trees``."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaults():
    """(name, parameter, position) for each parameter with a default in
    ``src/``; a method is called by its name, ``__init__`` by its class's."""
    for tree in _modules().values():
        classes = [top for top in tree.body if isinstance(top, ast.ClassDef)]
        owners = {id(member): top for top in classes for member in top.body}
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            owner = owners.get(id(function))
            name = owner.name if owner and function.name == "__init__" else function.name
            for param, position in _defaulted(function, owner is not None):
                yield name, param, position


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` may pass ``param``: by keyword, by position, or
    through a ``*`` or ``**`` argument."""
    return (
        any(k.arg in (param, None) for k in call.keywords)
        or (position is not None and len(call.args) > position)
        or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unpassed_defaults() -> set:
    """``name(parameter)`` for each parameter with a default that no call in
    ``src/`` passes."""
    calls = _calls(_modules().values())
    return {
        f"{name}({param})"
        for name, param, position in _defaults()
        if not any(_passes(call, param, position) for call in calls.get(name, []))
    }


def unrelied_defaults() -> set:
    """``name(parameter)`` for each parameter with a default that every call
    in ``src/``, ``tests/`` and ``scripts/`` passes."""
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    calls = _calls(ast.parse(p.read_text()) for p in paths)
    return {
        f"{name}({param})"
        for name, param, position in _defaults()
        if all(_passes(call, param, position) for call in calls.get(name, []))
    }


def test_every_default_is_passed_by_a_caller_or_has_a_reason():
    unpassed = unpassed_defaults()
    knobs = sorted(unpassed - set(UNPASSED_DEFAULTS))
    assert not knobs, f"defaults no call in src/ overrides, and not listed: {knobs}"
    stale = sorted(set(UNPASSED_DEFAULTS) - unpassed)
    assert not stale, f"stale UNPASSED_DEFAULTS entries: {stale}"


def test_every_default_is_relied_on_by_a_caller():
    unrelied = sorted(unrelied_defaults())
    assert not unrelied, f"defaults every call in src/, tests/ and scripts/ passes: {unrelied}"


def test_no_module_reads_the_environment():
    readers = sorted(
        module
        for module, tree in _modules().items()
        if {"environ", "getenv"} & set(_uses(tree))
    )
    assert not readers, f"modules reading os.environ or os.getenv: {readers}"


def test_main_catches_exactly_bad_input():
    # one class carries every exit-2 refusal: builder.BadInput
    tree = _modules()["cli.py"]
    main = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    handlers = [ast.unparse(h.type) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handlers == ["BadInput"]
    assert qfla.cli.BadInput is qfla.builder.BadInput


def defined_dunders() -> dict:
    """{dunder name: [Class.name, ...]} for each dunder method a class defines."""
    out: dict = {}
    for tree in _modules().values():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(member, ast.FunctionDef) and member.name[:2] == member.name[-2:] == "__":
                        out.setdefault(member.name, []).append(f"{top.name}.{member.name}")
    return out


def test_every_dunder_has_a_reason():
    defined = defined_dunders()
    unlisted = sorted(q for name, names in defined.items() if name not in DUNDERS for q in names)
    assert not unlisted, f"dunder methods not in DUNDERS: {unlisted}"
    stale = sorted(set(DUNDERS) - set(defined))
    assert not stale, f"stale DUNDERS entries: {stale}"


def unused_imports() -> set:
    """``module: name`` for each imported name its module never uses."""
    out = set()
    for module, tree in _modules().items():
        uses = _uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and not uses[name]:
                        out.add(f"{module}: {name}")
    return out


def imported_modules(tree) -> set:
    """The modules that ``tree`` imports from, by their first name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def unreferenced_private_functions() -> set:
    trees = _modules().values()
    total = sum((_uses(tree) for tree in trees), Counter())
    return {
        top.name
        for tree in trees
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and top.name.startswith("_")
        and total[top.name] - _uses(top)[top.name] == 0
    }


def unreferenced_private_constants() -> set:
    """Private module-level names bound by assignment, like a compiled
    pattern, that nothing in ``src/`` reads."""
    trees = _modules().values()
    total = sum((_uses(tree) for tree in trees), Counter())
    out = set()
    for tree in trees:
        for top in tree.body:
            if isinstance(top, ast.Assign):
                targets = top.targets
            elif isinstance(top, ast.AnnAssign):
                targets = [top.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (
                        isinstance(name, ast.Name)
                        and name.id.startswith("_")
                        and not name.id.startswith("__")
                        and total[name.id] - _uses(target)[name.id] == 0
                    ):
                        out.add(name.id)
    return out


def test_every_imported_name_is_used_in_its_module():
    unused = sorted(unused_imports())
    assert not unused, f"imported but unused: {unused}"


def test_no_module_imports_dataclasses():
    # the records are named tuples, so no method is generated at import
    importers = sorted(m for m, tree in _modules().items() if "dataclasses" in imported_modules(tree))
    assert not importers, f"modules importing dataclasses: {importers}"


def test_every_private_function_has_a_use():
    dead = sorted(unreferenced_private_functions())
    assert not dead, f"private functions with no use in src/: {dead}"


def test_every_private_constant_has_a_use():
    dead = sorted(unreferenced_private_constants())
    assert not dead, f"private module constants with no use in src/: {dead}"


def test_allowlist_reasons_are_one_of_three_kinds():
    kinds = ("paper formula: ", "reference check: ", "public factory: ")
    assert all(reason.startswith(kinds) for reason in ALLOWED.values())


def test_package_binds_no_second_import_path():
    bound = {
        name
        for name, value in vars(qfla).items()
        if not name.startswith("__") and not isinstance(value, ModuleType)
    }
    assert bound == {"build_quasi"}
