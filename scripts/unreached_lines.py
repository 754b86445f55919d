"""List the lines of ``src/qfla`` that a command never reaches.

    python scripts/unreached_lines.py -- python -m pytest -q

The command runs from the checkout root, with a temporary directory first on
``PYTHONPATH`` and this checkout's ``src`` second.  That directory holds a
``sitecustomize.py`` that line-traces every frame whose code lies in this
checkout's ``src/qfla/``, in the command's process and in every Python
process it starts: a fork through ``os.register_at_fork`` (a child that
leaves by ``os._exit`` writes its lines first), a subprocess through the
``PYTHONPATH`` it inherits.  At exit each process appends the lines it
reached to a file of its own in that directory.  The ``sitecustomize.py``
shadows any other one on the path, which therefore does not run; a process
started with ``-S`` or ``-I`` is not traced.

Then it prints, sorted, each executable line of ``src/qfla/*.py`` that no
process reached, as ``<file>:<line>: <text>``, and a count line.  The
executable lines are those of the compiled code objects' ``co_lines``.  The
exit status is the command's.  Nothing is written in the checkout, except
what the command writes itself.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qfla"

# Written as the temporary directory's sitecustomize.py, with the package
# prefix and the directory filled in.
TRACER = """
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_reached = set()
_exit = os._exit


def _line(frame, event, arg):
    _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _line(frame, event, arg)
    return None


def _dump():
    sys.settrace(None)
    with open(os.path.join(_OUT, "%d.lines" % os.getpid()), "a") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _reached)
    _reached.clear()


def _dump_and_exit(status):
    _dump()
    _exit(status)


def _in_child():
    _reached.clear()  # the parent writes its own
    os._exit = _dump_and_exit


sys.settrace(_call)
threading.settrace(_call)
os.register_at_fork(after_in_child=_in_child)
atexit.register(_dump)
"""


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: python scripts/unreached_lines.py -- <command>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(PACKAGE) + os.sep
        Path(tmp, "sitecustomize.py").write_text(TRACER.format(prefix=prefix, out=tmp))
        path = os.pathsep.join(filter(None, [tmp, str(SRC), os.environ.get("PYTHONPATH")]))
        status = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path)).returncode
        reached = set()
        for dump in Path(tmp).glob("*.lines"):
            for row in dump.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                reached.add((name, int(line)))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in reached:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for row in unreached:
        print(row)
    print(f"{len(unreached)} unreached lines in {PACKAGE.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
