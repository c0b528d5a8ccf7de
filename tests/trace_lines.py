"""List the lines of src/qident that a pytest run can execute but never does.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

An in-process sys.settrace line tracer: it starts before qident is
imported, records every line executed in a qident module while pytest
runs with the given arguments (by default tier-1, the pytest defaults of
pyproject.toml), and prints path:line and the source text of every line
the compiled modules hold that never ran.  Only this process is traced,
so lines that only `--jobs` workers run are listed too.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"


def _lines(code: CodeType) -> set:
    """The line numbers of code and of every code object nested in it, each
    function's own def line left out (its enclosing scope runs that)."""
    out = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        out.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            out |= _lines(const)
    return out


def main(args: list) -> int:
    prefix, ran = str(SRC), set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        missing = sorted(_lines(compile(text, str(path), "exec")) - {line for f, line in ran if f == str(path)})
        for line in missing:
            print(f"{path.relative_to(SRC.parent.parent)}:{line}: {source[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
