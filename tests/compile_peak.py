"""Print the compile peak of each src/qident module, largest first.

    python tests/compile_peak.py

For each module it compiles the source as the import does when no
bytecode is cached, under tracemalloc, and prints the peak of traced
memory during that one compile in KB, with the module's line count.
A fresh process imports qident with every module compiled from source
(PYTHONDONTWRITEBYTECODE=1 or no __pycache__), so the high-water mark of
its resident memory can be set by the largest of these peaks rather
than by what the run itself holds.  The figures depend on the Python
version; they are comparable only between runs of one interpreter.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"


def compile_peak(path: Path) -> int:
    """The peak of traced memory, in bytes, while path's source compiles."""
    text = path.read_text()
    gc.collect()
    tracemalloc.start()
    try:
        compile(text, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    peaks = sorted(((compile_peak(p), p) for p in SRC.glob("*.py")), key=lambda t: -t[0])
    print(f"# compile peaks under tracemalloc, Python {sys.version.split()[0]}")
    for peak, path in peaks:
        lines = len(path.read_text().splitlines())
        print(f"{peak // 1024:8d} KB  {lines:5d} lines  {path.relative_to(SRC.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
