"""List the source lines of each package module that no output-digest corpus run reaches.

Usage::

    python tools/traffic_lines.py [--src DIR]

Runs the corpus of ``tools/output_digests.py`` in process (its digests are
discarded) under a line tracer, set with ``sys.settrace`` and
``threading.settrace`` since sweeps run their chunks on pool threads.  Then
prints, per module of the ``majorana_nh`` package under ``--src`` (default:
this checkout's ``src``), the executable lines (those of the compiled code
objects' ``co_lines``) that no run reached, as line ranges, and last the
package total.  A range spans the blank and comment lines between its
unreached lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import threading
import types
from pathlib import Path

import output_digests


def executable_lines(path: Path) -> list[int]:
    """The sorted line numbers that the compiled code objects of ``path`` run."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return sorted(lines)


def ranges(lines: list[int], reached: set[int]) -> list[str]:
    """Runs of ``lines`` that are not in ``reached``, as ``a-b`` (or ``a``) strings."""
    out, run = [], []
    for line in lines + [None]:
        if line is not None and line not in reached:
            run.append(line)
            continue
        if run:
            out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
            run = []
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding the majorana_nh package to run")
    args = parser.parse_args(argv)
    modules = sorted((Path(args.src).resolve() / "majorana_nh").glob("*.py"))
    reached = {str(path): set() for path in modules}

    def trace(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            output_digests.main(["--src", args.src])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = total_unreached = 0
    for path in modules:
        lines = executable_lines(path)
        unreached = [line for line in lines if line not in reached[str(path)]]
        print(f"{path.name}: {len(unreached)} of {len(lines)} executable lines unreached")
        if unreached:
            print("  " + ", ".join(ranges(lines, reached[str(path)])))
        total, total_unreached = total + len(lines), total_unreached + len(unreached)
    print(f"total: {total_unreached} of {total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
