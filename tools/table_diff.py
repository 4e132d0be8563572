"""Show which rows of two output trees' CSV tables differ, and which state labels moved.

Usage::

    python tools/output_digests.py --src ../base/src --keep ../base_out > base.txt
    python tools/output_digests.py --keep ../head_out > head.txt
    python tools/table_diff.py ../base_out ../head_out

For every CSV under ``A`` and ``B`` (matched by relative path) whose bytes
differ, prints the number of rows that differ, the largest |dE| over them
where the table has ``re_E`` and ``im_E`` columns, and, where it has a
``class`` column, one line per label that moved, with its ``k_x``, its
``state_index`` and its |E| in ``A``.  Where the headers differ, the
columns found on one side only are named, and the rows are compared on the
shared columns, in ``A``'s order.  A table found on one side only, or whose
row count differs, is named as such.  Prints nothing else when every table
is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _energy(row: list[str], col: dict) -> complex:
    return complex(float(row[col["re_E"]]), float(row[col["im_E"]]))


def table_diff(a: Path, b: Path) -> list[str]:
    """The report lines of the CSV tables under ``a`` and ``b``."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*.csv")})
    lines = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            lines.append(f"{name}: only in {a if pa.is_file() else b}")
            continue
        if pa.read_bytes() == pb.read_bytes():
            continue
        (head, *ra), (head_b, *rb) = _rows(pa), _rows(pb)
        if len(ra) != len(rb):
            lines.append(f"{name}: row count differs ({len(ra)} against {len(rb)} rows)")
            continue
        shared = [c for c in head if c in head_b]
        if head != head_b:
            for root, own, other in ((a, head, head_b), (b, head_b, head)):
                if only := [c for c in own if c not in other]:
                    lines.append(f"{name}: columns only in {root}: {', '.join(only)}")
            ia, ib = [head.index(c) for c in shared], [head_b.index(c) for c in shared]
            ra, rb = [[x[i] for i in ia] for x in ra], [[y[i] for i in ib] for y in rb]
        col = {c: i for i, c in enumerate(shared)}
        changed = [(x, y) for x, y in zip(ra, rb) if x != y]
        line = f"{name}: {len(changed)} of {len(ra)} rows differ"
        if head != head_b:
            line += " in the shared columns"
        if changed and "re_E" in col and "im_E" in col:
            line += f", max |dE| {max(abs(_energy(x, col) - _energy(y, col)) for x, y in changed):.3g}"
        lines.append(line)
        if "class" in col:
            k = col["class"]
            for x, y in changed:
                if x[k] != y[k]:
                    where = " ".join(f"{c}={x[col[c]]}" for c in ("k_x", "state_index") if c in col)
                    size = f" |E|={abs(_energy(x, col)):.3g}" if "re_E" in col and "im_E" in col else ""
                    lines.append(f"  label {where}{size}: {x[k]} -> {y[k]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first output tree, e.g. the base's --keep directory")
    parser.add_argument("b", type=Path, help="second output tree")
    args = parser.parse_args(argv)
    lines = table_diff(args.a, args.b)
    if lines:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
