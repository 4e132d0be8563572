"""Result serialization: CSV / JSON / NDJSON tables plus SVG scatter plots.

Every export writes the data files plus one ``<prefix>_meta.json`` carrying
the fully resolved run configuration, so a run can be reproduced from its own
output.  A table is held as columns: the CSV is written through one
``%``-format string per table, the table JSON is one columnar document
(``{"columns", "data", "metadata"}``) encoded by the C ``json`` encoder, and
each NDJSON row is one ``json.dumps`` of its row dict.  Cells are Python
values before any writer sees them.  CSV floats carry 17 significant digits;
JSON and NDJSON floats use Python's shortest round-trip repr.  Both are
lossless for binary64, and row order is deterministic, which makes repeated
single-threaded runs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

def fmt_float(x) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, int):
        return str(int(value))
    return str(value)


#: ``%`` conversion per column kind; other columns are written as ``_cell`` strings
_CSV_SPECS = {"f": "%.17g", "i": "%d", "s": "%s"}

#: column kind of a numpy dtype kind, for arrays whose kind fixes their cells' type
_DTYPE_KINDS = {"f": "f", "i": "i", "u": "i", "b": "i", "U": "s"}


def _column(values) -> tuple[list, str]:
    """One table column as Python scalars, plus its kind: ``f``, ``i``, ``s`` or ``O``.

    ``f`` (float), ``i`` (int or bool) and ``s`` (str) columns have one type
    throughout; ``O`` (object) is any other mix, such as ``None`` beside ints.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in _DTYPE_KINDS:
        return values.tolist(), _DTYPE_KINDS[values.dtype.kind]
    values = [v.item() if isinstance(v, np.generic) else v for v in values]
    for kind, types in (("f", float), ("i", int), ("s", str)):
        if all(isinstance(v, types) for v in values):
            return values, kind
    return values, "O"


def write_csv(path: Path, table: dict):
    """CSV of ``table = {name: (values, kind)}`` through one ``%``-format string.

    ``"%.17g" % x`` and ``"%d" % n`` give the bytes of :func:`_cell`
    (nan, inf and -0 included; bools print 1 and 0), so only object columns
    are converted cell by cell.
    """
    fmt = ",".join(_CSV_SPECS.get(kind, "%s") for _, kind in table.values())
    cells = [vals if kind in _CSV_SPECS else [_cell(v) for v in vals] for vals, kind in table.values()]
    lines = [",".join(table)]
    lines += [fmt % row for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload):
    """Indented JSON, for the small ``_meta.json`` and ``_report.json`` documents."""
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_table_json(path: Path, table: dict, metadata: dict):
    """Columnar table JSON in one compact ``json.dumps``, so the C encoder runs."""
    doc = {"columns": list(table), "data": {c: vals for c, (vals, _) in table.items()}, "metadata": metadata}
    path.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def write_ndjson(path: Path, table: dict):
    """One JSON object per row, keys sorted: ``json.dumps(row, sort_keys=True)`` of each row dict."""
    rows = zip(*(vals for vals, _ in table.values()))
    lines = [json.dumps(dict(zip(table, row)), sort_keys=True) for row in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def export_table(
    out_dir,
    prefix: str,
    columns,
    rows,
    metadata: dict,
    formats=("csv", "json"),
) -> list[Path]:
    """Write one table in the selected formats plus metadata.

    ``rows`` is either a dict of column name to 1-D array or sequence, or a
    list of row dicts (a missing cell is ``None``); only the names in
    ``columns`` are written, in that order.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {exc}") from exc

    if isinstance(rows, dict):
        table = {c: _column(rows[c]) for c in columns}
    else:
        table = {c: _column([row.get(c) for row in rows]) for c in columns}
    written = []
    for fmt in formats:
        if fmt == "csv":
            p = out_dir / f"{prefix}.csv"
            write_csv(p, table)
        elif fmt == "json":
            p = out_dir / f"{prefix}.json"
            write_table_json(p, table, metadata)
        elif fmt == "ndjson":
            p = out_dir / f"{prefix}.ndjson"
            write_ndjson(p, table)
        else:
            raise ConfigurationError(f"unknown export format {fmt!r}")
        written.append(p)

    meta_path = out_dir / f"{prefix}_meta.json"
    write_json(meta_path, metadata)
    written.append(meta_path)
    return written


# --------------------------------------------------------------------------
# minimal SVG scatter writer
# --------------------------------------------------------------------------

CLASS_COLOURS = {
    "edge_bottom": "#d62728",
    "edge_top": "#9467bd",
    "bulk_localized_bottom": "#ff7f0e",
    "bulk_localized_top": "#1f77b4",
    "extended": "#2ca02c",
    "pbc": "#c8c8c8",
    None: "#404040",
}


#: width and height of a scatter plot, and the radius of its dots
SVG_SIZE = (720, 540)
POINT_RADIUS = 1.4


def write_svg_scatter(path, groups, title: str = "", x_label: str = "", y_label: str = ""):
    """Scatter plot of ``groups = [(label, xs, ys), ...]``, first group drawn first.

    Each group is one ``<path>`` of round-capped vertical strokes, of width
    ``2 * POINT_RADIUS``: a group whose ``ys`` has shape (n, 2) is drawn as n
    bars from ``ys[i, 0]`` to ``ys[i, 1]`` at ``xs[i]``, one with 1-D ``ys``
    as n zero-length bars, i.e. dots of radius :data:`POINT_RADIUS`.
    Deterministic output: no timestamps, ids, or library version strings.
    """
    width, height = SVG_SIZE
    margin = 54.0
    xs_all = np.concatenate([np.asarray(g[1], dtype=float) for g in groups if len(g[1])])
    ys_all = np.concatenate([np.asarray(g[2], dtype=float).ravel() for g in groups if len(g[2])])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad_x = 0.03 * (x1 - x0)
    pad_y = 0.03 * (y1 - y0)
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#808080" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{height - 10:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {height / 2:.1f})">{y_label}</text>'
        )

    legend_y = margin + 12.0
    for label, xs, ys in groups:
        colour = CLASS_COLOURS.get(label, CLASS_COLOURS[None])
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        if ys.ndim == 1:  # a point is a zero-length bar, drawn as a round dot
            ys = np.stack([ys, ys], axis=-1)
        d = ("M%.2f %.2fV%.2f" * len(xs)) % tuple(np.column_stack([sx(xs), sy(ys)]).ravel().tolist())
        # one path's stroke is painted once, so a repeated mark adds bytes but no
        # pixels: each is kept once, in first-seen order
        d = "M".join(dict.fromkeys(d.split("M")))
        parts.append(
            f'<path d="{d}" fill="none" stroke="{colour}" stroke-opacity="0.8" '
            f'stroke-width="{2 * POINT_RADIUS}" stroke-linecap="round"/>'
        )
        if label is not None:
            parts.append(
                f'<circle cx="{margin + 10:.1f}" cy="{legend_y:.1f}" r="3" fill="{colour}"/>'
                f'<text x="{margin + 17:.1f}" y="{legend_y + 3.5:.1f}" '
                f'font-family="sans-serif" font-size="9">{label}</text>'
            )
            legend_y += 13.0
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
