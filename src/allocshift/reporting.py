"""Artifact emission: CSV tables, their parsers, and an SVG heatmap.

Every writer is byte-deterministic for a fixed input: floats are written with
repr (shortest round-trip form), rows follow input order, and the heatmap is
assembled from integer pixel coordinates without any plotting library.

CSV layouts are long-form, one cell or sample per row, so round trips carry
names and uncertainty alongside values:
  matrix: row_metric,col_metric,value,stderr,normalized
  curve:  num_samples,instance_id,ratio
  trace:  instance_id,iteration, then one column per InstanceTrace field
          (objective,grad_norm,divergence)
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, fields

import numpy as np

from .data import read_rows, reading
from .engine import InstanceTrace
from .errors import DataError, NumericalError
from .evaluation import CrossMetricMatrix, OracleRatioCurve

_MATRIX_HEADER = ["row_metric", "col_metric", "value", "stderr", "normalized"]
_CURVE_HEADER = ["num_samples", "instance_id", "ratio"]
_TRACE_HEADER = ["instance_id", "iteration", *(f.name for f in fields(InstanceTrace))]


def _require_finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value at {where}")
    return float(value)


def _write_rows(path: str, header: list[str], rows) -> None:
    """Write header, then each row of the iterable rows, as CSV; every row is
    formed, so checked, before the file is opened, and a refused one leaves no file."""
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def _records(path: str, header: list[str]) -> list[list[str]]:
    """The rows after the header of the CSV file at path, each checked to be as
    wide as the header; call it under reading's rule."""
    rows = read_rows(path)
    if not rows or rows[0] != header:
        raise DataError(f"expected header {','.join(header)}")
    for rec in rows[1:]:
        if len(rec) != len(header):
            raise DataError(f"a row needs {len(header)} fields, got {len(rec)}")
    return rows[1:]


def _grid(records: list[list[str]], cell, where) -> tuple[list, list, np.ndarray]:
    """The one reader of a (row, column) grid: cell maps a record to (row, column,
    values) and where names a cell. Returns rows and columns in first-appearance order
    and their (rows, columns, values) array; no cell, or a repeated, missing or
    non-finite one, is a DataError naming it."""
    cells: dict = {}
    for rec in records:
        r, c, values = cell(*rec)
        if (r, c) in cells:
            raise DataError(f"repeated cell {where(r, c)}")
        if not all(map(math.isfinite, values)):
            raise DataError(f"non-finite value at {where(r, c)}")
        cells[r, c] = values
    if not cells:
        raise DataError("no cells after the header")
    rows, cols = (list(dict.fromkeys(key[axis] for key in cells)) for axis in (0, 1))
    missing = [where(r, c) for r in rows for c in cols if (r, c) not in cells]
    if missing:
        raise DataError(f"missing cell {missing[0]}")
    return rows, cols, np.array([[cells[r, c] for c in cols] for r in rows])


def write_matrix_csv(matrix: CrossMetricMatrix, path: str) -> None:
    flag = "true" if matrix.normalized else "false"
    _write_rows(path, _MATRIX_HEADER, (
        [rname, cname, repr(_require_finite(matrix.values[i, j], f"({rname}, {cname})")),
         repr(_require_finite(matrix.stderr[i, j], f"({rname}, {cname}) stderr")), flag]
        for i, rname in enumerate(matrix.row_metrics)
        for j, cname in enumerate(matrix.col_metrics)))


def read_matrix_csv(path: str) -> CrossMetricMatrix:
    flags = set()

    def cell(rname, cname, value, err, flag):
        flags.add(flag)
        return rname, cname, (float(value), float(err))

    with reading(path, "matrix CSV"):
        rows, cols, grid = _grid(_records(path, _MATRIX_HEADER), cell,
                                 lambda rname, cname: f"({rname}, {cname})")
        if flags - {"true", "false"} or len(flags) != 1:
            raise DataError("normalized flag must be uniformly true or false")
    return CrossMetricMatrix(row_metrics=rows, col_metrics=cols, values=grid[..., 0],
                             stderr=grid[..., 1], normalized=flags.pop() == "true")


def write_curve_csv(curve: OracleRatioCurve, path: str) -> None:
    _write_rows(path, _CURVE_HEADER, (
        [g, pid, repr(_require_finite(curve.ratios[pi, gi], f"(num_samples={g}, instance {pid!r})"))]
        for gi, g in enumerate(curve.grid) for pi, pid in enumerate(curve.instance_ids)))


def read_curve_csv(path: str) -> OracleRatioCurve:
    with reading(path, "curve CSV"):
        ids, grid, ratios = _grid(_records(path, _CURVE_HEADER),
                                  lambda g, pid, ratio: (pid, int(g), (float(ratio),)),
                                  lambda pid, g: f"(num_samples={g}, instance {pid!r})")
    return OracleRatioCurve(grid=grid, instance_ids=ids, ratios=ratios[..., 0])


def write_trace_csv(instance_ids: list[str], traces: list[InstanceTrace], path: str) -> None:
    _write_rows(path, _TRACE_HEADER, (
        [pid, it, *(repr(_require_finite(v, f"(instance {pid!r}, iteration {it})")) for v in values)]
        for pid, trace in zip(instance_ids, traces)
        for it, values in enumerate(zip(*astuple(trace)))))


def read_trace_csv(path: str) -> tuple[list[str], list[InstanceTrace]]:
    def cell(pid, it, *values):
        return pid, int(it), tuple(map(float, values))

    with reading(path, "trace CSV"):
        ids, iterations, grid = _grid(_records(path, _TRACE_HEADER), cell,
                                      lambda pid, it: f"(instance {pid!r}, iteration {it})")
        if iterations != list(range(len(iterations))):
            raise DataError("iterations must first appear in order 0, 1, ..., got "
                            + ", ".join(map(str, iterations)))
    return ids, [InstanceTrace(*values.T.tolist()) for values in grid]


_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def _cell_color(t: float) -> tuple[str, str]:
    r, g, b = (round(light + t * (dark - light)) for light, dark in zip(_LIGHT, _DARK))
    luminance = 0.299 * r + 0.587 * g + 0.114 * b
    return f"#{r:02x}{g:02x}{b:02x}", ("#ffffff" if luminance < 140 else "#000000")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_heatmap(matrix: CrossMetricMatrix, path: str) -> None:
    """Deterministic SVG heatmap, each cell annotated to 2 decimals, titled by
    what the cells hold: "share of own worst case" for a normalized matrix,
    "expected decision loss" otherwise."""
    rows, cols = matrix.values.shape
    for i, j in np.ndindex(rows, cols):
        _require_finite(matrix.values[i, j],
                        f"({matrix.row_metrics[i]!r}, {matrix.col_metrics[j]!r})")

    label_px = 8
    left = 16 + label_px * max(len(s) for s in matrix.row_metrics)
    cell_w = max(76, 10 + label_px * max(len(s) for s in matrix.col_metrics))
    cell_h = 44
    top = 56
    width = left + cols * cell_w + 12
    height = top + rows * cell_h + 12

    vmin = float(matrix.values.min())
    vmax = float(matrix.values.max())
    span = vmax - vmin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    font = 'font-family="monospace" font-size="12"'
    title = "share of own worst case" if matrix.normalized else "expected decision loss"
    parts.append(f'<text x="{width // 2}" y="20" text-anchor="middle" {font} '
                 f'font-size="14">{title}</text>')
    for j, name in enumerate(matrix.col_metrics):
        x = left + j * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="{top - 8}" text-anchor="middle" {font}>'
                     f'{_esc(name)}</text>')
    for i, name in enumerate(matrix.row_metrics):
        y = top + i * cell_h + cell_h // 2 + 4
        parts.append(f'<text x="{left - 8}" y="{y}" text-anchor="end" {font}>{_esc(name)}</text>')
    for i in range(rows):
        for j in range(cols):
            v = float(matrix.values[i, j])
            t = 0.5 if span == 0.0 else (v - vmin) / span
            fill, text_fill = _cell_color(t)
            x, y = left + j * cell_w, top + i * cell_h
            parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                         f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>')
            parts.append(f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 4}" '
                         f'text-anchor="middle" {font} fill="{text_fill}">{v:.2f}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
