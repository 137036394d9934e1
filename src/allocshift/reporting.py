"""Artifact emission: CSV tables, their parsers, and an SVG heatmap.

Every writer is byte-deterministic for a fixed input: floats are written with
repr (shortest round-trip form), rows follow input order, and the heatmap is
assembled from integer pixel coordinates without any plotting library.

CSV layouts are long-form, one cell or sample per row, so round trips carry
names and uncertainty alongside values:
  matrix: row_metric,col_metric,col_kind,value,stderr,normalized
  curve:  num_samples,instance_id,ratio
  trace:  instance_id,iteration,objective,grad_norm,divergence
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .engine import InstanceTrace, WorstCaseReport
from .errors import DataError, NumericalError
from .evaluation import CrossMetricMatrix, OracleRatioCurve

_MATRIX_HEADER = ["row_metric", "col_metric", "col_kind", "value", "stderr", "normalized"]
_CURVE_HEADER = ["num_samples", "instance_id", "ratio"]
_TRACE_HEADER = ["instance_id", "iteration", "objective", "grad_norm", "divergence"]


def _require_finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite value at {where}")
    return float(value)


def _open_writer(path: str):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def write_matrix_csv(matrix: CrossMetricMatrix, path: str) -> None:
    fh, out = _open_writer(path)
    with fh:
        out.writerow(_MATRIX_HEADER)
        flag = "true" if matrix.normalized else "false"
        for i, rname in enumerate(matrix.row_metrics):
            for j, cname in enumerate(matrix.col_metrics):
                cell = f"({rname}, {cname})"
                out.writerow([rname, cname, matrix.col_kinds[j],
                              repr(_require_finite(matrix.values[i, j], cell)),
                              repr(_require_finite(matrix.stderr[i, j], cell + " stderr")),
                              flag])


def read_matrix_csv(path: str) -> CrossMetricMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _MATRIX_HEADER:
        raise DataError(f"{path}: expected matrix header {','.join(_MATRIX_HEADER)}")
    row_names, col_names, kinds, flags = [], [], {}, set()
    cells = {}
    for rec in rows[1:]:
        if len(rec) != 6:
            raise DataError(f"{path}: matrix row needs 6 fields, got {len(rec)}")
        rname, cname, kind, value, err, flag = rec
        if rname not in row_names:
            row_names.append(rname)
        if cname not in col_names:
            col_names.append(cname)
            kinds[cname] = kind
        elif kinds[cname] != kind:
            raise DataError(f"{path}: column {cname!r} has conflicting kinds")
        flags.add(flag)
        cells[(rname, cname)] = (float(value), float(err))
    if flags - {"true", "false"} or len(flags) != 1:
        raise DataError(f"{path}: normalized flag must be uniformly true or false")
    values = np.empty((len(row_names), len(col_names)))
    stderr = np.empty_like(values)
    for i, rname in enumerate(row_names):
        for j, cname in enumerate(col_names):
            if (rname, cname) not in cells:
                raise DataError(f"{path}: missing cell ({rname}, {cname})")
            values[i, j], stderr[i, j] = cells[(rname, cname)]
    return CrossMetricMatrix(row_metrics=row_names, col_metrics=col_names,
                             col_kinds=[kinds[c] for c in col_names],
                             values=values, stderr=stderr,
                             normalized=flags.pop() == "true")


def write_curve_csv(curve: OracleRatioCurve, path: str) -> None:
    fh, out = _open_writer(path)
    with fh:
        out.writerow(_CURVE_HEADER)
        for gi, g in enumerate(curve.grid):
            for pi, pid in enumerate(curve.instance_ids):
                cell = f"(num_samples={g}, instance {pid!r})"
                out.writerow([g, pid, repr(_require_finite(curve.ratios[pi, gi], cell))])


def read_curve_csv(path: str) -> OracleRatioCurve:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _CURVE_HEADER:
        raise DataError(f"{path}: expected curve header {','.join(_CURVE_HEADER)}")
    grid, ids, cells = [], [], {}
    for rec in rows[1:]:
        if len(rec) != 3:
            raise DataError(f"{path}: curve row needs 3 fields, got {len(rec)}")
        g, pid, ratio = int(rec[0]), rec[1], float(rec[2])
        if g not in grid:
            grid.append(g)
        if pid not in ids:
            ids.append(pid)
        cells[(pid, g)] = ratio
    ratios = np.empty((len(ids), len(grid)))
    for pi, pid in enumerate(ids):
        for gi, g in enumerate(grid):
            if (pid, g) not in cells:
                raise DataError(f"{path}: missing ratio for (num_samples={g}, instance {pid!r})")
            ratios[pi, gi] = cells[(pid, g)]
    return OracleRatioCurve(grid=grid, instance_ids=ids, ratios=ratios)


def write_trace_rows(instance_ids: list[str], traces: list[InstanceTrace], path: str) -> None:
    fh, out = _open_writer(path)
    with fh:
        out.writerow(_TRACE_HEADER)
        for pid, trace in zip(instance_ids, traces):
            for it in range(len(trace.objective)):
                cell = f"(instance {pid!r}, iteration {it})"
                out.writerow([pid, it,
                              repr(_require_finite(trace.objective[it], cell)),
                              repr(_require_finite(trace.grad_norm[it], cell)),
                              repr(_require_finite(trace.divergence[it], cell))])


def write_trace_csv(report: WorstCaseReport, path: str) -> None:
    write_trace_rows(report.instance_ids, report.traces, path)


def read_trace_csv(path: str) -> tuple[list[str], list[InstanceTrace]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _TRACE_HEADER:
        raise DataError(f"{path}: expected trace header {','.join(_TRACE_HEADER)}")
    ids: list[str] = []
    traces: dict[str, InstanceTrace] = {}
    for rec in rows[1:]:
        if len(rec) != 5:
            raise DataError(f"{path}: trace row needs 5 fields, got {len(rec)}")
        pid = rec[0]
        if pid not in traces:
            ids.append(pid)
            traces[pid] = InstanceTrace()
        traces[pid].objective.append(float(rec[2]))
        traces[pid].grad_norm.append(float(rec[3]))
        traces[pid].divergence.append(float(rec[4]))
    return ids, [traces[pid] for pid in ids]


_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)


def _cell_color(t: float) -> tuple[str, str]:
    r = round(_LIGHT[0] + t * (_DARK[0] - _LIGHT[0]))
    g = round(_LIGHT[1] + t * (_DARK[1] - _LIGHT[1]))
    b = round(_LIGHT[2] + t * (_DARK[2] - _LIGHT[2]))
    luminance = 0.299 * r + 0.587 * g + 0.114 * b
    return f"#{r:02x}{g:02x}{b:02x}", ("#ffffff" if luminance < 140 else "#000000")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_heatmap(matrix: CrossMetricMatrix, path: str, title: str | None = None) -> None:
    """Deterministic SVG heatmap; each cell is annotated to 2 decimals."""
    rows, cols = matrix.values.shape
    for i in range(rows):
        for j in range(cols):
            if not math.isfinite(matrix.values[i, j]):
                raise NumericalError(
                    f"non-finite value at ({matrix.row_metrics[i]!r}, {matrix.col_metrics[j]!r})")

    label_px = 8
    left = 16 + label_px * max(len(s) for s in matrix.row_metrics)
    cell_w = max(76, 10 + label_px * max(len(s) for s in matrix.col_metrics))
    cell_h = 44
    top = 30 + (26 if title else 0)
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
    if title:
        parts.append(f'<text x="{width // 2}" y="20" text-anchor="middle" {font} '
                     f'font-size="14">{_esc(title)}</text>')
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
