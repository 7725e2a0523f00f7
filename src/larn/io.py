"""CSV and JSON helpers shared by the command-line front end.

CSV dialect: comma separator, one header row, decimal point, no locale.
Floats are written with 17 significant digits so a write-read cycle is
exact for double precision values.
"""

import json

import numpy as np


def fmt(value):
    """17-significant-digit representation; round-trips float64 exactly."""
    return f"{float(value):.17g}"


def write_rows(path, header, rows):
    """Write a CSV: string cells as they are, every other cell through :func:`fmt`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")


def write_matrix_csv(path, M, header=None):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    cols = M.shape[1]
    if header is None:
        header = [f"c{k}" for k in range(cols)]
    if len(header) != cols:
        raise ValueError(f"header has {len(header)} names for {cols} columns")
    write_rows(path, header, M)


def read_matrix_csv(path):
    """Read a numeric CSV with one header row; returns (matrix, header).

    Parse failures name the file, line number, and offending cell.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = lines[0].split(",")
    vals, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, "
                             f"found {len(cells)}")
        try:
            vals.extend(map(float, cells))
        except ValueError:
            bad = next(c for c in cells if not _is_float(c))
            raise ValueError(f"{path}:{lineno}: non-numeric cell {bad!r}") from None
        linenos.append(lineno)
    if not linenos:
        raise ValueError(f"{path}: no data rows")
    M = np.array(vals).reshape(len(linenos), len(header))
    finite = np.isfinite(M).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: non-finite value")
    return M, header


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
