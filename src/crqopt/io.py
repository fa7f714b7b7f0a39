"""File formats: Matrix Market problems, PGM rasters, labels, tables.

A problem on disk is three files named by a key=value manifest:

    A=<path>   operator, Matrix Market (coordinate symmetric preferred)
    C=<path>   constraints, Matrix Market (array or coordinate)
    b=<path>   right-hand side, whitespace-separated text

Paths are resolved relative to the manifest's directory.  Rasters are
read as PGM (P2 ASCII or P5 binary, 8- or 16-bit) and written as P5;
label files carry one ``row col {+|-}`` triple per line (0-based
indices).  Tables are plain CSV with shortest round-trip float
formatting, so reruns with the same seed are byte-identical.
"""

import os
from dataclasses import MISSING, fields

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from .instances import InstanceSpec
from .problem import CrqProblem


def write_vector(path, v):
    with open(path, "w") as fh:
        for x in np.asarray(v, dtype=float).reshape(-1):
            fh.write(repr(float(x)) + "\n")


def read_vector(path):
    return np.loadtxt(path, dtype=float).reshape(-1)


def write_keyvalues(path, mapping):
    with open(path, "w") as fh:
        for key, value in mapping.items():
            if isinstance(value, float):
                fh.write(f"{key}={float(value)!r}\n")
            else:
                fh.write(f"{key}={value}\n")


def read_keyvalues(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_problem(dirname, A, C, b):
    """Write A/C/b plus ``problem.manifest`` into ``dirname``; returns the
    manifest path."""
    os.makedirs(dirname, exist_ok=True)
    a_path = os.path.join(dirname, "A.mtx")
    c_path = os.path.join(dirname, "C.mtx")
    b_path = os.path.join(dirname, "b.txt")
    A_mat = sp.csr_matrix(A) if not sp.issparse(A) else A.tocsr()
    sio.mmwrite(a_path, A_mat, symmetry="symmetric")
    if sp.issparse(C):
        sio.mmwrite(c_path, C.tocoo())
    else:
        sio.mmwrite(c_path, np.atleast_2d(np.asarray(C, dtype=float)))
    write_vector(b_path, b)
    manifest = os.path.join(dirname, "problem.manifest")
    write_keyvalues(manifest, {"A": "A.mtx", "C": "C.mtx", "b": "b.txt"})
    return manifest


def load_problem(manifest_path):
    """Read a problem back from its manifest."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = read_keyvalues(manifest_path)
    for key in ("A", "C", "b"):
        if key not in entries:
            raise ValueError(f"manifest is missing the {key!r} entry")
    # CrqProblem converts A to an operator and C to a dense array
    A = sio.mmread(os.path.join(base, entries["A"]))
    C = sio.mmread(os.path.join(base, entries["C"]))
    b = read_vector(os.path.join(base, entries["b"]))
    return CrqProblem(A, C, b)


# ---------------------------------------------------------------------------
# PGM rasters

def read_pgm(path):
    """Read a P2/P5 PGM file; returns (array, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic = tokens[0].decode()
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval <= 65535:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    if magic == "P2":
        values = np.array(data[pos:].split(), dtype=int)
        arr = values[: width * height].reshape(height, width)
    elif magic == "P5":
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        arr = np.frombuffer(
            data, dtype=dtype, count=width * height, offset=pos
        ).reshape(height, width).astype(int)
    else:
        raise ValueError(f"not a PGM file (magic {magic!r})")
    return arr, maxval


def write_pgm(path, array, maxval=255):
    """Write an integer raster as binary PGM (P5)."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError("PGM rasters are 2-D")
    arr = np.clip(np.rint(arr), 0, maxval).astype(np.int64)
    height, width = arr.shape
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode())
        fh.write(arr.astype(dtype).tobytes())


def heat_to_pgm(path, heat):
    """Write a [0, 1] float raster as a 16-bit PGM heat map."""
    write_pgm(path, np.asarray(heat, dtype=float) * 65535.0, maxval=65535)


def mask_to_pgm(path, mask):
    write_pgm(path, np.asarray(mask, dtype=bool) * 255, maxval=255)


# ---------------------------------------------------------------------------
# Labels and instance specs

def read_labels(path):
    """Label file: one 'row col {+|-}' triple per line; returns two lists."""
    fg, bg = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("+", "-"):
                raise ValueError(f"{path}:{lineno}: expected 'row col {{+|-}}'")
            rc = (int(parts[0]), int(parts[1]))
            (fg if parts[2] == "+" else bg).append(rc)
    return fg, bg


# on-disk keys of the InstanceSpec fields whose key is not the field name
_SPEC_KEYS = {"rng_seed": "seed", "iso_value": "iso"}


def write_instance_spec(path, spec):
    write_keyvalues(path, {_SPEC_KEYS.get(f.name, f.name): getattr(spec, f.name)
                           for f in fields(InstanceSpec)})


def read_instance_spec(path):
    """An ``InstanceSpec`` from ``key=value`` lines; a field without a
    default is required, the others default."""
    raw = read_keyvalues(path)
    kwargs, missing = {}, []
    for f in fields(InstanceSpec):
        key = _SPEC_KEYS.get(f.name, f.name)
        if key in raw:
            kwargs[f.name] = f.type(raw[key])
        elif f.default is MISSING:
            missing.append(key)
    if missing:
        raise ValueError(f"instance spec is missing {missing}")
    return InstanceSpec(**kwargs)


# ---------------------------------------------------------------------------
# Tables

def _format_cell(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, rows, columns):
    """Plain CSV with shortest round-trip float formatting (deterministic)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[col]) for col in columns) + "\n")


def history_csv(path, records):
    """One row per ``CheckRecord``: ``k,mu,delta,objective``."""
    rows = [
        {"k": rec.k, "mu": rec.mu, "delta": rec.delta, "objective": rec.objective}
        for rec in records
    ]
    write_csv(path, rows, ["k", "mu", "delta", "objective"])


def bench_csv(path, table_rows):
    columns = ["k", "err1", "err2", "err3", "b1", "b2", "b3", "b1p", "b2p", "b3p"]
    write_csv(path, table_rows, columns)
