"""Delimited trace file format, the counterpart of scenario_io.

Three ``# key = value`` lines (scenario_hash, dt, version), a header, then
one row per kept record: t, x, c, u, u_c, h, e_hat, qp_status, qp_kkt. Every
float is written ``%.17g``, so reading a trace back gives it bitwise.
"""

from __future__ import annotations

import numpy as np

from .simulator import SimTrace

TRACE_FLOAT_FMT = "%.17g"
# Rows stacked and formatted per write. On a 10 001-row 3-D run, formatting
# the whole body at once raised peak RSS by 40 % and stacking the whole trace
# into one array by 3 %; 256-row chunks add under 1 %.
_CHUNK_ROWS = 256


def _header(n: int, m: int, d: int) -> list[str]:
    return (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"c{i+1}" for i in range(n)]
        + [f"u{i+1}" for i in range(n)]
        + [f"uc{i+1}" for i in range(m)]
        + [f"h{i+1}" for i in range(d)]
        + ["e_hat", "qp_status", "qp_kkt"]
    )


def write_trace(trace: SimTrace, path, decimate: int = 1) -> None:
    """Delimited text export; decimation thins rows for output only."""
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    header = _header(trace.x.shape[1], trace.u_c.shape[1], trace.h.shape[1])
    keep = list(range(0, len(trace), decimate))
    if keep and keep[-1] != len(trace) - 1:
        keep.append(len(trace) - 1)
    row = ",".join([TRACE_FLOAT_FMT] * (len(header) - 2)) + ",%s," + TRACE_FLOAT_FMT + "\n"
    cols = [trace.t, trace.x, trace.c, trace.u, trace.u_c, trace.h, trace.e_hat]
    with open(path, "w") as fh:
        fh.write(f"# scenario_hash = {trace.scenario_hash}\n")
        fh.write(f"# dt = {TRACE_FLOAT_FMT % trace.dt}\n")
        fh.write(f"# version = {trace.version}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(keep), _CHUNK_ROWS):
            rows = keep[lo : lo + _CHUNK_ROWS]
            nums = np.column_stack([col[rows] for col in cols]).tolist()
            chunk = zip(nums, rows, trace.qp_kkt[rows].tolist())
            fh.write("".join([row % (*v, trace.qp_status[k], kkt) for v, k, kkt in chunk]))


def read_trace(path) -> SimTrace:
    """Parse a trace file, every numeric column in one numpy call. Raises
    ValueError on a file without data rows, a header the writer would not
    write, a row whose width is not the header's, or a cell not a number."""
    meta = {}
    body = []
    header: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                body.append(line)
    n = sum(1 for name in header if name.startswith("x"))
    m = sum(1 for name in header if name.startswith("uc"))
    d = sum(1 for name in header if name.startswith("h") and name != "e_hat")
    if not body:
        raise ValueError(f"no trace data in {path}")
    if header != _header(n, m, d):
        raise ValueError(f"{path}: unexpected header {','.join(header)}")
    width = len(header)
    if any(line.count(",") != width - 1 for line in body):
        raise ValueError(f"{path}: a row's width is not the header's {width} columns")
    usecols = [*range(width - 2), width - 1]  # all but qp_status
    data = np.loadtxt(body, delimiter=",", comments=None, usecols=usecols, ndmin=2)
    t, x, c, u, u_c, h, e_hat, kkt = np.split(data, np.cumsum([1, n, n, n, m, d, 1]), axis=1)
    return SimTrace(
        t=t[:, 0], x=x, c=c, u=u, u_c=u_c, h=h, e_hat=e_hat[:, 0],
        qp_status=tuple(line.rsplit(",", 2)[-2] for line in body),
        qp_kkt=kkt[:, 0],
        scenario_hash=meta.get("scenario_hash", ""),
        dt=float(meta.get("dt", "nan")),
        version=meta.get("version", ""),
    )
