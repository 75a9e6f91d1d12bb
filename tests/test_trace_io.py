"""Trace file IO: the chunked template writer against the row-at-a-time
reference, and exact read-back of every float, including the special ones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_write_trace
from vczsim.qp import DEGENERATE, INFEASIBLE, OPTIMAL
from vczsim.simulator import SimTrace
from vczsim.trace_io import read_trace, write_trace

SPECIAL = np.array(
    [
        0.0, -0.0, math.inf, -math.inf, math.nan,
        5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,  # subnormals
        2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3,
    ]
)
STATUSES = (OPTIMAL, DEGENERATE, INFEASIBLE)
LENGTHS = (0, 1, 255, 256, 257, 1000)  # around the writer's 256-row chunks


def make_trace(n: int, d: int, length: int, seed: int) -> SimTrace:
    """A trace whose every cell is a random bit pattern (any finite value,
    subnormal, infinity or NaN payload), a value of any magnitude, or one of
    SPECIAL."""
    rng = np.random.default_rng(seed)

    def cells(*shape):
        bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        special = rng.choice(SPECIAL, size=shape)
        return np.choose(rng.integers(0, 3, size=shape), [bits, scaled, special])

    return SimTrace(
        t=cells(length),
        x=cells(length, n),
        c=cells(length, n),
        u=cells(length, n),
        u_c=cells(length, n),
        h=cells(length, d),
        e_hat=cells(length),
        qp_status=tuple(rng.choice(STATUSES, size=length).tolist()),
        qp_kkt=cells(length),
        scenario_hash=f"{seed:064x}",
        dt=float(rng.uniform(1e-6, 1.0)),
    )


traces = st.builds(
    make_trace,
    n=st.integers(1, 3),
    d=st.integers(0, 7),
    length=st.sampled_from(LENGTHS),
    seed=st.integers(0, 2**32 - 1),
)


def assert_same_bits(got, want):
    """Bitwise equal, except that any NaN matches any NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=80, deadline=None)
@given(trace=traces, data=st.data())
def test_writer_bytes_equal_reference(tmp_path_factory, trace, data):
    decimate = data.draw(st.integers(1, len(trace) + 1), label="decimate")
    out = tmp_path_factory.mktemp("write")
    write_trace(trace, out / "new.csv", decimate)
    reference_write_trace(trace, out / "ref.csv", decimate)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(trace=traces.filter(len))
def test_read_back_is_bitwise(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("read") / "trace.csv"
    write_trace(trace, path)
    loaded = read_trace(path)
    for name in ("t", "x", "c", "u", "u_c", "h", "e_hat", "qp_kkt"):
        assert_same_bits(getattr(loaded, name), getattr(trace, name))
    assert loaded.qp_status == trace.qp_status
    assert (loaded.scenario_hash, loaded.dt, loaded.version) == (
        trace.scenario_hash, trace.dt, trace.version
    )


@pytest.mark.parametrize(
    "at", [1, 3, 4, 6, 14], ids=["in-metadata", "before-header", "after-header", "between-rows", "at-end"]
)
def test_blank_lines_are_skipped(tmp_path, at):
    path = tmp_path / "trace.csv"
    trace = make_trace(2, 3, 10, seed=5)
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:at] + ["", "   "] + lines[at:]) + "\n")
    loaded = read_trace(path)
    for name in ("t", "x", "c", "u", "u_c", "h", "e_hat", "qp_kkt"):
        assert_same_bits(getattr(loaded, name), getattr(trace, name))
    assert (loaded.qp_status, loaded.scenario_hash, loaded.dt) == (trace.qp_status, trace.scenario_hash, trace.dt)


def test_uc_width_must_be_the_state_width(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(2, 3, 10, seed=5), path)
    lines = path.read_text().splitlines()
    drop = lines[3].split(",").index("uc2")
    rows = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines[3:]]
    path.write_text("\n".join(lines[:3] + rows) + "\n")
    with pytest.raises(ValueError, match="unexpected header .*,u2,uc1,h1,"):
        read_trace(path)


def test_renamed_column_is_named_as_a_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(2, 3, 10, seed=5), path)
    text = path.read_text()
    path.write_text(text.replace(",qp_kkt\n", ",qp_kkx\n", 1))
    with pytest.raises(ValueError, match="unexpected header .*,qp_kkx$"):
        read_trace(path)
    path.write_text("\n".join(text.splitlines()[:4]) + "\n")  # header, no rows
    with pytest.raises(ValueError, match="no trace data"):
        read_trace(path)
