import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcav import io


def test_columns_roundtrip(tmp_path):
    p = tmp_path / "cols.csv"
    io.write_columns_csv(p, ["a", "b"], [np.array([1.0, 2.5]), np.array([-3.0, 4.0])])
    cols = io.read_columns_csv(p)
    assert list(cols) == ["a", "b"]
    np.testing.assert_array_equal(cols["a"], [1.0, 2.5])
    np.testing.assert_array_equal(cols["b"], [-3.0, 4.0])


def test_spectrum_csv_header(tmp_path):
    p = tmp_path / "s.csv"
    io.write_spectrum_csv(p, np.array([-1.0, 0.0]), np.array([0.9, 0.3]))
    text = p.read_text().splitlines()
    assert text[0] == "detuning_mhz,transmission"
    assert len(text) == 3


def test_saturation_csv_header(tmp_path):
    p = tmp_path / "sat.csv"
    io.write_saturation_csv(p, np.array([1e-12]), np.array([0.88]), np.array([0.32]))
    assert p.read_text().splitlines()[0] == "power_w,transmission_atoms,transmission_empty"


def test_timeseries_csv_converts_to_mhz(tmp_path):
    from ringcav.thermal import TimeSeries

    series = TimeSeries(
        time_s=np.array([0.0, 1.0]),
        heater_detuning_hz=np.array([3e6, 4e6]),
        resonance_offset_hz=np.array([-5e6, -6e6]),
        p_circ_w=np.array([1e-3, 2e-3]),
        probe_transmission=np.array([0.5, 0.6]),
        metrics={},
    )
    p = tmp_path / "ts.csv"
    io.write_timeseries_csv(p, series)
    lines = p.read_text().splitlines()
    assert lines[0] == "time_s,heater_detuning_mhz,resonance_offset_mhz,p_circ_w,probe_transmission"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(3.0)
    assert float(first[2]) == pytest.approx(-5.0)


def test_dataset_roundtrip_with_sigma(tmp_path):
    p = tmp_path / "d.csv"
    io.write_columns_csv(p, ["detuning_mhz", "transmission", "sigma"],
                         [np.array([0.0, 1.0]), np.array([0.9, 0.8]), np.array([0.01, 0.02])])
    x, yobs, sigma = io.read_dataset_csv(p)
    np.testing.assert_array_equal(x, [0.0, 1.0])
    np.testing.assert_array_equal(yobs, [0.9, 0.8])
    np.testing.assert_array_equal(sigma, [0.01, 0.02])


def test_dataset_without_sigma(tmp_path):
    p = tmp_path / "d.csv"
    io.write_spectrum_csv(p, np.array([0.0, 1.0]), np.array([0.9, 0.8]))
    _, _, sigma = io.read_dataset_csv(p)
    assert sigma is None


def test_dataset_requires_two_columns(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("x\n1\n2\n")
    with pytest.raises(ValueError):
        io.read_dataset_csv(p)


def test_float_format_is_stable(tmp_path):
    p = tmp_path / "f.csv"
    v = 1.0 / 3.0
    io.write_columns_csv(p, ["v"], [np.array([v])])
    got = io.read_columns_csv(p)["v"][0]
    assert got == pytest.approx(v, rel=1e-11)


def test_json_roundtrip_and_layout(tmp_path):
    p = tmp_path / "o.json"
    io.write_json(p, {"b": 1, "a": [1.5, None]})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert io.read_json(p) == {"b": 1, "a": [1.5, None]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite_floats_and_writes_nothing(tmp_path, value):
    p = tmp_path / "o.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.write_json(p, {"a": [1.0, {"b": value}]})
    assert not p.exists()


def test_manifest_contents(tmp_path):
    m = io.build_manifest("spectrum", {"seed": 3}, ["in.json"], ["out.csv"])
    assert m["command"] == "spectrum"
    assert m["resolved"] == {"seed": 3}
    assert m["inputs"] == ["in.json"]
    assert m["outputs"] == ["out.csv"]
    assert "version" in m and "timestamp" in m
    # manifest must be serializable as-is
    json.dumps(m)


def test_manifest_path_suffix():
    assert str(io.manifest_path("a/b.csv")).endswith("b.csv.manifest.json")


def _csv_rows_reference(path, header, columns):
    """Every row through csv.writer, one FLOAT_FMT call per value."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*cols):
            w.writerow([io.FLOAT_FMT % v for v in row])


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0, 1e-300, 123456789012345.0]),
)


def _chunk_rows(k):
    """Rows of a k-column write formatted at a time."""
    return io.CHUNK_VALUES // k


@st.composite
def _csv_columns(draw):
    k = draw(st.integers(1, 6))
    rows = _chunk_rows(k)
    # 0 to 5 rows, and runs that straddle one and two chunks
    n = draw(st.one_of(st.integers(0, 5), st.sampled_from([rows - 1, rows, rows + 1,
                                                             2 * rows + 7])))
    columns = []
    for _ in range(k):
        if draw(st.booleans()):
            base = np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=8)),
                            dtype=np.int64)
        else:
            base = np.array(draw(st.lists(_CSV_FLOATS, min_size=1, max_size=8)), dtype=float)
        columns.append(np.resize(base, n))
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_csv_columns())
def test_write_columns_csv_matches_csv_writer(tmp_path_factory, columns):
    d = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(len(columns))]
    io.write_columns_csv(d / "got.csv", header, columns)
    _csv_rows_reference(d / "want.csv", header, columns)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_write_columns_csv_without_columns(tmp_path):
    io.write_columns_csv(tmp_path / "got.csv", [], [])
    _csv_rows_reference(tmp_path / "want.csv", [], [])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _assert_matches_reference(d, columns):
    header = [f"c{j}" for j in range(len(columns))]
    io.write_columns_csv(d / "got.csv", header, columns)
    _csv_rows_reference(d / "want.csv", header, columns)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_write_columns_csv_random_bits_match_reference(tmp_path):
    # 1 048 576 float64 bit patterns: every exponent, NaN payloads, subnormals
    bits = np.random.default_rng(20261018).integers(0, 2**64, size=2**20, dtype=np.uint64)
    _assert_matches_reference(tmp_path, list(bits.view(float).reshape(4, -1)))


def _seam_values():
    """Where the kernel's decisions change, each with both float neighbours."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    seams = np.array([
        9.9999999999995e-05, 99999999999.95, 999999999999.5, 1e12,  # fixed/scientific
        1234567890125.0, 1234567890135.0, 9999999999995.0,  # exact 13-digit ties
        1e-290, 1e290, 5e-324, 1e-310, 2.2250738585072014e-308,  # the kernel's range, subnormals
    ])
    base = np.concatenate([powers, seams])
    near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308]
    return np.concatenate([near, -near, specials])


def _constant_columns(n):
    """Columns of n values that are one float64 bit pattern each.

    Both zeros, NaN, both infinities, the smallest subnormal, 1e300, an exact
    13-digit tie (within the kernel's tie margin), and int64 values above 2**53
    that round to one float.
    """
    values = [-0.0, 0.0, np.nan, -np.inf, np.inf, 5e-324, 1e300, 1234567890125.0]
    return [np.full(n, v) for v in values] + [np.resize(np.array([2**53, 2**53 + 1]), n)]


@pytest.mark.parametrize("k", range(1, 7))
def test_write_columns_csv_seams_match_reference(tmp_path, k):
    seams = _seam_values()
    ints = np.array([0, 1, -1, 2**62, -2**62, 2**53 + 1, 10**12 - 1, 10**13 + 5], dtype=np.int64)
    bases = [seams, ints, np.array([True, False]), seams[::-1], np.roll(seams, 7), ints[::-1]]
    rows = _chunk_rows(k)
    # 0 and 1 rows, and runs that straddle one and two chunks
    for n in [0, 1, rows - 1, rows, rows + 1, 2 * rows + 7]:
        _assert_matches_reference(tmp_path, [np.resize(base, n) for base in bases[:k]])
    n = 2 * rows + 7
    varying = [np.resize(base, n) for base in bases[:k]]
    for m in [1, n]:
        constants = _constant_columns(m)
        for i, constant in enumerate(constants):
            # a constant first, middle or last column between varying ones
            columns = [c[:m] for c in varying]
            columns[(0, k // 2, k - 1)[i % 3]] = constant
            _assert_matches_reference(tmp_path, columns)
            # every column constant
            _assert_matches_reference(tmp_path, [constants[(i + j) % len(constants)]
                                                 for j in range(k)])
    # a column constant in one chunk and varying in the next, and the reverse
    for switch in [rows - 1, rows, rows + 1]:
        for head, tail in [(np.full(n, 0.5), varying[0]), (varying[0], np.full(n, -0.0))]:
            columns = list(varying)
            columns[k // 2] = np.concatenate([head[:switch], tail[switch:]])
            _assert_matches_reference(tmp_path, columns)
    # one value in the middle of a chunk differs in its bits alone (0.0 among -0.0)
    columns = list(varying)
    columns[k - 1] = np.full(n, -0.0)
    columns[k - 1][[rows // 2, rows + rows // 2]] = 0.0
    _assert_matches_reference(tmp_path, columns)


@pytest.mark.parametrize("column", [
    np.array([1.0 + 2.0j]),  # would lose its imaginary part
    np.array(["1.5"]),  # would be parsed
    np.array(["a"], dtype=object),
    np.array(1.5),  # 0-d
    np.zeros((1, 2)),  # 2-D
], ids=["complex", "str", "object", "0-d", "2-D"])
def test_write_columns_csv_rejects_non_real_columns(tmp_path, column):
    with pytest.raises(TypeError):
        io.write_columns_csv(tmp_path / "x.csv", ["a", "b"], [np.array([0.0]), column])
