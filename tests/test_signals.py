"""Signal generators, CSV ingestion, and on-disk formats.

The periodic generator's spectral support is checked against a plain
``np.fft.fft`` of the samples, independent of the transforms module.
"""

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hqsp import signals
from hqsp.signals import (
    DegenerateSignalError,
    EmptyColumnError,
    InvalidLengthError,
    NonNumericCellError,
    Signal,
    gen_gaussian,
    gen_gaussian_mixture,
    gen_periodic,
    gen_piecewise,
    gen_sinc,
    ingest_waveform_csv,
    save_signal_csv,
)
from hqsp.signals import _normalized


# ---------------------------------------------------------------------------
# Signal container
# ---------------------------------------------------------------------------


def test_signal_requires_power_of_two_vector():
    with pytest.raises(InvalidLengthError):
        Signal(np.ones(6))
    with pytest.raises(InvalidLengthError):
        Signal(np.ones((4, 2)))
    with pytest.raises(InvalidLengthError):
        Signal(np.ones(1))
    s = Signal(np.ones(8) / math.sqrt(8))
    assert s.n == 3
    assert math.isclose(np.linalg.norm(s.samples), 1.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_periodic(256),
        lambda: gen_piecewise(2**10),
        lambda: gen_sinc(2**12),
        lambda: gen_gaussian(2**12),
        lambda: gen_gaussian_mixture(N=2**12, seed=0),
    ],
    ids=["periodic", "piecewise", "sinc", "gaussian", "mixture"],
)
def test_generators_return_unit_norm(make):
    s = make()
    assert math.isclose(np.linalg.norm(s.samples), 1.0, rel_tol=1e-12)
    assert 2 ** s.n == len(s.samples)


def test_periodic_spectrum_support():
    s = gen_periodic(256)
    X = np.fft.fft(s.samples) / math.sqrt(256)
    big = np.flatnonzero(np.abs(X) > 1e-10)
    assert list(big) == [3, 20, 236, 253]
    # published rounded amplitudes, recovered to the digit after renormalization
    assert abs(abs(X[3]) - 0.41100) < 1e-4
    assert abs(abs(X[20]) - 0.57540) < 1e-4


def test_periodic_rejects_small_or_odd_lengths():
    with pytest.raises(InvalidLengthError):
        gen_periodic(32)  # frequency 20 would alias
    with pytest.raises(InvalidLengthError):
        gen_periodic(100)


def test_piecewise_structure():
    s = gen_piecewise(64)
    blocks = s.samples.reshape(8, 8)
    assert np.all(blocks == blocks[:, :1])  # constant within each block
    with pytest.raises(ValueError):
        gen_piecewise(64, block_values=(1.0, 2.0))
    with pytest.raises(DegenerateSignalError):
        gen_piecewise(64, block_values=(0.0,) * 8)


@pytest.mark.parametrize(
    "gen, param, value",
    [
        (gen_sinc, "t_min", -math.inf),
        (gen_sinc, "t_max", math.inf),
        (gen_sinc, "t_max", math.nan),
        (gen_gaussian, "mu", math.inf),
        (gen_gaussian, "mu", -math.inf),
        (gen_gaussian, "x_min", -math.inf),
        (gen_gaussian, "x_max", math.inf),
        (gen_gaussian, "x_max", math.nan),
        (gen_gaussian, "sigma", math.inf),  # once a flat signal without a word
        (gen_gaussian, "sigma", math.nan),  # once reported as non-finite samples
        (gen_gaussian_mixture, "x_min", math.nan),
        (gen_gaussian_mixture, "x_max", math.inf),
    ],
)
def test_generator_rejects_non_finite_parameter_before_numpy(gen, param, value):
    # named as the parameter it is, before NumPy can warn or misreport
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{param} must be (positive and )?finite, got {value}"):
            gen(2**10, **{param: value})


def test_generator_reports_non_finite_samples():
    values = np.linspace(-1.0, 1.0, 2**10)
    values[7] = math.nan
    with pytest.raises(DegenerateSignalError, match="gaussian: non-finite samples"):
        _normalized(values, "gaussian")


def test_sinc_grid_and_peak():
    s = gen_sinc(2**10, t_min=-10.0, t_max=10.0)
    t = np.linspace(-10.0, 10.0, 2**10)
    expected = np.sinc(t)
    np.testing.assert_allclose(s.samples, expected / np.linalg.norm(expected), atol=1e-12)
    with pytest.raises(ValueError):
        gen_sinc(2**10, t_min=1.0, t_max=10.0)


def test_gaussian_parameters():
    s = gen_gaussian(2**10, mu=0.5, sigma=0.3, x_min=-2.0, x_max=2.0)
    x = np.linspace(-2.0, 2.0, 2**10)
    expected = np.exp(-((x - 0.5) ** 2) / (2 * 0.3**2))
    np.testing.assert_allclose(s.samples, expected / np.linalg.norm(expected), atol=1e-12)
    with pytest.raises(ValueError):
        gen_gaussian(2**10, sigma=0.0)


def test_mixture_is_seed_deterministic():
    a = gen_gaussian_mixture(N=2**10, seed=5)
    b = gen_gaussian_mixture(N=2**10, seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = gen_gaussian_mixture(N=2**10, seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_mixture_needs_a_component():
    with pytest.raises(DegenerateSignalError):
        gen_gaussian_mixture(N=2**10, K=0)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_mixture_draws_components_then_fresh_noise(seed):
    # the benchmark mixture, drawn step by step: centers, widths and
    # amplitudes from one default_rng(seed), noise from a fresh one
    N, K = 256, 5
    rng = np.random.default_rng(seed)
    centers = tuple(float(v) for v in rng.uniform(-4.5, 4.5, K))
    widths = tuple(float(v) for v in rng.uniform(0.12, 0.60, K))
    amplitudes = tuple(float(v) for v in rng.uniform(0.30, 1.00, K))
    x = np.linspace(-5.0, 5.0, N)
    f = np.zeros(N)
    for a, mu, sigma in zip(amplitudes, centers, widths):
        f += a * np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))
    f = f + np.random.default_rng(seed).normal(0.0, 0.001, N)
    expected = f / np.linalg.norm(f)
    assert np.array_equal(gen_gaussian_mixture(N=N, seed=seed, K=K).samples, expected)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _write(path, text):
    path.write_text(text)
    return path


def test_ingest_pads_to_next_power_of_two(tmp_path):
    path = _write(tmp_path / "w.csv", "".join(f"{v}\n" for v in [3.0, 4.0, 0.0, 0.0, 5.0]))
    s = ingest_waveform_csv(path)
    assert len(s.samples) == 8
    expected = np.array([3, 4, 0, 0, 5, 0, 0, 0], dtype=float)
    np.testing.assert_allclose(s.samples, expected / np.linalg.norm(expected))


def test_ingest_index_selector_skips_header(tmp_path):
    # the first column is read; one header line is skipped
    path = _write(tmp_path / "w.csv", "ppg,time\n1.0,0.0\n-1.0,0.1\n")
    s = ingest_waveform_csv(path)
    np.testing.assert_allclose(s.samples, [math.sqrt(0.5), -math.sqrt(0.5)])


def test_ingest_error_taxonomy(tmp_path):
    with pytest.raises(EmptyColumnError):
        ingest_waveform_csv(_write(tmp_path / "empty.csv", "\n\n"))
    with pytest.raises(NonNumericCellError):
        ingest_waveform_csv(_write(tmp_path / "bad.csv", "1.0\ntwo\n"))
    with pytest.raises(EmptyColumnError):
        ingest_waveform_csv(_write(tmp_path / "only_header.csv", "ppg\n"))
    with pytest.raises(DegenerateSignalError, match="overflows"):
        ingest_waveform_csv(_write(tmp_path / "huge.csv", "1e308\n1e308\n1\n2\n"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_ingest_rejects_non_finite_cells(tmp_path, cell):
    with pytest.raises(NonNumericCellError):
        ingest_waveform_csv(_write(tmp_path / "w.csv", f"1\n{cell}\n2\n3\n"))
    with pytest.raises(NonNumericCellError):  # not mistaken for a header line
        ingest_waveform_csv(_write(tmp_path / "w.csv", f"{cell}\n1\n2\n3\n"))


def _ingest_row_by_row(path):
    """Ingestion as one float() per row, as it ran before the one-pass
    parse: the reference for the values and for every error."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    if not rows:
        raise EmptyColumnError(f"{path}: no data rows")
    values = []
    for lineno, row in enumerate(rows, start=1):
        cell = row[0].strip()
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise NonNumericCellError(
                f"{path}: row {lineno}: non-numeric or non-finite cell {cell!r}"
            )
        values.append(value)
    padded = np.zeros(1 << max(1, (len(values) - 1).bit_length()))
    padded[: len(values)] = values
    return _normalized(padded, f"waveform:{path}")


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.3e}"),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
)
# \x0c, \x1c, \x85 and \u2028 end a line for str.splitlines() but not for
# csv, which keeps them inside the row
_PAD = st.sampled_from(
    ["", " ", "\t", "  ", "\u00a0", "\u2003", "\x0c", "\x1c", "\x85", "\u2028"]
)
_PLAIN_CELL = st.one_of(
    st.tuples(_PAD, _NUMBER, _PAD).map("".join),
    st.sampled_from(["", " ", "\t", "x", "ppg", "1e999", "-0.0", "1_000", "0x10",
                     "nan", "-inf", "1e-320", "+3", ".5", "5.", "1e", "--1", "\u0661\u0662"]),
    st.text(alphabet=" \t0123456789.eE+-_xn\x0c\x1c\x85\u2028", max_size=6),
)
# quoted cells, which may hold a comma, a doubled quote or a line break
_QUOTED_CELL = st.one_of(
    _PLAIN_CELL,
    st.sampled_from(["1,5", '2""', "3\n", "4\r\n5", ",", ""]),
).map(lambda cell: '"' + cell.replace('"', '""') + '"')
_CELL = st.one_of(_PLAIN_CELL, _QUOTED_CELL)
_ROW = st.lists(_CELL, min_size=1, max_size=3).map(",".join)


# one-column files of plain cells, and rows of quoted or several cells that
# only csv splits right: both reach the one C parse, or the row-by-row pass
_ROWS = st.one_of(st.lists(_PLAIN_CELL, max_size=12), st.lists(_ROW, max_size=12))


@given(_ROWS, st.sampled_from(["\n", "\r\n", "\r"]))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_ingest_matches_row_by_row_parse(tmp_path, rows, newline):
    # numeric, blank, whitespace-only, multi-column, quoted and
    # blank-first-cell rows, ended by any csv line break: the same samples
    # bit for bit, or the same error and message
    _assert_matches_row_by_row(_write_rows(tmp_path / "w.csv", rows, newline))


def _write_rows(path, rows, newline):
    with open(path, "w", newline="") as fh:  # the line breaks as given
        fh.write("".join(row + newline for row in rows))
    return path


def _assert_matches_row_by_row(path):
    try:
        expected = _ingest_row_by_row(path)
    except ValueError as err:
        with pytest.raises(type(err)) as raised:
            ingest_waveform_csv(path)
        assert str(raised.value) == str(err)
        return
    s = ingest_waveform_csv(path)
    assert s.samples.tobytes() == expected.samples.tobytes()


# a header, blank or quoted, then the rows: the one-pass parse starts
# after it, so the header must be found as the row-by-row parse finds it
_HEADER = st.one_of(
    st.sampled_from(["ppg", "ppg,time", '"ppg"', '"p,g"', '"a\nb"', " ", "", "x1"]),
    _ROW,
)


@given(_HEADER, _ROWS, st.sampled_from(["\n", "\r\n", "\r"]))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_ingest_after_a_header_matches_row_by_row_parse(tmp_path, header, rows, newline):
    _assert_matches_row_by_row(_write_rows(tmp_path / "w.csv", [header, *rows], newline))


PPG_DIR = Path(__file__).resolve().parent.parent / "data" / "ppg"


@pytest.mark.parametrize("name", ["recording01.csv", "recording02.csv", "recording03.csv"])
def test_ingest_ppg_recordings_match_row_by_row_parse(name):
    # a header and 65,536 numeric rows: the traffic the one-pass parse serves
    _assert_matches_row_by_row(PPG_DIR / name)


@pytest.mark.parametrize("where", ["trailing", "mid-file"])
def test_ingest_whitespace_line_stays_on_the_one_pass_parse(tmp_path, monkeypatch, where):
    # a line of whitespace is a blank row to both parses, and must not send
    # the file to the row-by-row one
    lines = (PPG_DIR / "recording01.csv").read_text().splitlines(keepends=True)
    if where == "trailing":
        lines.append(" \n")
    else:
        lines.insert(30_000, " \t\n")
    path = tmp_path / "w.csv"
    path.write_text("".join(lines))
    expected = ingest_waveform_csv(PPG_DIR / "recording01.csv")

    def row_by_row(fh, path):
        raise AssertionError("row-by-row parse called")

    monkeypatch.setattr(signals, "_parse_rows", row_by_row)
    assert ingest_waveform_csv(path).samples.tobytes() == expected.samples.tobytes()


def _without_row_pass(monkeypatch):
    """Make the row-by-row pass raise, so a file that reaches it fails."""
    def row_pass(fh, path):
        raise AssertionError(f"{path}: read row by row, not in one C parse")
    monkeypatch.setattr(signals, "_parse_rows", row_pass)


@pytest.mark.parametrize("name", ["recording01.csv", "recording02.csv", "recording03.csv"])
def test_ingest_ppg_recordings_take_the_chunked_parse(name, monkeypatch):
    expected = _ingest_row_by_row(PPG_DIR / name)
    _without_row_pass(monkeypatch)
    assert ingest_waveform_csv(PPG_DIR / name).samples.tobytes() == expected.samples.tobytes()


# the first row, and the blank lines around it, span several physical
# lines: loadtxt must start on the line after the ones csv took
@pytest.mark.parametrize(
    "text",
    [
        '"pp\ng",time\n3\n4\n',
        '"pp\r\ng"\r\n3\r\n4\r\n',
        '"3\n"\n4\n',
        "ppg\r3\n4\n",
        "ppg\r3\r4\r",
        "ppg\r\n3\n4\n",
        "ppg\r\n3\r\n4\r\n",
        "\n \r\n\t\rppg\n3\n4\n",
        "ppg\n\n \r\n\r3\n4\n",
    ],
    ids=["quoted-lf", "quoted-crlf", "quoted-number", "cr-header", "cr-file",
         "crlf-header", "crlf-file", "blank-before", "blank-after"],
)
def test_ingest_first_row_over_several_lines(tmp_path, monkeypatch, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    expected = _ingest_row_by_row(path)
    np.testing.assert_allclose(expected.samples, [0.6, 0.8])
    _without_row_pass(monkeypatch)
    assert ingest_waveform_csv(path).samples.tobytes() == expected.samples.tobytes()


# the rest of the file after its first row is empty: no parse of it may
# warn that it held no data
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["ppg\n2.5\n", "2.5\n", "2.5", "ppg\n2.5\n\n\r\n \n", "2.5\n\n"])
def test_ingest_one_data_row(tmp_path, text):
    path = _write(tmp_path / "w.csv", text)
    assert ingest_waveform_csv(path).samples.tolist() == [1.0, 0.0]
    _assert_matches_row_by_row(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["ppg\n", "ppg\n\n\r\n", "\n \n"])
def test_ingest_no_data_row_does_not_warn(tmp_path, text):
    with pytest.raises(EmptyColumnError, match="no data rows"):
        ingest_waveform_csv(_write(tmp_path / "w.csv", text))


def test_ingest_blank_lines_before_the_header(tmp_path):
    path = _write_rows(tmp_path / "w.csv", ["", " ", "\t", "ppg", "3", "4"], "\n")
    np.testing.assert_allclose(ingest_waveform_csv(path).samples, [0.6, 0.8])
    _assert_matches_row_by_row(path)


def test_ingest_names_a_late_non_finite_row(tmp_path):
    rows = ["ppg"] + [f"{0.25 * (i % 7)!r}" for i in range(65_536)]
    rows[60_000] = " nan"  # the 60,000th data row
    path = _write_rows(tmp_path / "w.csv", rows, "\n")
    with pytest.raises(NonNumericCellError, match=r"w\.csv: row 60000: .* 'nan'$"):
        ingest_waveform_csv(path)
    _assert_matches_row_by_row(path)


def test_ingest_names_a_file_the_csv_module_cannot_read(tmp_path):
    # an unterminated quote runs one field past csv's field size limit
    path = _write(tmp_path / "w.csv", 'ppg\n1.0\n"2.0\n' + "3.0\n" * 40_000)
    with pytest.raises(csv.Error) as raw:
        _ingest_row_by_row(path)
    with pytest.raises(NonNumericCellError) as raised:
        ingest_waveform_csv(path)
    assert str(raised.value) == f"{path}: {raw.value}"


@pytest.mark.parametrize("row", [1, 30_000])
def test_ingest_names_a_file_that_does_not_decode(tmp_path, row):
    rows = ["ppg"] + ["1.5"] * 40_000
    rows[row] = "\xff2.0"
    path = tmp_path / "w.csv"
    path.write_bytes("\n".join(rows).encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as raw:
        _ingest_row_by_row(path)
    with pytest.raises(NonNumericCellError) as raised:
        ingest_waveform_csv(path)
    assert str(raised.value) == f"{path}: {raw.value}"


@given(st.integers(min_value=1, max_value=70))
@settings(max_examples=30, deadline=None)
def test_ingest_length_is_next_power_of_two(count):
    # property checked arithmetically; file IO exercised in the tests above
    padded = 1 << max(1, (count - 1).bit_length())
    assert padded >= max(2, count) and padded < 2 * max(2, count) + 2
    assert padded & (padded - 1) == 0


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------


def test_signal_csv_roundtrip(tmp_path):
    s = gen_gaussian(2**8)
    path = tmp_path / "sig.csv"
    save_signal_csv(s, path)
    back = ingest_waveform_csv(path)
    np.testing.assert_array_equal(back.samples, s.samples)


def test_signal_csv_rejects_complex(tmp_path):
    s = Signal(np.array([1j, 0, 0, 0]))
    with pytest.raises(ValueError):
        save_signal_csv(s, tmp_path / "sig.csv")
