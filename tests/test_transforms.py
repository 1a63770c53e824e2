"""Transforms, thresholding, and the sparse-amplitude CSV codec.

The DFT oracle is the explicit kernel matrix; the packet Haar oracles are
hand-expanded small cases plus orthogonality of the assembled matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqsp.signals import Signal, gen_piecewise
from hqsp.transforms import (
    ABSOLUTE,
    DFT,
    FRACTION_OF_MAX,
    PACKET_HAAR,
    CompressedVector,
    EmptySupportError,
    ThresholdPolicy,
    TransformDescriptor,
    WrongTransformError,
    analyse,
    classical_reconstruct,
    compression_ratio,
    dft,
    idft,
    load_compressed_csv,
    packet_analysis,
    packet_dhwt,
    packet_idhwt,
    read_amplitude_csv,
    save_compressed_csv,
    threshold_normalize,
)

RNG = np.random.default_rng(11)


def _signal(samples) -> Signal:
    return Signal(np.asarray(samples, dtype=complex))


# ---------------------------------------------------------------------------
# DFT
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dft_matches_kernel_matrix(n):
    N = 2**n
    j, k = np.meshgrid(np.arange(N), np.arange(N))
    kernel = np.exp(-2j * math.pi * j * k / N) / math.sqrt(N)
    x = RNG.normal(size=N) + 1j * RNG.normal(size=N)
    np.testing.assert_allclose(dft(_signal(x)).coefficients, kernel @ x, atol=1e-12)


def test_dft_kernel_sign():
    # X = dft(e_1) pins the exponent sign: [1, -i, -1, i] / 2
    X = dft(_signal([0, 1, 0, 0])).coefficients
    np.testing.assert_allclose(X, np.array([1, -1j, -1, 1j]) / 2, atol=1e-15)


def test_dft_preserves_norm_and_inverts():
    x = RNG.normal(size=64)
    X = dft(_signal(x))
    assert math.isclose(np.linalg.norm(X.coefficients), np.linalg.norm(x), rel_tol=1e-12)
    np.testing.assert_allclose(idft(X).samples, x, atol=1e-12)


def test_inverse_checks_descriptor():
    x = _signal(RNG.normal(size=8))
    with pytest.raises(WrongTransformError):
        idft(packet_dhwt(x, 2))
    with pytest.raises(WrongTransformError):
        packet_idhwt(dft(x))


# ---------------------------------------------------------------------------
# Packet Haar
# ---------------------------------------------------------------------------


def test_packet_haar_single_level_layout():
    a, b, c, d = 1.0, 2.0, -3.0, 5.0
    out = packet_dhwt(_signal([a, b, c, d]), 1).coefficients
    expected = np.array([a + b, c + d, a - b, c - d]) / math.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_packet_haar_two_levels_hand_expanded():
    a, b, c, d = 1.0, 2.0, -3.0, 5.0
    out = packet_dhwt(_signal([a, b, c, d]), 2).coefficients
    expected = np.array([a + b + c + d, a + b - c - d, a - b + c - d, a - b - c + d]) / 2
    np.testing.assert_allclose(out, expected, atol=1e-15)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_packet_haar_matrix_is_orthogonal(levels):
    N = 16
    cols = [packet_dhwt(_signal(np.eye(N)[:, j]), levels).coefficients for j in range(N)]
    U = np.stack(cols, axis=1)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(N), atol=1e-12)


def test_packet_haar_level_bounds():
    x = _signal(np.ones(8))
    with pytest.raises(ValueError):
        packet_dhwt(x, 0)
    with pytest.raises(ValueError):
        packet_dhwt(x, 4)
    assert packet_dhwt(x, 3).descriptor.levels == 3


def _packet_dhwt_restarted(x, levels):
    """Every level from the samples again, as packet_dhwt once ran: the
    reference for the deepening analysis."""
    out = np.asarray(x, dtype=complex).copy()
    n = int(math.log2(len(out)))
    for level in range(1, levels + 1):
        pairs = out.reshape(-1, 2 ** (n - level), 2)
        avg = (pairs[:, :, 0] + pairs[:, :, 1]) / math.sqrt(2.0)
        diff = (pairs[:, :, 0] - pairs[:, :, 1]) / math.sqrt(2.0)
        out = np.concatenate([avg, diff], axis=1).reshape(-1)
    return out


@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_packet_analysis_deepens_bit_identically(n, complex_input):
    x = RNG.normal(size=2**n)
    if complex_input:
        x = x + 1j * RNG.normal(size=2**n)
    levels = list(packet_analysis(x))
    assert [X.descriptor for X in levels] == [
        TransformDescriptor(PACKET_HAAR, L) for L in range(1, n + 1)
    ]
    for L, X in enumerate(levels, start=1):
        bits = X.coefficients.view(np.int64)
        reference = _packet_dhwt_restarted(x, L)
        if not complex_input:
            # a real input is analysed in real arithmetic, on the bits of
            # the complex reference's real part
            assert X.coefficients.dtype == np.float64
            assert np.array_equal(reference.imag.view(np.int64), np.zeros(2**n, np.int64))
            reference = reference.real.copy()
        assert np.array_equal(bits, reference.view(np.int64))
        assert np.array_equal(bits, packet_dhwt(x, L).coefficients.view(np.int64))


@st.composite
def _vectors_with_levels(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    levels = draw(st.integers(min_value=1, max_value=n))
    values = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2**n,
            max_size=2**n,
        )
    )
    return np.asarray(values), levels


@given(_vectors_with_levels())
@settings(max_examples=80, deadline=None)
def test_packet_haar_roundtrip_property(case):
    x, levels = case
    back = packet_idhwt(packet_dhwt(_signal(x), levels)).samples
    np.testing.assert_allclose(back, x, atol=1e-9 * max(1.0, np.max(np.abs(x))))


def test_piecewise_constant_is_eight_sparse():
    # 8 equal-length plateaus collapse to one coefficient per plateau once
    # every intra-plateau difference level has run (L = n - 3)
    x = gen_piecewise(2**10)
    X = packet_dhwt(x, 7)
    assert X.d == 8


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------


def _vector(values, kind=DFT, levels=None) -> CompressedVector:
    return CompressedVector(np.asarray(values, dtype=complex), TransformDescriptor(kind, levels))


def test_threshold_is_strict_and_ties_survive():
    X = _vector([0.5, 0.3, 0.2, 0.0])
    out = threshold_normalize(X, ThresholdPolicy(ABSOLUTE, 0.3))
    idx, vals = out.support()
    assert list(idx) == [0, 1]
    assert math.isclose(np.linalg.norm(out.coefficients), 1.0, rel_tol=1e-12)
    np.testing.assert_allclose(np.abs(vals), np.array([0.5, 0.3]) / math.hypot(0.5, 0.3))


def test_threshold_fraction_of_max_cutoff():
    X = _vector([1.0, 0.49, 0.51, 0.0])
    out = threshold_normalize(X, ThresholdPolicy(FRACTION_OF_MAX, 0.5))
    assert list(out.support()[0]) == [0, 2]


def test_threshold_zero_keeps_everything():
    coeffs = RNG.normal(size=16)
    out = threshold_normalize(_vector(coeffs), ThresholdPolicy(ABSOLUTE, 0.0))
    assert out.d == np.count_nonzero(coeffs)


@pytest.mark.parametrize(
    "policy",
    [ThresholdPolicy(ABSOLUTE, t) for t in (0.0, -0.0, 0.2, 0.3)]
    + [ThresholdPolicy(FRACTION_OF_MAX, f) for f in (0.0, 0.5)],
    ids=repr,
)
def test_dropped_is_what_threshold_normalize_zeroes(policy):
    # the zeros count as dropped at every cutoff; what is kept is the input
    # over the norm of the coefficients at or above the cutoff
    coeffs = np.array([0.5, -0.3j, 0.2, 0.0, 0.3, -0.0, 0.1 + 0.1j, 0.0])
    mag = np.abs(coeffs)
    out = threshold_normalize(_vector(coeffs), policy).coefficients
    assert np.array_equal(policy.dropped(mag), out == 0)
    kept = np.where(mag < policy.cutoff(mag), 0.0, coeffs)
    assert np.array_equal(out, kept / np.linalg.norm(kept))


def test_threshold_empty_support_errors():
    with pytest.raises(EmptySupportError):
        threshold_normalize(_vector(np.zeros(4)), ThresholdPolicy(ABSOLUTE, 0.0))
    with pytest.raises(EmptySupportError):
        threshold_normalize(_vector([0.1, 0.2, 0.0, 0.0]), ThresholdPolicy(ABSOLUTE, 0.5))


def test_threshold_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy("percentile", 0.5)
    with pytest.raises(ValueError):
        ThresholdPolicy(ABSOLUTE, -0.1)
    with pytest.raises(ValueError):
        ThresholdPolicy(FRACTION_OF_MAX, 1.5)
    for mode in (ABSOLUTE, FRACTION_OF_MAX):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ThresholdPolicy(mode, value)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        TransformDescriptor("walsh")
    with pytest.raises(ValueError):
        TransformDescriptor(PACKET_HAAR)
    with pytest.raises(ValueError):
        TransformDescriptor(DFT, levels=3)


def test_compressed_vector_shape_and_support():
    with pytest.raises(ValueError):
        _vector(np.ones(6))
    X = _vector([0.0, 2.0, 0.0, -1.0])
    assert X.n == 2 and X.d == 2
    idx, vals = X.support()
    assert list(idx) == [1, 3] and list(vals) == [2.0, -1.0]


def test_compression_ratio():
    assert compression_ratio(2**15, 44) == 2**15 / 44
    with pytest.raises(EmptySupportError):
        compression_ratio(16, 0)


def test_classical_reconstruct_dispatch():
    x = RNG.normal(size=32)
    for descriptor, forward in (
        (TransformDescriptor(DFT), dft(_signal(x))),
        (TransformDescriptor(PACKET_HAAR, 3), packet_dhwt(_signal(x), 3)),
    ):
        X = analyse(_signal(x), descriptor)
        assert X.descriptor == descriptor
        np.testing.assert_array_equal(X.coefficients, forward.coefficients)
        np.testing.assert_allclose(classical_reconstruct(X).samples, x, atol=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_compressed_csv_roundtrip(tmp_path):
    coeffs = np.zeros(16, dtype=complex)
    coeffs[[1, 7, 12]] = [0.25 - 0.125j, -0.5, 1e-17 + 1j]
    policy = ThresholdPolicy(FRACTION_OF_MAX, 0.01)
    X = CompressedVector(coeffs, TransformDescriptor(PACKET_HAAR, 2), threshold_applied=policy)
    path = tmp_path / "vec.csv"
    save_compressed_csv(X, path)
    back = load_compressed_csv(path)
    assert np.array_equal(back.coefficients, coeffs)  # repr round trip is exact
    assert back.descriptor == X.descriptor
    assert back.threshold_applied == policy


def test_compressed_csv_roundtrip_without_policy(tmp_path):
    X = dft(_signal(RNG.normal(size=8)))
    path = tmp_path / "vec.csv"
    save_compressed_csv(X, path)
    back = load_compressed_csv(path)
    np.testing.assert_allclose(back.coefficients, X.coefficients, atol=0)
    assert back.threshold_applied is None
    assert back.descriptor.kind == DFT


def test_compressed_csv_error_paths(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("# kind=dft\n# n=2\nidx,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError):
        load_compressed_csv(bad_header)
    missing_meta = tmp_path / "b.csv"
    missing_meta.write_text("index,real,imaginary\n0,1.0,0.0\n")
    with pytest.raises(ValueError):
        load_compressed_csv(missing_meta)


# a file written by an earlier ``hqsp compress --out``: n after kind and
# levels, CRLF row endings
_LEGACY_COMPRESSED = (
    b"# kind=haar\n# levels=2\n# n=3\n# mode=fraction_of_max\n# value=0.2\n"
    b"index,real,imaginary\r\n0,0.18294043331615056,0.0\r\n"
    b"1,0.6585855599381419,0.0\r\n2,0.4024689532955313,0.0\r\n"
    b"3,0.5122332132852216,0.0\r\n4,-0.32929277996907097,0.0\r\n"
)


def test_compressed_csv_reads_legacy_files(tmp_path):
    path = tmp_path / "legacy.csv"
    path.write_bytes(_LEGACY_COMPRESSED)
    X = load_compressed_csv(path)
    assert X.descriptor == TransformDescriptor(PACKET_HAAR, 2)
    assert X.threshold_applied == ThresholdPolicy(FRACTION_OF_MAX, 0.2)
    assert X.d == 5 and X.coefficients[4] == -0.32929277996907097
    again = tmp_path / "again.csv"
    save_compressed_csv(X, again)
    back = load_compressed_csv(again)
    assert np.array_equal(back.coefficients, X.coefficients)
    assert back.descriptor == X.descriptor and back.threshold_applied == X.threshold_applied


_HEAD = "# n=2\nindex,real,imaginary\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,real,imaginary\n0,1.0,0.0\n", "# n="),
        ("# n=2\n0,1.0,0.0\n", "expected header"),
        ("# n=2\n", "missing header"),
        ("# n\nindex,real,imaginary\n", "key=value"),
        ("# n=2\n# n=3\nindex,real,imaginary\n", "key=value"),
        ("# n=0\nindex,real,imaginary\n", "outside"),
        ("# n=99\nindex,real,imaginary\n", "outside"),
        ("# n=two\nindex,real,imaginary\n", "integer"),
        ("# n=1.5\nindex,real,imaginary\n", r"bad\.csv:1: n '1\.5' is not an integer"),
        (_HEAD + "4,1.0,0.0\n", "outside"),
        (_HEAD + "-1,1.0,0.0\n", "outside"),
        (_HEAD + "1,0.6,0.0\n1,0.8,0.0\n", "duplicate"),
        (_HEAD + "0,nan,0.0\n", "non-finite"),
        (_HEAD + "0,1.0,inf\n", "non-finite"),
        (_HEAD + "0,1.0\n", "3 cells"),
        (_HEAD + "0,1.0,0.0,7\n", "3 cells"),
        (_HEAD + "x,1.0,0.0\n", r"bad\.csv:3: index 'x' is not an integer"),
        (_HEAD + "1.5,1.0,0.0\n", r"bad\.csv:3: index '1\.5' is not an integer"),
        (_HEAD + "0,x,0.0\n", r"bad\.csv:3: value 'x' is not a number"),
        (_HEAD + "0,1.0,\n", r"bad\.csv:3: value '' is not a number"),
    ],
)
def test_amplitude_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        read_amplitude_csv(path)
    assert str(err.value).startswith(f"{path}:")  # every error names the file


_CSV_ALPHABET = "0123456789-+.,e#=n \nindexrealimaginaryft"


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=_CSV_ALPHABET),
        st.text(alphabet=_CSV_ALPHABET).map(lambda body: _HEAD + body),
    )
)
@settings(max_examples=300, deadline=None)
def test_amplitude_csv_reader_raises_only_value_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        n, indices, values, meta = read_amplitude_csv(path)
    except ValueError:
        return
    assert int(meta["n"]) == n
    assert indices.dtype == np.int64 and values.dtype == complex
    assert indices.shape == values.shape
    assert len(np.unique(indices)) == len(indices)
    assert all(0 <= i < 2**n for i in indices.tolist())
    assert np.isfinite(values).all()
