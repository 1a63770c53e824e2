"""End-to-end experiments, benchmark tables, sweep, and serialization.

The heavyweight table drivers run once per module (fixtures) against a
deliberately missing recording path, which also exercises the warning
rows; the real recording is covered by the acceptance suite.
"""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hqsp.loaders import SparseState, sqsp
from hqsp.pipeline import (
    CR_VALID_HIGH,
    CR_VALID_LOW,
    ExperimentConfig,
    ExperimentRecord,
    FslRecord,
    PipelineError,
    SweepCell,
    ToleranceExceededError,
    DEFAULT_SWEEP_TAUS,
    _unit_samples,
    build_signal,
    compression_point,
    format_table,
    hybrid_prepare,
    price_thresholds,
    run_table1,
    run_table2,
    sweep_ppg,
    table1_configs,
    write_records_csv,
    write_sweep_csv,
)
from hqsp.signals import gen_gaussian, ingest_waveform_csv
from hqsp.statesim import simulate, simulate_support, trace_distance
from hqsp.transforms import (
    ABSOLUTE,
    DFT,
    FRACTION_OF_MAX,
    PACKET_HAAR,
    CompressedVector,
    EmptySupportError,
    ThresholdPolicy,
    TransformDescriptor,
    analyse,
    classical_reconstruct,
    compression_ratio,
    packet_analysis,
    packet_dhwt,
    threshold_normalize,
)

RNG = np.random.default_rng(29)
PPG_DIR = Path(__file__).resolve().parent.parent / "data" / "ppg"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(PipelineError):
        ExperimentConfig("gaussian", PACKET_HAAR, 7, epsilon=0.0)
    with pytest.raises(PipelineError):
        ExperimentConfig("gaussian", PACKET_HAAR, 7, epsilon=1.5)
    with pytest.raises(PipelineError):
        ExperimentConfig("gaussian", "walsh", 7)
    with pytest.raises(PipelineError):
        ExperimentConfig("gaussian", PACKET_HAAR)  # levels required
    with pytest.raises(PipelineError):
        ExperimentConfig("periodic", DFT, levels=3)
    with pytest.raises(PipelineError):
        ExperimentConfig("csv", PACKET_HAAR, 7)  # csv needs a path
    assert ExperimentConfig("sinc", PACKET_HAAR, 10).label == "sinc"


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        "# gaussian demo\n"
        "signal.kind = gaussian\n"
        "signal.N = 1024\n"
        "signal.sigma = 0.5\n"
        "transform.kind = haar\n"
        "transform.levels = 7\n"
        "threshold.mode = fraction_of_max\n"
        "threshold.value = 0.01\n"
        "epsilon = 0.5\n"
        'label = "demo"\n'
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.signal == "gaussian"
    assert cfg.signal_params == {"N": 1024, "sigma": 0.5}
    assert cfg.transform == PACKET_HAAR and cfg.levels == 7
    assert cfg.threshold == ThresholdPolicy(FRACTION_OF_MAX, 0.01)
    assert cfg.epsilon == 0.5
    assert cfg.label == "demo"
    circuit, record = hybrid_prepare(cfg)
    assert record.label == "demo"


def test_config_from_file_csv_and_fsl(tmp_path):
    wave = tmp_path / "wave.csv"
    wave.write_text("".join(f"{v}\n" for v in RNG.normal(size=32)))
    path = tmp_path / "exp.conf"
    path.write_text(
        f"signal.csv = {wave}\n"
        "transform.kind = dft\n"
        "threshold.value = 0.0\n"
        "threshold.mode = absolute\n"
        f"output.dir = {tmp_path}\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.signal == "csv" and cfg.csv_path == str(wave)
    assert cfg.transform == DFT and cfg.levels is None
    assert cfg.output_dir == str(tmp_path)


def test_config_from_file_errors(tmp_path):
    bad_key = tmp_path / "a.conf"
    bad_key.write_text("signal.kind = sinc\nfrobnicate = 1\n")
    with pytest.raises(PipelineError):
        ExperimentConfig.from_file(bad_key)
    half_tau = tmp_path / "b.conf"
    half_tau.write_text("signal.kind = sinc\nthreshold.mode = absolute\n")
    with pytest.raises(PipelineError):
        ExperimentConfig.from_file(half_tau)
    no_signal = tmp_path / "c.conf"
    no_signal.write_text("epsilon = 0.5\n")
    with pytest.raises(PipelineError):
        ExperimentConfig.from_file(no_signal)
    no_equals = tmp_path / "d.conf"
    no_equals.write_text("signal.kind sinc\n")
    with pytest.raises(PipelineError):
        ExperimentConfig.from_file(no_equals)


def test_config_keeps_hash_inside_quotes(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(
        "signal.kind = sinc  # comment\ntransform.levels = 3\nlabel = \"a#b\"  # 'q'\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.signal == "sinc" and cfg.label == "a#b"


def test_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text("signal.kind = sinc\nepsilon = 0.5\n# later\nepsilon = 0.9\n")
    with pytest.raises(PipelineError, match=r"exp.conf:4: duplicate key 'epsilon'"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("signal.kind = sinc\nsignal.bogus = 3\n", r"signal\.bogus"),
        ('signal.kind = sinc\nsignal.N = "abc"\n', r"signal\.N must be int"),
        ("signal.kind = gaussian\nsignal.sigma = true\nsignal.mu = x\n", r"signal\.sigma must be float"),
        ("signal.kind = gaussian\nsignal.mu = x\n", r"signal\.mu must be float"),
        ("signal.kind = mixture\nsignal.seed = 1.5\n", r"signal\.seed must be int"),
        ("signal.kind = mixture\nsignal.K = true\n", r"signal\.K must be int"),
        ("signal.kind = mixture\nsignal.spec = 1\n", r"signal\.spec"),
        ("signal.kind = gaussian\nsignal.sigma = 1" + "0" * 400 + "\n", r"signal\.sigma"),
        ("signal.kind = gaussian\nsignal.x_max = 1" + "0" * 400 + "\n", r"signal\.x_max"),
        ("signal.kind = gaussian\nsignal.sigma = nan\n", r"signal\.sigma must be finite"),
        ("signal.kind = gaussian\nsignal.mu = inf\n", r"signal\.mu must be finite"),
        ("signal.kind = gaussian\nsignal.x_max = inf\n", r"signal\.x_max must be finite"),
        ("signal.csv = w.csv\nsignal.N = 8\n", r"signal\.N"),
        ("signal.kind = chirp\n", "unknown signal generator"),
    ],
)
def test_config_rejects_bad_signal_params(tmp_path, lines, message):
    path = tmp_path / "exp.conf"
    path.write_text(lines + "transform.levels = 3\n")
    with pytest.raises(PipelineError, match=message):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize(
    "line",
    [
        "transform.levels = inf",
        "epsilon = 1" + "0" * 400,
        "threshold.value = x",
        "threshold.value = true",
        'threshold.value = "0.5"',
        "epsilon = true",
        # a level is an integer, as written; the EAE baseline always runs, so
        # its old switch is an unknown key
        "transform.levels = 2.7",
        "transform.levels = 3.0",
        "transform.levels = true",
        'transform.levels = "3"',
        "baselines.eae = no",
        'baselines.eae = "false"',
        "baselines.eae = 0",
    ],
    ids=[
        "levels-inf", "epsilon-overflow", "threshold-text", "threshold-bool",
        "threshold-quoted", "epsilon-bool", "levels-fraction",
        "levels-float", "levels-bool", "levels-text", "eae-text", "eae-quoted",
        "eae-int",
    ],
)
def test_config_rejects_unconvertible_values(tmp_path, line):
    path = tmp_path / "exp.conf"
    path.write_text(f"signal.kind = sinc\nthreshold.mode = absolute\n{line}\n")
    with pytest.raises(PipelineError, match=line.split(" =")[0]):
        ExperimentConfig.from_file(path)


_CONFIG_KEYS = [
    "signal.kind", "signal.csv", "signal.N", "signal.seed", "signal.sigma",
    "signal.bogus", "transform.kind", "transform.levels", "threshold.mode",
    "threshold.value", "epsilon", "output.dir", "label", "k",
]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(
        ["sinc", "mixture", "csv", "haar", "fourier", "dft", "absolute",
         "fraction_of_max", "true", "nan", "inf", "-1", "0", "3", "0.5", "1e999",
         '"x#y"', "'", '"', "1" + "0" * 400]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES).map(" = ".join),
    st.text(max_size=30),
)
_NO_SURROGATES = st.characters(blacklist_categories=("Cs",))


@given(
    st.one_of(
        st.lists(_CONFIG_LINE, max_size=8).map("\n".join),
        st.text(alphabet=_NO_SURROGATES),
    )
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_config_parser_raises_only_typed_errors(tmp_path, text):
    # parse only: building the fuzzed signal could allocate without bound
    path = tmp_path / "fuzz.conf"
    path.write_text(text, encoding="utf-8", errors="replace")
    try:
        ExperimentConfig.from_file(path)
    except (ValueError, PipelineError):
        pass


def test_build_signal_dispatch(tmp_path):
    assert build_signal("gaussian", {"N": 256, "sigma": 0.5}).n == 8
    assert build_signal("mixture", {"N": 256, "seed": 3, "K": 5}).n == 8
    wave = tmp_path / "w.csv"
    wave.write_text("1.0\n2.0\n3.0\n")
    assert build_signal("csv", csv_path=wave).n == 2
    with pytest.raises(PipelineError):
        build_signal("chirp")
    with pytest.raises(PipelineError):
        build_signal("csv")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("gaussian", {"seed": 5}),
        ("mixture", {"spec": 1}),
        ("mixture", {"N": 256.0}),
        ("mixture", {"K": True}),
        ("csv", {"N": 256}),
        ("gaussian", {"N": 256, "sigma": True}),
    ],
)
def test_build_signal_rejects_bad_params_with_pipeline_error(kind, params, tmp_path):
    # the public builder runs the same check as a signal.* config key
    wave = tmp_path / "w.csv"
    wave.write_text("1.0\n2.0\n")
    with pytest.raises(PipelineError, match="signal\\."):
        build_signal(kind, params, csv_path=wave)


# ---------------------------------------------------------------------------
# hybrid_prepare
# ---------------------------------------------------------------------------


def test_hybrid_prepare_haar_record_consistency():
    cfg = ExperimentConfig(
        "gaussian",
        PACKET_HAAR,
        7,
        ThresholdPolicy(FRACTION_OF_MAX, 0.01),
        signal_params={"N": 2**10},
    )
    circuit, r = hybrid_prepare(cfg)
    assert r.n == 10 and r.levels == 7
    assert math.isclose(r.cr, 2**10 / r.d, rel_tol=1e-12)
    assert r.total_cnot == r.sqsp_cnot + r.decomp_cnot
    assert r.decomp_cnot == 3 * sum(10 - l for l in range(1, 8))
    assert r.decomp_depth == 3 * 10 + 3 * 7 - 5
    assert r.eae_cnot == 2**10 - 2
    assert r.cx_reduction == pytest.approx(r.eae_cnot / r.total_cnot)
    assert abs(r.simulated_td - r.classical_td) < 1e-9
    # the simulated register holds the classical reconstruction exactly
    x = gen_gaussian(2**10).samples.astype(complex)
    compressed = threshold_normalize(packet_dhwt(x, 7), cfg.threshold)
    recon = classical_reconstruct(compressed).samples
    assert trace_distance(simulate(circuit), recon) < 1e-9


def test_hybrid_prepare_dft_path_is_lossless_on_periodic():
    cfg = ExperimentConfig(
        "periodic", DFT, threshold=ThresholdPolicy(FRACTION_OF_MAX, 1e-9)
    )
    circuit, r = hybrid_prepare(cfg)
    assert r.d == 4
    assert r.simulated_td < 1e-9
    assert r.decomp_cnot == 68  # iqft(8) with swaps


def test_hybrid_prepare_tolerance_error():
    cfg = ExperimentConfig(
        "gaussian",
        PACKET_HAAR,
        7,
        ThresholdPolicy(FRACTION_OF_MAX, 0.2),
        epsilon=0.001,
        signal_params={"N": 2**10},
    )
    with pytest.raises(ToleranceExceededError) as err:
        hybrid_prepare(cfg)
    assert err.value.achieved_td > 0.001
    assert err.value.epsilon == 0.001
    assert "exceeds tolerance" in str(err.value)


def test_hybrid_prepare_empty_support():
    cfg = ExperimentConfig(
        "gaussian",
        PACKET_HAAR,
        7,
        ThresholdPolicy(ABSOLUTE, 1.1),
        signal_params={"N": 2**10},
    )
    with pytest.raises(EmptySupportError):
        hybrid_prepare(cfg)


@pytest.mark.parametrize("seed", range(8))
def test_hybrid_prepare_matches_classical_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 11))
    levels = int(rng.integers(1, n))
    tau = float(rng.uniform(0.0, 0.05))
    cfg = ExperimentConfig(
        "mixture",
        PACKET_HAAR,
        levels,
        ThresholdPolicy(FRACTION_OF_MAX, tau),
        signal_params={"N": 2**n, "seed": seed},
    )
    circuit, r = hybrid_prepare(cfg)
    x = build_signal("mixture", {"N": 2**n, "seed": seed}).samples.astype(complex)
    compressed = threshold_normalize(packet_dhwt(x, levels), cfg.threshold)
    recon = classical_reconstruct(compressed).samples
    assert trace_distance(simulate(circuit), recon) < 1e-9


@pytest.mark.parametrize("cfg", table1_configs(), ids=lambda c: c.label)
def test_table1_loaders_stay_on_their_support(cfg):
    # the loader's support run, checked against the requested amplitudes
    # themselves up to a global phase: no 2**n vector is involved
    x = _unit_samples(cfg.build_signal())
    compressed = threshold_normalize(analyse(x, cfg.descriptor), cfg.threshold)
    s = SparseState.from_compressed(compressed)
    run = simulate_support(sqsp(s))
    assert run.peak_support <= 2 * s.d
    assert run.pruned_mass <= 1e-28
    want = dict(s.entries)
    got = run.amplitudes
    overlap = sum(np.conj(got.get(i, 0.0)) * a for i, a in want.items())
    phase = overlap / abs(overlap)
    for i in got.keys() | want.keys():
        assert abs(got.get(i, 0.0) * phase - want.get(i, 0.0)) < 1e-12


# ---------------------------------------------------------------------------
# Record invariants
# ---------------------------------------------------------------------------


def test_record_checks_cr_consistency():
    with pytest.raises(ValueError):
        ExperimentRecord(label="x", n=4, d=2, cr=9.0)
    with pytest.raises(ValueError):
        ExperimentRecord(label="x", n=4, d=2, cr=8.0, simulated_td=0.1, classical_td=0.2)
    assert ExperimentRecord(label="x", warning="skipped").warning == "skipped"


# ---------------------------------------------------------------------------
# Benchmark tables (missing-recording variant; real data in acceptance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1_records(tmp_path_factory):
    missing = tmp_path_factory.mktemp("t1") / "absent.csv"
    return run_table1(ppg_csv=missing)


def test_table1_rows_and_counts(table1_records):
    by_label = {r.label: r for r in table1_records}
    assert list(by_label) == ["sinc", "gaussian", "mixture", "ppg"]
    assert by_label["ppg"].warning is not None
    assert "not found" in by_label["ppg"].warning
    assert by_label["sinc"].d == 110
    assert by_label["gaussian"].d == 44
    assert by_label["mixture"].d == 114
    assert by_label["sinc"].decomp_cnot == 285
    assert by_label["gaussian"].decomp_cnot == 312
    assert by_label["mixture"].decomp_cnot == 306
    assert by_label["sinc"].total_cnot == 883
    assert by_label["gaussian"].total_cnot == 500
    assert by_label["mixture"].total_cnot == 870
    for label in ("sinc", "gaussian", "mixture"):
        assert by_label[label].eae_cnot == 2**15 - 2


def test_table1_reference_counts_attached(table1_records):
    refs = {r.label: r.reference_sqsp_cnot for r in table1_records if r.warning is None}
    assert refs == {"sinc": 494, "gaussian": 210, "mixture": 416}


def test_table1_skip_drops_ppg_row(tmp_path):
    # reuse nothing heavy: just check the config list, not a full run
    from hqsp.pipeline import table1_configs

    labels = [c.label for c in table1_configs()]
    assert labels == ["sinc", "gaussian", "mixture", "ppg"]


@pytest.fixture(scope="module")
def table2_records(tmp_path_factory):
    missing = tmp_path_factory.mktemp("t2") / "absent.csv"
    return run_table2(ppg_csv=missing)


def test_table2_counts_and_accuracy(table2_records):
    rows = {r.label: r for r in table2_records}
    assert [r.label for r in table2_records] == [
        "periodic", "piecewise", "sinc", "gaussian", "mixture", "ppg",
    ]
    assert (rows["periodic"].n, rows["periodic"].m, rows["periodic"].cnot) == (8, 7, 576)
    assert (rows["piecewise"].n, rows["piecewise"].m, rows["piecewise"].cnot) == (10, 7, 615)
    assert (rows["sinc"].cnot, rows["gaussian"].cnot, rows["mixture"].cnot) == (491, 364, 491)
    # every periodic mode lies inside the m = 7 band, so the load is exact
    assert rows["periodic"].td < 1e-9
    assert all(0.0 <= r.td <= 1.0 for r in table2_records if r.warning is None)
    assert rows["ppg"].warning is not None


def test_table2_flags_wrong_length_recording(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("".join(f"{v}\n" for v in RNG.normal(size=100)))
    rows = {r.label: r for r in run_table2(ppg_csv=short)}
    assert "pads to 7" in rows["ppg"].warning


# ---------------------------------------------------------------------------
# Compression sweep
# ---------------------------------------------------------------------------


@st.composite
def _priced_compressions(draw):
    """A random unit vector, one of its transforms and a threshold: tau = 0,
    a cutoff that keeps only the largest coefficient, or any in between."""
    n = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["real", "complex", "blocky"]))
    if shape == "blocky":  # repeated values: exact zeros and tied coefficients
        x = rng.integers(-2, 3, size=2**n).astype(complex)
        if not np.any(x):
            x[0] = 1.0
    else:
        x = rng.normal(size=2**n) + (1j * rng.normal(size=2**n) if shape == "complex" else 0)
    x = x / np.linalg.norm(x)
    if draw(st.booleans()):
        descriptor = TransformDescriptor(DFT)
    else:
        descriptor = TransformDescriptor(PACKET_HAAR, draw(st.integers(1, n)))
    X = analyse(x, descriptor)
    largest = float(np.max(np.abs(X.coefficients)))
    cut = draw(st.sampled_from(["zero", "single", "between"]))
    fraction = {"zero": 0.0, "single": 1.0}.get(cut)
    if fraction is None:
        fraction = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        policy = ThresholdPolicy(FRACTION_OF_MAX, fraction)
    else:
        policy = ThresholdPolicy(ABSOLUTE, fraction * largest)
    return x, X, policy, cut


def _reference_price(X, policy):
    """(d, CR, TD) as the pipeline priced a threshold before the one-pass
    pricer: threshold and renormalise the whole vector, then take the
    Parseval share of the energy in the coefficients it zeroed.  The oracle
    for price_thresholds, values and error messages alike."""
    coeffs = X.coefficients
    if not np.any(coeffs):
        raise EmptySupportError("input vector has no nonzero coefficients")
    if policy.mode == ABSOLUTE:
        cutoff = policy.value
    else:
        cutoff = policy.value * float(np.max(np.abs(coeffs)))
    kept = np.where(np.abs(coeffs) < cutoff, 0.0, coeffs)
    norm = np.linalg.norm(kept)
    if norm == 0:
        raise EmptySupportError(
            f"threshold {policy.mode}={policy.value} prunes every coefficient"
        )
    compressed = kept / norm
    energy = np.abs(coeffs) ** 2
    dropped = energy[compressed == 0].sum()
    d = int(np.count_nonzero(compressed))
    return (
        d,
        compression_ratio(len(coeffs), d),
        math.sqrt(min(1.0, float(dropped / energy.sum()))),
    )


_ORACLE_POLICIES = [
    *(ThresholdPolicy(ABSOLUTE, t) for t in (0.0, -0.0, *DEFAULT_SWEEP_TAUS)),
    *(ThresholdPolicy(FRACTION_OF_MAX, f) for f in (0.0, 0.005, 0.009, 0.05, 1.0)),
]


def _assert_prices_match_the_reference(X):
    priced = []
    for policy in _ORACLE_POLICIES:
        try:
            want = _reference_price(X, policy)
        except EmptySupportError as err:  # e.g. a large tau at a shallow level
            with pytest.raises(EmptySupportError, match=f"^{re.escape(str(err))}$"):
                next(price_thresholds(X, [policy]))
            continue
        priced.append(policy)
        got = next(price_thresholds(X, [policy]))
        # bit for bit: ints and floats compare exactly, and so do their types
        assert got == want and [type(v) for v in got] == [int, float, float]
    # one magnitude pass prices them all alike
    assert list(price_thresholds(X, priced)) == [_reference_price(X, p) for p in priced]


@pytest.mark.skipif(not any(PPG_DIR.glob("*.csv")), reason="no recordings under data/ppg")
@pytest.mark.parametrize("name", ["recording01", "recording02", "recording03"])
def test_price_matches_the_reference_on_every_ppg_level(name):
    # levels 1-16 of each recording, one packet analysis deepened in place
    x = _unit_samples(ingest_waveform_csv(PPG_DIR / f"{name}.csv"))
    for X in packet_analysis(x):
        _assert_prices_match_the_reference(X)


@pytest.mark.parametrize("kind", ["sinc", "gaussian", "mixture"])
@pytest.mark.parametrize(
    "descriptor",
    [TransformDescriptor(DFT), *(TransformDescriptor(PACKET_HAAR, L) for L in (1, 10, 13, 15))],
    ids=lambda d: f"{d.kind}{d.levels or ''}",
)
def test_price_matches_the_reference_on_the_benchmark_signals(kind, descriptor):
    x = _unit_samples(build_signal(kind))
    _assert_prices_match_the_reference(analyse(x, descriptor))


@pytest.mark.parametrize(
    "coeffs, policy",
    [
        (np.zeros(8), ThresholdPolicy(ABSOLUTE, 0.0)),
        (np.zeros(8), ThresholdPolicy(FRACTION_OF_MAX, 0.5)),
        (np.full(4, 0.5), ThresholdPolicy(ABSOLUTE, 0.6)),
        (np.full(4, 0.5), ThresholdPolicy(ABSOLUTE, 10.0)),
    ],
)
def test_price_empty_support_message_matches_the_reference(coeffs, policy):
    X = CompressedVector(coeffs, TransformDescriptor(DFT))
    with pytest.raises(EmptySupportError) as want:
        _reference_price(X, policy)
    with pytest.raises(EmptySupportError) as got:
        list(price_thresholds(X, [ThresholdPolicy(ABSOLUTE, 0.0), policy]))
    assert str(got.value) == str(want.value)


@given(_priced_compressions())
@settings(max_examples=300, deadline=None)
def test_price_is_parseval(case):
    # the TD priced from the coefficients is that of the inverse transform
    x, X, policy, cut = case
    [(d, cr, td)] = price_thresholds(X, [policy])
    assert (d, cr, td) == _reference_price(X, policy)
    compressed = threshold_normalize(X, policy)
    reconstruction = classical_reconstruct(compressed).samples
    assert abs(td - trace_distance(reconstruction, x)) <= 1e-12
    assert d == compressed.d and cr == 2**compressed.n / d
    if cut == "zero":
        assert td == 0.0


def test_compression_point_gaussian_benchmark():
    d, cr, td = compression_point(
        gen_gaussian(2**15), 13, ThresholdPolicy(FRACTION_OF_MAX, 0.006)
    )
    assert d == 44
    assert abs(cr - 744.7) < 0.1
    assert 0.003 <= td <= 0.02


@pytest.fixture()
def recording_dir(tmp_path):
    t = np.linspace(0.0, 6.0, 500)
    (tmp_path / "rec_a.csv").write_text(
        "".join(f"{v}\n" for v in np.sin(2 * np.pi * t) + 0.01 * RNG.normal(size=500))
    )
    (tmp_path / "rec_b.csv").write_text("".join(f"{v}\n" for v in np.arange(300.0)))
    return tmp_path


def test_sweep_grid_order_and_lossless_column(recording_dir):
    cells = sweep_ppg(levels=(3, 5), taus=(0.0, 0.01), dataset_dir=recording_dir)
    assert [(c.levels, c.tau) for c in cells] == [(3, 0.0), (3, 0.01), (5, 0.0), (5, 0.01)]
    for c in cells:
        if c.tau == 0.0:
            assert c.mean_td < 1e-9
        assert c.mean_cr >= 1.0
        assert c.in_valid_regime == (CR_VALID_LOW <= c.mean_cr <= CR_VALID_HIGH)


def _compression_point_cells(dataset_dir, levels, taus):
    """Each grid cell from compression_point over the recordings, in grid
    order: what sweep_ppg must return."""
    signals = [ingest_waveform_csv(p) for p in sorted(dataset_dir.glob("*.csv"))]
    cells = []
    for level in levels:
        for tau in taus:
            points = [
                compression_point(s, level, ThresholdPolicy(ABSOLUTE, tau)) for s in signals
            ]
            crs = np.array([cr for _, cr, _ in points])
            cells.append(
                SweepCell(
                    level,
                    tau,
                    float(np.mean([td for _, _, td in points])),
                    float(crs.mean()),
                    float(crs.std()),
                    CR_VALID_LOW <= float(crs.mean()) <= CR_VALID_HIGH,
                )
            )
    return cells


def test_sweep_is_deterministic(recording_dir, tmp_path):
    levels, taus = (3, 5), (0.0, 0.005, 0.01)
    a = sweep_ppg(levels=levels, taus=taus, dataset_dir=recording_dir)
    # each cell aggregates compression_point over the recordings
    assert a == _compression_point_cells(recording_dir, levels, taus)
    b = sweep_ppg(levels=levels, taus=taus, dataset_dir=recording_dir)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_sweep_csv(a, out1)
    write_sweep_csv(b, out2)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("levels", [(5, 2, 9, 3), (9, 7, 4, 1), (4, 4, 2)])
def test_sweep_keeps_the_callers_grid_order(recording_dir, levels):
    taus = (0.01, 0.0, 0.003, -0.0)
    cells = sweep_ppg(levels=levels, taus=taus, dataset_dir=recording_dir)
    # str() tells -0.0 from 0.0, which the CSV writes as "-0" and "0"
    assert [(c.levels, str(c.tau)) for c in cells] == [
        (L, str(t)) for L in levels for t in taus
    ]
    assert cells == _compression_point_cells(recording_dir, levels, taus)


@pytest.mark.parametrize("level", [10, 0, -1])
def test_sweep_rejects_levels_as_packet_dhwt_does(recording_dir, level):
    with pytest.raises(ValueError) as expected:
        packet_dhwt(np.ones(512), level)
    with pytest.raises(ValueError) as err:
        sweep_ppg(levels=(3, level), taus=(0.0,), dataset_dir=recording_dir)
    assert str(err.value) == str(expected.value)


def test_sweep_over_recordings_of_different_lengths(tmp_path):
    # 500 samples pad to n = 9, 100 to n = 7: each is priced on its own N
    (tmp_path / "long.csv").write_text("".join(f"{v}\n" for v in RNG.normal(size=500)))
    (tmp_path / "short.csv").write_text("".join(f"{v}\n" for v in RNG.normal(size=100)))
    levels, taus = (7, 2), (0.0, 0.02)
    cells = sweep_ppg(levels=levels, taus=taus, dataset_dir=tmp_path)
    assert cells == _compression_point_cells(tmp_path, levels, taus)
    with pytest.raises(ValueError, match=r"1 <= L <= 7, got 8"):
        sweep_ppg(levels=(2, 8), taus=taus, dataset_dir=tmp_path)


@pytest.mark.parametrize(
    "taus",
    [("mid", 2.0), ("mid", -1.0), (-1.0, "mid"), (0.0, 2.0), (0.0, "mid")],
    ids=["prune-prune", "prune-invalid", "invalid-prune", "zero-prune", "zero-mid"],
)
def test_sweep_raises_the_error_grid_order_meets_first(tmp_path, taus):
    # at level 3 a.csv has the larger peak coefficient: "mid" prunes every
    # coefficient of b.csv alone, so only the grid's own order names the
    # error of the first tau that fails on some recording
    (tmp_path / "a.csv").write_text("".join(f"{v}\n" for v in np.ones(64)))
    noise = np.random.default_rng(3).normal(size=64)
    (tmp_path / "b.csv").write_text("".join(f"{v}\n" for v in noise))
    peak_a, peak_b = (
        np.abs(packet_dhwt(_unit_samples(ingest_waveform_csv(p)), 3).coefficients).max()
        for p in sorted(tmp_path.glob("*.csv"))
    )
    assert peak_b < peak_a < 1.0
    taus = tuple((peak_a + peak_b) / 2 if t == "mid" else t for t in taus)
    with pytest.raises(ValueError) as want:
        _compression_point_cells(tmp_path, (3,), taus)
    with pytest.raises(ValueError) as got:
        sweep_ppg(levels=(3,), taus=taus, dataset_dir=tmp_path)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_sweep_requires_recordings(tmp_path):
    with pytest.raises(FileNotFoundError):
        sweep_ppg(dataset_dir=tmp_path / "nothing")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_records_csv_formatting(table1_records, tmp_path):
    path = tmp_path / "t1.csv"
    write_records_csv(table1_records, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("label,n,levels,tau_mode,tau_value,d,cr,")
    gaussian = next(l for l in lines if l.startswith("gaussian,"))
    cells = gaussian.split(",")
    header = lines[0].split(",")
    assert cells[header.index("cr")] == "744.7"
    assert cells[header.index("d")] == "44"
    td = cells[header.index("simulated_td")]
    assert len(td.split(".")[1]) == 4
    warning_row = next(l for l in lines if l.startswith("ppg,"))
    assert warning_row.split(",")[1] == ""  # warning rows carry no metrics


def test_format_table_renders_all_rows(table1_records):
    text = format_table(table1_records)
    lines = text.splitlines()
    assert lines[0].startswith("label")
    assert len(lines) == 1 + len(table1_records)
    assert any(line.startswith("gaussian") for line in lines)


def test_serializers_reject_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_records_csv([object()], tmp_path / "x.csv")


def test_serializers_reject_mixed_record_types(tmp_path):
    # one header cannot describe two schemas; the record of the other type
    # would be written under the wrong columns
    fsl = FslRecord("periodic", 8, 7, 576, 100, 0.0)
    mixed = [fsl, ExperimentRecord(label="e", warning="x"), fsl]
    path = tmp_path / "mixed.csv"
    with pytest.raises(TypeError, match="ExperimentRecord, FslRecord"):
        write_records_csv(mixed, path)
    with pytest.raises(TypeError):
        format_table(mixed)
    write_records_csv([fsl, FslRecord("ppg", warning="x")], path)
    assert path.read_text().splitlines() == [
        "label,n,m,cnot,depth,td,warning",
        "periodic,8,7,576,100,0.0000,",
        "ppg,,,,,,x",
    ]


@pytest.mark.parametrize(
    "kind, header",
    [
        (
            ExperimentRecord,
            "label,n,levels,tau_mode,tau_value,d,cr,sqsp_cnot,sqsp_depth,"
            "decomp_cnot,decomp_depth,total_cnot,total_depth,eae_cnot,eae_depth,"
            "cx_reduction,depth_reduction,reference_sqsp_cnot,simulated_td,"
            "classical_td,warning",
        ),
        (FslRecord, "label,n,m,cnot,depth,td,warning"),
    ],
)
def test_record_fields_are_the_csv_columns(tmp_path, kind, header):
    path = tmp_path / "r.csv"
    write_records_csv([kind(label="x", warning="skipped")], path)
    assert path.read_text().splitlines()[0] == header
    assert header.split(",") == [f.name for f in fields(kind)]
