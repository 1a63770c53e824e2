"""Command-line interface: subcommand behavior and exit codes.

Tests drive :func:`hqsp.cli.main` in process and read stdout/stderr via
capsys, so the assertions see exactly what a shell user would.
"""

from pathlib import Path

import numpy as np
import pytest

from hqsp.circuit import Circuit, _decompose_gate, decompose, parse_qasm
from hqsp.cli import build_parser, main
from hqsp.loaders import eae_real
from hqsp.qsynth import iqft
from hqsp.signals import gen_gaussian, ingest_waveform_csv, save_signal_csv
from hqsp.statesim import simulate
from hqsp.transforms import load_compressed_csv, read_amplitude_csv

RNG = np.random.default_rng(31)
PPG_DIR = Path(__file__).resolve().parent.parent / "data" / "ppg"


@pytest.fixture()
def gaussian_csv(tmp_path):
    path = tmp_path / "gaussian.csv"
    save_signal_csv(gen_gaussian(2**8), path)
    return path


# ---------------------------------------------------------------------------
# gen-signal / compress
# ---------------------------------------------------------------------------


def test_gen_signal_stdout(capsys):
    assert main(["gen-signal", "--kind", "periodic"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 256
    values = np.array([float(v) for v in lines])
    assert np.isclose(np.linalg.norm(values), 1.0)


def test_gen_signal_to_file(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["gen-signal", "--kind", "gaussian", "--n-samples", "256", "--out", str(out)])
    assert code == 0
    assert "wrote 256 samples" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 256


def test_gen_signal_mixture_uses_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen-signal", "--kind", "mixture", "--n-samples", "256", "--seed", "4", "--out", str(a)])
    main(["gen-signal", "--kind", "mixture", "--n-samples", "256", "--seed", "4", "--out", str(b)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("kind", ["periodic", "piecewise", "sinc", "gaussian"])
def test_gen_signal_seed_without_a_seeded_generator_is_rejected(kind, capsys):
    # only the mixture takes a seed; elsewhere it is an invalid value
    assert main(["gen-signal", "--kind", kind, "--seed", "5"]) == 2
    assert "takes no parameter signal.seed" in capsys.readouterr().err


def test_compress_reports_and_writes(gaussian_csv, tmp_path, capsys):
    out = tmp_path / "coeffs.csv"
    code = main(
        ["compress", str(gaussian_csv), "--transform", "haar", "--levels", "5",
         "--tau-frac", "0.01", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("d=") and " CR=" in text and " TD=" in text
    compressed = load_compressed_csv(out)
    assert compressed.d == int(text.split()[0].split("=")[1])


def test_compress_rejects_nan_sample(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("1\nnan\n2\n3\n")
    assert main(["compress", str(path), "--levels", "1"]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tau-abs", "--tau-frac"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_compress_rejects_non_finite_threshold(gaussian_csv, capsys, flag, value):
    assert main(["compress", str(gaussian_csv), "--levels", "2", flag, value]) == 2
    assert capsys.readouterr().out == ""


# pytest would capture a NumPy warning rather than let it reach stderr, so
# any warning fails the test instead
@pytest.mark.filterwarnings("error")
def test_compress_rejects_overflowing_samples(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("1e308\n1e308\n1\n2\n")
    assert main(["compress", str(path), "--levels", "1"]) == 2
    err = capsys.readouterr().err
    assert "overflows" in err


@pytest.mark.parametrize(
    "body",
    [
        b'ppg\n1.0\n"2.0\n' + b"3.0\n" * 40_000,  # past csv's field size limit
        b"ppg\n1.0\n\xff2.0\n3\n",  # not UTF-8
        b"ppg\n1.0\n\x002.0\n3\n",  # a NUL byte, which csv rejects on Python 3.10
    ],
    ids=["unterminated-quote", "undecodable", "nul"],
)
def test_compress_names_an_unreadable_recording(tmp_path, capsys, body):
    path = tmp_path / "rec.csv"
    path.write_bytes(body)
    assert main(["compress", str(path), "--levels", "1", "--tau-frac", "0.1"]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_compress_dft(gaussian_csv, capsys):
    assert main(["compress", str(gaussian_csv), "--transform", "dft"]) == 0
    assert "TD=0.0000" in capsys.readouterr().out  # no threshold, lossless


def test_compress_requires_levels_for_haar(gaussian_csv, capsys):
    assert main(["compress", str(gaussian_csv), "--transform", "haar"]) == 2
    assert "needs --levels" in capsys.readouterr().err


def test_compress_dft_rejects_levels(gaussian_csv, capsys):
    assert main(["compress", str(gaussian_csv), "--transform", "dft", "--levels", "3"]) == 2
    assert "--levels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / simulate
# ---------------------------------------------------------------------------


def test_synth_qhwt_report(capsys):
    code = main(["synth", "--plan", "qhwt-inv", "--n", "10", "--levels", "7", "--report"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cnot_count=126" in out and "depth=46" in out


def test_synth_qasm_on_stdout(capsys):
    # iqft's one op is written as its lowering, which reads back gate by gate
    assert main(["synth", "--plan", "iqft", "--n", "3"]) == 0
    assert parse_qasm(capsys.readouterr().out) == Circuit(3, _decompose_gate(iqft(3).gates[0]))


def test_synth_missing_flag_is_usage_error(capsys):
    assert main(["synth", "--plan", "iqft"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_synth_sqsp_from_compressed(gaussian_csv, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    main(["compress", str(gaussian_csv), "--transform", "haar", "--levels", "5",
          "--tau-frac", "0.02", "--out", str(coeffs)])
    capsys.readouterr()
    qasm = tmp_path / "loader.qasm"
    assert main(["synth", "--plan", "sqsp", "--input", str(coeffs), "--out", str(qasm)]) == 0
    assert qasm.read_text().startswith("OPENQASM 2.0;")


def test_synth_sqsp_index_out_of_range_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# kind=haar\n# levels=1\n# n=2\nindex,real,imaginary\n4,1.0,0.0\n")
    assert main(["synth", "--plan", "sqsp", "--input", str(bad)]) == 2
    assert "outside [0, 2^2)" in capsys.readouterr().err


def test_synth_sqsp_malformed_cell_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# kind=haar\n# levels=1\n# n=2\nindex,real,imaginary\n1.5,1.0,0.0\n")
    assert main(["synth", "--plan", "sqsp", "--input", str(bad)]) == 2
    assert "bad.csv:5: index '1.5' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "meta, message",
    [
        ("# kind=haar\n# levels=abc\n", "levels 'abc' is not an integer"),
        ("# kind=bogus\n# levels=1\n", "unknown transform kind 'bogus'"),
        ("# kind=haar\n# levels=1\n# mode=absolute\n", "'# mode=absolute' needs a '# value=' line"),
        ("# kind=haar\n# levels=1\n# mode=absolute\n# value=x\n", "value 'x' is not a number"),
    ],
    ids=["levels", "kind", "mode-without-value", "value"],
)
def test_synth_sqsp_malformed_metadata_names_the_file(tmp_path, capsys, meta, message):
    bad = tmp_path / "c.csv"
    bad.write_text(meta + "# n=2\nindex,real,imaginary\n1,1.0,0.0\n")
    assert main(["synth", "--plan", "sqsp", "--input", str(bad)]) == 2
    assert f"error: {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "meta, message",
    [
        ("# kind=haar\n# levels=1\n# value=0.01\n", "'# value=0.01' needs a '# mode=' line"),
        ("# kind=haar\n# levels=1\n# foo=bar\n", "unknown compressed CSV key '# foo='"),
        ("# kind=haar\n# levls=7\n", "unknown compressed CSV key '# levls='"),
    ],
    ids=["value-without-mode", "unknown-key", "misspelt-key"],
)
def test_synth_sqsp_rejects_metadata_that_save_does_not_write(tmp_path, capsys, meta, message):
    # a key save_compressed_csv does not write, or a threshold without its
    # mode, is not dropped without a word
    bad = tmp_path / "c.csv"
    bad.write_text(meta + "# n=2\nindex,real,imaginary\n1,1.0,0.0\n")
    assert main(["synth", "--plan", "sqsp", "--input", str(bad), "--report"]) == 2
    assert f"error: {bad}: {message}" in capsys.readouterr().err


def test_synth_sqsp_norm_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "c.csv"
    bad.write_text("# kind=haar\n# levels=1\n# n=2\nindex,real,imaginary\n1,0.5,0.0\n")
    assert main(["synth", "--plan", "sqsp", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: amplitudes have squared norm 0.25, expected 1" in err
    assert err.count(str(bad)) == 1


def test_synth_eae_and_fsl(gaussian_csv, tmp_path):
    eae = tmp_path / "eae.txt"
    assert main(["synth", "--plan", "eae", "--input", str(gaussian_csv), "--out", str(eae)]) == 0
    assert parse_qasm(eae.read_text()).n_qubits == 8
    fsl = tmp_path / "fsl.txt"
    assert main(["synth", "--plan", "fsl", "--input", str(gaussian_csv), "--m", "4",
                 "--out", str(fsl)]) == 0
    assert parse_qasm(fsl.read_text()).n_qubits == 8


@pytest.mark.parametrize("suffix", [".txt", ".qasm"])
def test_synth_out_counts_written_gates(gaussian_csv, tmp_path, capsys, suffix):
    # QASM whatever the suffix; the loader's multiplexers are written
    # lowered, one line per gate
    out = tmp_path / f"eae{suffix}"
    assert main(["synth", "--plan", "eae", "--input", str(gaussian_csv), "--out", str(out)]) == 0
    written = parse_qasm(out.read_text())
    samples = np.asarray(ingest_waveform_csv(gaussian_csv).samples, dtype=float)
    assert written == decompose(eae_real(samples))
    assert f"wrote {len(written)} gates to {out}" in capsys.readouterr().out


def _qasm_file(tmp_path, n_qubits: int, body: str):
    path = tmp_path / "c.qasm"
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n_qubits}];\n{body}\n')
    return path


def test_simulate_circuit_file(tmp_path, capsys):
    circ = _qasm_file(tmp_path, 2, "h q[0];\ncx q[0],q[1];")
    state_csv = tmp_path / "state.csv"
    assert main(["simulate", str(circ), "--out", str(state_csv)]) == 0
    assert "simulated 2 qubits, 2 gates" in capsys.readouterr().out
    n, indices, amps, _ = read_amplitude_csv(state_csv)
    assert n == 2
    assert indices.tolist() == [0, 1, 2, 3]  # one row per amplitude
    np.testing.assert_allclose(np.abs(amps) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def test_simulate_keeps_a_comment_past_a_unicode_line_separator(tmp_path, capsys):
    # U+2028 ends a line for str.splitlines, not for QASM: the X is commented out
    circ = _qasm_file(tmp_path, 2, "// note\u2028 x q[0];\nh q[1];")
    assert main(["simulate", str(circ)]) == 0
    assert "simulated 2 qubits, 1 gates" in capsys.readouterr().out


# simulate is the one command that reads a circuit file; the one-value
# parameter keeps these cases' ids stable
@pytest.mark.parametrize("command", ["simulate"])
@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_circuit_file_rejects_non_finite_angle(tmp_path, capsys, command, angle):
    circ = _qasm_file(tmp_path, 1, f"ry({angle}) q[0];")
    out = tmp_path / "state.csv"
    assert main([command, str(circ), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate"])
@pytest.mark.parametrize(
    "line",
    [
        pytest.param("ucry(0.5,0.25) q[1],q[0];", id="UCRY 1 0 0.5 0.25"),
        pytest.param("ucrz(0.5) q[0];", id="UCRZ 0 0.5"),
        pytest.param("mcx q[0],q[1];", id="MCX 0 1"),
        pytest.param("mcry(0.5) q[0],q[1];", id="MCRY 0 1 0.5"),
    ],
)
def test_circuit_file_rejects_native_multiplexer(tmp_path, capsys, command, line):
    # export writes multiplexers as their lowered ladders, and MCX/MCRY are
    # no gate kinds at all
    circ = _qasm_file(tmp_path, 2, line)
    out = tmp_path / "state.csv"
    assert main([command, str(circ), "--out", str(out)]) == 2
    assert "unsupported qasm gate" in capsys.readouterr().err
    assert not out.exists()


# files parse_qasm once read without an error, each losing or misreading
# part of the circuit
@pytest.mark.parametrize(
    "body, message",
    [
        # a second register would discard every gate before it
        ("h q[0];\nqreg q[3];\nx q[2];", "one qreg only"),
        # a second statement on a line would be dropped, and its error with it
        ("h q[0]; x q[2];", "exceeds register width"),
        # an unclosed parenthesis would be read as RY(0.5)
        ("ry(0.5 q[0];", "malformed statement"),
        # an operand on an undeclared register would be read as q[1]
        ("h r[1];", "not on register 'q'"),
    ],
    ids=["second-qreg", "second-statement", "unclosed-paren", "undeclared-register"],
)
def test_simulate_rejects_what_parse_qasm_cannot_read_back(tmp_path, capsys, body, message):
    assert main(["simulate", str(_qasm_file(tmp_path, 2, body))]) == 2
    assert message in capsys.readouterr().err


def test_simulate_malformed_statement_names_the_file(tmp_path, capsys):
    circ = _qasm_file(tmp_path, 3, "cxq[2],q[1];")
    assert main(["simulate", str(circ)]) == 2
    assert f"error: {circ}: malformed statement 'cxq[2],q[1]'" in capsys.readouterr().err


def test_simulate_too_wide_is_usage_error(tmp_path, capsys):
    circ = _qasm_file(tmp_path, 30, "h q[0];")
    assert main(["simulate", str(circ)]) == 2
    assert "dense-simulation cap" in capsys.readouterr().err


def test_simulate_prints_largest_amplitudes(tmp_path, capsys):
    circ = tmp_path / "x.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[1];\n')
    assert main(["simulate", str(circ)]) == 0
    assert "|10>" in capsys.readouterr().out


def test_export_subcommand_is_gone(tmp_path, capsys):
    # OpenQASM 2 is the one circuit file format, so there is nothing to convert
    circ = _qasm_file(tmp_path, 1, "h q[0];")
    with pytest.raises(SystemExit) as exit_info:
        main(["export", str(circ), "--out", str(tmp_path / "c.txt")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "export" in err


# ---------------------------------------------------------------------------
# prepare / run / sweep
# ---------------------------------------------------------------------------


def _write_prepare_config(tmp_path, epsilon: float) -> str:
    path = tmp_path / "exp.conf"
    path.write_text(
        "signal.kind = gaussian\n"
        "signal.N = 1024\n"
        "transform.kind = haar\n"
        "transform.levels = 7\n"
        "threshold.mode = fraction_of_max\n"
        "threshold.value = 0.01\n"
        f"epsilon = {epsilon}\n"
    )
    return str(path)


def test_prepare_success(tmp_path, capsys):
    record_out = tmp_path / "record.csv"
    code = main(["prepare", _write_prepare_config(tmp_path, 0.5), "--out", str(record_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("label")
    assert "gaussian" in out
    assert record_out.exists()


def test_prepare_writes_output_dir(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "signal.kind = gaussian\n"
        "signal.N = 256\n"
        "transform.kind = haar\n"
        "transform.levels = 5\n"
        f"output.dir = {tmp_path / 'results'}\n"
    )
    assert main(["prepare", str(conf)]) == 0
    assert (tmp_path / "results" / "gaussian.csv").exists()
    qasm = (tmp_path / "results" / "gaussian.qasm").read_text()
    assert parse_qasm(qasm).n_qubits == 8
    capsys.readouterr()


@pytest.mark.parametrize(
    "line, key",
    [
        ("signal.bogus = 3", "signal.bogus"),
        ('signal.N = "abc"', "signal.N"),
        # an int too large for a float is an invalid value, not a crash
        ("signal.t_max = 1" + "0" * 400, "signal.t_max"),
    ],
)
def test_prepare_rejects_bad_signal_param(tmp_path, capsys, line, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"signal.kind = sinc\n{line}\ntransform.levels = 3\n")
    assert main(["prepare", str(conf)]) == 2
    assert key in capsys.readouterr().err


# pytest would capture a NumPy warning rather than let it reach stderr, so
# any warning fails the test instead
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "line, key", [("signal.sigma = nan", "signal.sigma"), ("signal.x_max = inf", "signal.x_max")]
)
def test_prepare_rejects_non_finite_signal_param(tmp_path, capsys, line, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"signal.kind = gaussian\nsignal.N = 256\n{line}\ntransform.levels = 3\n")
    assert main(["prepare", str(conf)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, key",
    [
        ("transform.levels = 2.7", "transform.levels"),
        ("baselines.eae = no", "baselines.eae"),
        ("epsilon = true", "epsilon"),
    ],
)
def test_prepare_rejects_coerced_value(tmp_path, capsys, line, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"signal.kind = sinc\nsignal.N = 256\n{line}\n")
    assert main(["prepare", str(conf)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("signal.N = 64e", "signal.N must be int, got '64e'"),
        ("colour = red", "unknown config key 'colour'"),
        ("threshold.mode = absolute", "threshold needs both threshold.mode and threshold.value"),
        ("epsilon = 2.0", "epsilon must lie in (0, 1], got 2.0"),
    ],
    ids=["typing", "unknown-key", "threshold", "epsilon"],
)
def test_prepare_config_errors_name_the_file(tmp_path, capsys, line, message):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"signal.kind = sinc\ntransform.levels = 3\n{line}\n")
    assert main(["prepare", str(conf)]) == 2
    err = capsys.readouterr().err
    assert f"error: {conf}: {message}" in err
    assert err.count(str(conf)) == 1


def test_prepare_unterminated_quote_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text('signal.kind = sinc\ntransform.levels = 3\nlabel = "g # note\n')
    assert main(["prepare", str(conf)]) == 2
    err = capsys.readouterr().err
    assert f"error: {conf}:3: unterminated \" quote" in err
    assert err.count(str(conf)) == 1  # the parser's own path:line, not doubled


def test_prepare_tolerance_exit_code(tmp_path, capsys):
    assert main(["prepare", _write_prepare_config(tmp_path, 0.0001)]) == 1
    assert "exceeds tolerance" in capsys.readouterr().err


def test_run_table1_skipping_recording(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = main(["run", "table1", "--skip", "ppg", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "sinc" in text and "gaussian" in text and "mixture" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + three rows


def test_run_table_missing_recording_warns(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code = main(["run", "table2", "--skip", "ppg", "--out", str(out)])
    assert code == 0
    assert "periodic" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "label,n,m,cnot,depth,td,warning"


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "w.csv", "--levels", "5", "--tau-abs", "0.01", "--seed", "1"],
        ["sweep-ppg", "--seed", "1"],
        ["sweep-ppg", "--mode", "absolute"],
        ["run", "table2", "--format", "json"],
    ],
    ids=["compress-seed", "sweep-seed", "sweep-mode", "run-format"],
)
def test_unread_flag_is_usage_error(capsys, argv):
    # a subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "table1", "--skip", "ppg", "--seed", "3", "--out", "t1.csv"],
        ["run", "table2", "--seed", "3", "--out", "t2.csv"],
        ["prepare", "ppg.conf"],
        ["sweep-ppg", "--dataset", "data/ppg", "--out", "sweep.csv"],
    ],
)
def test_benchmark_command_lines_parse(argv):
    build_parser().parse_args(argv)


def test_sweep_cli(tmp_path, capsys):
    data = tmp_path / "recs"
    data.mkdir()
    t = np.linspace(0.0, 4.0, 400)
    (data / "r1.csv").write_text("".join(f"{v}\n" for v in np.sin(2 * np.pi * t)))
    out = tmp_path / "grid.csv"
    code = main(["sweep-ppg", "--dataset", str(data), "--levels", "3:4",
                 "--taus", "0.0,0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "L,tau,mean_td,mean_cr,std_cr,in_valid_regime"
    assert len(lines) == 5  # 2 levels x 2 taus


def test_sweep_names_an_undecodable_recording(tmp_path, capsys):
    data = tmp_path / "recs"
    data.mkdir()
    t = np.linspace(0.0, 4.0, 400)
    (data / "r1.csv").write_text("".join(f"{v}\n" for v in np.sin(2 * np.pi * t)))
    (data / "r2.csv").write_bytes(b"ppg\n0.5\n\xff0.25\n")
    code = main(["sweep-ppg", "--dataset", str(data), "--levels", "3:4",
                 "--taus", "0.0,0.01", "--out", str(tmp_path / "grid.csv")])
    assert code == 2
    assert f"error: {data / 'r2.csv'}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_sweep_threshold_that_prunes_everything_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["sweep-ppg", "--dataset", str(PPG_DIR), "--levels", "8:8",
                 "--taus", "10", "--out", str(out)])
    assert code == 2
    assert "threshold absolute=10.0 prunes every coefficient" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_level_range_is_usage_error(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-ppg", "--levels", "5:3", "--out", str(out)])
    assert exc.value.code == 2
    assert "empty level range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--levels", "3,3"), ("--taus", "0.001,0.001"), ("--taus", "0,-0")]
)
def test_sweep_repeated_grid_value_is_usage_error(tmp_path, capsys, flag, value):
    # a repeated value would only write the same cell twice
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-ppg", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert "repeated value" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_dataset_is_io_error(tmp_path, capsys):
    assert main(["sweep-ppg", "--dataset", str(tmp_path / "none")]) == 3
    assert "no recording CSVs" in capsys.readouterr().err


def test_sweep_raises_the_bad_tau_the_grid_meets_first(capsys):
    # level 14 comes first in the grid, and its second tau is invalid
    # before level 8's first tau prunes every coefficient
    code = main(["sweep-ppg", "--dataset", str(PPG_DIR), "--levels", "14,8",
                 "--taus", "0.2,-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: threshold must be nonnegative\n"


_HEADER_ONLY = {
    "prepare": b"signal.kind = sinc\n",
    "synth": b"# kind=haar\n# levels=1\n# n=1\nindex,real,imaginary\n",
    "simulate": b'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n',
}


@pytest.mark.parametrize("command", sorted(_HEADER_ONLY))
def test_undecodable_input_file_is_named(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(_HEADER_ONLY[command] + b"\xff\n")
    argv = {
        "prepare": ["prepare", str(path)],
        "synth": ["synth", "--plan", "sqsp", "--input", str(path)],
        "simulate": ["simulate", str(path)],
    }[command]
    assert main(argv) == 2
    assert f"error: {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["compress", str(tmp_path / "ghost.csv")]) == 3
    assert "error" in capsys.readouterr().err


def test_bad_values_are_usage_errors(gaussian_csv, capsys):
    # levels out of range for the register surfaces as exit code 2
    assert main(["compress", str(gaussian_csv), "--transform", "haar",
                 "--levels", "99", "--tau-frac", "0.01"]) == 2
    capsys.readouterr()
