from __future__ import annotations

import csv

import pytest

from sparsemobius import cli, oracle
from sparsemobius.cli import main
from sparsemobius.core import BitVector
from sparsemobius.harness import generate_synthetic
from sparsemobius.oracle import (
    SparsePolynomial,
    read_polynomial,
    write_polynomial,
)


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def write_poly_file(path, poly):
    write_polynomial(poly, path)
    return str(path)


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--n", "10", "--s", "3", "--d", "2", "--seed", "5", "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "wrote n=10" in msg
    poly = read_polynomial(out)
    assert poly.n == 10
    assert poly.sparsity <= 3


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--n", "12", "--s", "4", "--d", "2", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "12", "--s", "4", "--d", "2", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_weight_range_flags(tmp_path):
    out = tmp_path / "w.txt"
    args = ["gen", "--n", "10", "--s", "4", "--d", "2", "--seed", "7", "--out", str(out)]
    assert main(args + ["--wlo", "5.0", "--whi", "6.0"]) == 0
    poly = read_polynomial(out)
    assert all(5.0 <= v < 6.0 for v in poly.entries.values())
    # defaults stay [1, 2)
    assert main(args) == 0
    poly = read_polynomial(out)
    assert all(1.0 <= v < 2.0 for v in poly.entries.values())


@pytest.mark.parametrize("alg", ["pasmt", "fasmt", "hybrid"])
def test_reconstruct_round_trip(tmp_path, capsys, alg):
    inst = tmp_path / "inst.txt"
    main(["gen", "--n", "12", "--s", "3", "--d", "2", "--seed", "3", "--out", str(inst)])
    truth = read_polynomial(inst)
    out = tmp_path / "rec.txt"
    code = main([
        "reconstruct", "--alg", alg, "--input", str(inst),
        "--d", "2", "--out", str(out),
    ])
    assert code == 0
    assert read_polynomial(out).close_to(truth, 1e-9)
    msg = capsys.readouterr().out
    assert f"algorithm={alg}" in msg
    assert "queries=" in msg and "rounds=" in msg


@pytest.mark.parametrize("alg, queries", [("pasmt", 221), ("fasmt", 64), ("hybrid", 137)])
def test_reconstruct_keeps_integers_past_the_float_range(tmp_path, capsys, alg, queries):
    # 401-digit coefficients: exact integer mode takes them at tau = 0,
    # though no float holds them
    supports = generate_synthetic(64, 8, 3, 7).entries
    inst = write_poly_file(
        tmp_path / "big.txt",
        SparsePolynomial(64, {k: 10**400 + i for i, k in enumerate(supports)}),
    )
    out = tmp_path / "rec.txt"
    code = main([
        "reconstruct", "--alg", alg, "--input", inst,
        "--d", "3", "--tau", "0", "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert out.read_text() == (tmp_path / "big.txt").read_text()
    assert f"coefficients=8 queries={queries} " in capsys.readouterr().out


def test_reconstruct_hybrid_at_n_4096_d_16(tmp_path, capsys):
    # hybrid builds its design at (4096, 16) and searches a weight-16 support
    n = 4096
    truth = SparsePolynomial(n, {
        BitVector.from_coords(n, range(1, 17)): 1.0,
        BitVector.from_coords(n, [5, 900]): 2.0,
    })
    inst = write_poly_file(tmp_path / "wide.txt", truth)
    out = tmp_path / "rec.txt"
    code = main([
        "reconstruct", "--alg", "hybrid", "--input", inst,
        "--d", "16", "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert read_polynomial(out).close_to(truth, 1e-9)


def test_reconstruct_writes_transcript(tmp_path):
    inst = tmp_path / "inst.txt"
    main(["gen", "--n", "8", "--s", "2", "--d", "1", "--seed", "4", "--out", str(inst)])
    out = tmp_path / "rec.txt"
    transcript = tmp_path / "queries.tsv"
    main([
        "reconstruct", "--alg", "fasmt", "--input", str(inst),
        "--d", "1", "--out", str(out), "--transcript", str(transcript),
    ])
    lines = transcript.read_text().splitlines()
    assert lines
    label, x, _ = lines[0].split("\t")
    assert label == ""
    assert x == "1" * 8


def test_reconstruct_hypergraph_autodetect(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("6 2\n3 1 2\n-1 4\n")
    out = tmp_path / "rec.txt"
    assert main([
        "reconstruct", "--alg", "fasmt", "--input", str(graph),
        "--d", "2", "--out", str(out),
    ]) == 0
    got = read_polynomial(out)
    assert got.entries == {bv("110000"): 3, bv("000100"): -1}
    assert all(isinstance(v, int) for v in got.entries.values())


def test_reconstruct_explicit_format(tmp_path):
    inst = tmp_path / "poly.txt"
    write_poly_file(inst, SparsePolynomial(4, {bv("1100"): 2.0}))
    out = tmp_path / "rec.txt"
    assert main([
        "reconstruct", "--alg", "pasmt", "--input", str(inst),
        "--format", "poly", "--d", "2", "--out", str(out),
    ]) == 0
    assert read_polynomial(out).entries == {bv("1100"): 2.0}


def test_reconstruct_hypergraph_format_flag(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("6 2\n3 1 2\n-1 4\n")
    out = tmp_path / "rec.txt"
    args = ["reconstruct", "--alg", "pasmt", "--input", str(graph), "--d", "2", "--out", str(out)]
    assert main(args + ["--format", "hgr"]) == 0
    assert read_polynomial(out).entries == {bv("110000"): 3, bv("000100"): -1}
    assert main(args + ["--format", "poly"]) == 1


def test_reconstruct_autodetect_skips_blank_lines(tmp_path):
    # the first data line decides the format, not the blank line before it
    inst = tmp_path / "poly.txt"
    inst.write_text("4 1\n\n2.0 1100\n")
    out = tmp_path / "rec.txt"
    assert main([
        "reconstruct", "--alg", "fasmt", "--input", str(inst),
        "--d", "2", "--out", str(out),
    ]) == 0
    assert read_polynomial(out).entries == {bv("1100"): 2.0}


def test_reconstruct_autodetect_reads_the_header_as_the_readers_do(tmp_path):
    # the readers' int() reads "+4" as 4, so auto-detection must see n = 4
    # too and not send the file to the hypergraph reader
    inst = tmp_path / "poly.txt"
    inst.write_text("+4 2\n2.0 1000\n3.0 0001\n")
    out = tmp_path / "rec.txt"
    assert main([
        "reconstruct", "--alg", "pasmt", "--input", str(inst),
        "--d", "2", "--out", str(out),
    ]) == 0
    assert read_polynomial(out).entries == {bv("1000"): 2.0, bv("0001"): 3.0}


@pytest.mark.parametrize(
    "text", ["4 2\n2.0 1000\n3.0 0001\n", "6 2\n3 1 2\n-1 4\n"], ids=["poly", "hgr"]
)
def test_reconstruct_autodetect_reads_the_input_once(tmp_path, monkeypatch, text):
    reads = []
    read_lines = oracle._read_lines

    def counted(source):
        reads.append(source)
        return read_lines(source)

    monkeypatch.setattr(oracle, "_read_lines", counted)
    # a copy of the name in the command module would read past the counter
    monkeypatch.setattr(cli, "_read_lines", counted, raising=False)
    inst = tmp_path / "inst.txt"
    inst.write_text(text)
    assert main([
        "reconstruct", "--alg", "fasmt", "--input", str(inst), "--format", "auto",
        "--d", "2", "--out", str(tmp_path / "rec.txt"),
    ]) == 0
    assert reads == [str(inst)]


def test_reconstruct_header_only_file_gives_the_empty_map(tmp_path):
    inst = tmp_path / "empty.txt"
    inst.write_text("4 0\n")
    out = tmp_path / "rec.txt"
    assert main([
        "reconstruct", "--alg", "hybrid", "--input", str(inst),
        "--d", "1", "--out", str(out),
    ]) == 0
    assert out.read_text() == "4 0\n"


@pytest.mark.parametrize("alg", ["pasmt", "fasmt", "hybrid"])
def test_reconstruct_degree_overflow_exits_2(alg, tmp_path, capsys):
    inst = tmp_path / "deep.txt"
    write_poly_file(inst, SparsePolynomial(8, {bv("11100000"): 1.0}))
    out = tmp_path / "rec.txt"
    code = main([
        "reconstruct", "--alg", alg, "--input", str(inst),
        "--d", "2", "--out", str(out),
    ])
    assert code == 2
    # every runner ends the failed leaf with the same labelled error
    err = capsys.readouterr().err
    assert "reconstruction failed" in err
    assert "degree overflow at bucket" in err


def test_a_bad_tau_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["gen", "--n", "8", "--s", "3", "--d", "2", "--seed", "5", "--out", str(inst)])
    out = tmp_path / "rec.txt"
    code = main([
        "reconstruct", "--alg", "pasmt", "--input", str(inst),
        "--d", "2", "--tau", "nan", "--out", str(out),
    ])
    assert code == 1
    assert "tau" in capsys.readouterr().err
    assert not out.exists()
    grid = tmp_path / "grid.txt"
    grid.write_text("fasmt 8 2 1 0\n")
    csv_out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(csv_out), "--tau", "nan"]) == 1
    assert not csv_out.exists()


def test_verify_match(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["gen", "--n", "10", "--s", "3", "--d", "2", "--seed", "8", "--out", str(inst)])
    assert main(["verify", "--alg", "fasmt", "--input", str(inst), "--d", "2"]) == 0
    assert "spectra match" in capsys.readouterr().out


def test_verify_mismatch_exits_3(tmp_path, capsys):
    # +1 and -1 cancel at the root, silencing the adaptive runners; the
    # input file still holds both coefficients
    inst = tmp_path / "cancel.txt"
    write_poly_file(inst, SparsePolynomial(4, {bv("1000"): 1.0, bv("0100"): -1.0}))
    code = main(["verify", "--alg", "fasmt", "--input", str(inst), "--d", "1"])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_runs_at_n_64(tmp_path, capsys):
    inst = tmp_path / "big.txt"
    main(["gen", "--n", "64", "--s", "8", "--d", "3", "--seed", "6", "--out", str(inst)])
    assert main(["verify", "--alg", "hybrid", "--input", str(inst), "--d", "3"]) == 0
    assert "spectra match" in capsys.readouterr().out


def test_gen_and_verify_at_n_4096_d_16(tmp_path, capsys):
    # C(4096, 7) and up are past 2^64: the generator draws multiword ranks
    inst = tmp_path / "wide.txt"
    args = ["gen", "--n", "4096", "--s", "2", "--d", "16", "--seed", "1", "--out", str(inst)]
    assert main(args) == 0, capsys.readouterr().err
    for alg in ("pasmt", "fasmt", "hybrid"):
        assert main(["verify", "--alg", alg, "--input", str(inst), "--d", "16"]) == 0
        assert "spectra match" in capsys.readouterr().out


def test_bench_runs_grid(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("# small grid\npasmt 10 2 1 1\nfasmt 10 2 1 1\nhybrid 10 2 1 1\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 0
    assert "ran 3 cells, 0 inexact" in capsys.readouterr().out
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [r["algorithm"] for r in rows] == ["pasmt", "fasmt", "hybrid"]
    assert all(r["exact"] == "true" for r in rows)


def test_bound_prints_value(capsys):
    assert main(["bound", "--n", "1024", "--s", "16", "--d", "4"]) == 0
    assert abs(float(capsys.readouterr().out) - 512 / 9) < 1e-12


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    args = ["bound", "--n", "1024", "--s", "16", "--d", "4"]
    done = subprocess.run(
        [sys.executable, "-m", "sparsemobius", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - 512 / 9) < 1e-12


def test_bound_rejects_undefined(capsys):
    assert main(["bound", "--n", "4", "--s", "16", "--d", "4"]) == 1
    assert "invalid input" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main([
        "reconstruct", "--alg", "fasmt", "--input", str(tmp_path / "nope.txt"),
        "--d", "1", "--out", str(tmp_path / "rec.txt"),
    ])
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 1\n1.0 01\n")
    code = main([
        "reconstruct", "--alg", "fasmt", "--input", str(bad),
        "--format", "poly", "--d", "1", "--out", str(tmp_path / "rec.txt"),
    ])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("4 1\n1.0 01x\n")
    code = main([
        "reconstruct", "--alg", "fasmt", "--input", str(garbled),
        "--d", "1", "--out", str(tmp_path / "rec.txt"),
    ])
    assert code == 1


@pytest.mark.parametrize("byte", [b"\xc3", b"\xff"])
@pytest.mark.parametrize("form", ["auto", "poly"])
def test_non_ascii_input_exits_1(tmp_path, capsys, byte, form):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"4 1\n1.0 1000" + byte + b"\n")
    code = main([
        "reconstruct", "--alg", "fasmt", "--input", str(bad),
        "--format", form, "--d", "1", "--out", str(tmp_path / "rec.txt"),
    ])
    assert code == 1
    assert "invalid input: line 2: non-ASCII byte" in capsys.readouterr().err


LONG = "1" * 5001  # past CPython's default 4,300-digit int-string limit


@pytest.mark.parametrize(
    "text, lineno",
    [(f"4 1\n{LONG} 1000\n", 2), (f"{LONG} 1\n1.0 1000\n", 1), (f"4 1\n1 {LONG}\n", 2)],
    ids=["coefficient", "header", "vertex-id"],
)
def test_a_numeral_past_the_digit_limit_exits_1(tmp_path, capsys, text, lineno):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code = main([
        "reconstruct", "--input", str(bad), "--out", str(tmp_path / "rec.txt"),
        "--alg", "fasmt", "--d", "1", "--tau", "0",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"invalid input: line {lineno}: integer numeral of 5001 digits" in err
    assert "-digit limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["pasmt 0 4 2 1", "pasmt 16 -2 2 1", "fasmt 16 4 0 1"])
def test_bench_rejects_a_bad_grid_line_before_running(tmp_path, capsys, line):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"fasmt 8 2 1 1\n{line}\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 1
    assert "invalid input: line 2:" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_grid_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_bytes(b"# caf\xc3\xa9\nfasmt 10 2 1 1\n")
    code = main(["bench", "--grid", str(grid), "--out", str(tmp_path / "bench.csv")])
    assert code == 1
    assert "invalid input: line 1: non-ASCII byte 0xc3" in capsys.readouterr().err


def test_bad_arguments_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["reconstruct", "--alg", "nope", "--input", "x", "--d", "1", "--out", "y"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_entry_point_install():
    import shutil
    import subprocess

    exe = shutil.which("sparsemobius")
    assert exe is not None
    done = subprocess.run(
        [exe, "bound", "--n", "1024", "--s", "16", "--d", "4"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert abs(float(done.stdout) - 512 / 9) < 1e-12
