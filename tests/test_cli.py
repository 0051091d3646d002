import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sic
from helpers import bounds_by_list
from sic import verify
from sic.bounds import ASYMPTOTIC_KINDS
from sic.cli import BOUND_KINDS, VERIFY_CHECKERS, main
from sic.codes import BinaryCode
from sic.matrixfile import read_matrix, write_matrix
from sic.verify import coincidence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One grid per bound kind, with the asymptotic forms over one, two and
# three given flags
BOUND_GRIDS = [
    ["recurrent-upper", "--z-max", "6"],
    ["nonrecurrent-upper", "--z", "2:9"],
    ["upper-zu", "--z", "1:6", "--u", "1:4"],
    ["lower-zu", "--z", "1:8", "--u", "2:3"],
    ["lower-z1", "--z", "2:5"],
    ["universal-upper", "--l", "1:2", "--s", "3:5"],
    ["threshold-lower-simple", "--u", "1", "--s", "2:6"],
    ["threshold-lower", "--u", "2", "--s", "3:5"],
    ["asymptotic", "--form", "exact-size-upper", "--s", "10"],
    ["asymptotic", "--form", "lower-zu", "--z", "3:5", "--u", "2"],
    ["asymptotic", "--form", "upper-z1", "--z", "2:3", "--u", "1:2", "--s", "4:5"],
]


class TestBounds:
    def test_recurrent_table_reciprocals(self, capsys):
        code, out, _ = run(capsys, "bounds", "recurrent-upper", "--z-max", "17")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 17
        assert "reciprocal=3.1063" in lines[1]
        assert "reciprocal=54.2612" in lines[16]

    def test_upper_zu_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "upper-zu", "--z", "3", "--u", "2")
        assert code == 0
        assert "value=0.074487" in out

    def test_threshold_lower_json_witness(self, capsys):
        code, out, _ = run(capsys, "bounds", "threshold-lower", "--u", "2", "--s", "5",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["optimizer"]["beta"] > 0
        from sic.bounds import threshold_objective
        assert rows[0]["value"] == pytest.approx(
            threshold_objective(rows[0]["optimizer"]["beta"], 2, 5), abs=1e-9)

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "bounds", "lower-zu", "--z", "3:4", "--u", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,z,u,s,l,value,witness,note"
        assert len(lines) == 3

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "bounds", "lower-z1", "--z", "2:4", "--format", "json")
        _, out2, _ = run(capsys, "bounds", "lower-z1", "--z", "2:4", "--format", "json")
        assert out1 == out2

    def test_upper_zu_table_too_large_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "upper-zu", "--z", "990", "--u", "990")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "bounds", "upper-zu", "--z", "3")
        assert code == 2
        assert "needs" in err

    def test_bad_range(self, capsys):
        code, out, err = run(capsys, "bounds", "lower-zu", "--z", "3:1", "--u", "1")
        assert (code, out) == (2, "")
        assert err == "error: bad z range '3:1'; use an int or LO:HI\n"

    def test_bad_kind_usage(self, capsys):
        code, _, _ = run(capsys, "bounds", "nope")
        assert code == 2

    def test_threshold_lower_above_u_26(self, capsys):
        code, out, err = run(capsys, "bounds", "threshold-lower", "--u", "27", "--s", "28")
        assert (code, err) == (0, "")
        assert out.startswith("threshold-lower u=27 s=28 value=")

    def test_threshold_lower_count_beyond_float_range(self, capsys):
        # C(1199, 399) and C(1199, 599) exceed the float range; at u = 600 the
        # bound itself (below 4^-600 / 1199) is under the smallest float
        code, out, err = run(capsys, "bounds", "threshold-lower", "--u", "400", "--s", "1200")
        assert (code, err) == (0, "")
        assert out.startswith("threshold-lower u=400 s=1200 value=")
        code, out, err = run(capsys, "bounds", "threshold-lower", "--u", "600", "--s", "1200")
        assert (code, out) == (2, "")
        assert err == "error: degenerate threshold bound at (600, 1200)\n"

    def test_lower_zu_tiny_value_is_positive(self, capsys):
        code, out, _ = run(capsys, "bounds", "lower-zu", "--z", "60", "--u", "30",
                           "--format", "csv")
        assert code == 0
        value = out.splitlines()[1].split(",")[5]
        assert float(value) > 0 and not value.startswith("-")

    def test_asymptotic(self, capsys):
        code, out, _ = run(capsys, "bounds", "asymptotic", "--form", "exact-size-upper",
                           "--s", "10")
        assert code == 0
        assert "value=0.132877" in out

    def test_asymptotic_range_prints_a_grid(self, capsys):
        argv = ["bounds", "asymptotic", "--form", "lower-zu", "--u", "2", "--z"]
        code, out, _ = run(capsys, *argv, "3:5")
        assert code == 0
        singles = [run(capsys, *argv, str(z)) for z in (3, 4, 5)]
        assert [c for c, _, _ in singles] == [0, 0, 0]
        assert out.splitlines() == [line for _, o, _ in singles for line in o.splitlines()]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("grid", BOUND_GRIDS, ids=" ".join)
    def test_rows_match_the_collected_rows(self, capsys, grid, fmt):
        code, out, err = run(capsys, "bounds", *grid, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == bounds_by_list([*grid, "--format", fmt])

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_first_point_failing_prints_nothing(self, capsys, fmt):
        code, out, err = run(capsys, "bounds", "threshold-lower", "--u", "600:601",
                             "--s", "1200", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: degenerate threshold bound at (600, 1200)\n"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_later_point_failing_keeps_the_rows_before_it(self, capsys, fmt):
        # (u + 1)^(u + 1) overflows a float from u = 143 on
        argv = ["asymptotic", "--form", "upper-zu", "--z", "10", "--u"]
        code, out, err = run(capsys, "bounds", *argv, "140:150", "--format", fmt)
        assert code == 2
        assert err == "error: asymptotic kind 'upper-zu' overflows a float at z=10, u=143\n"
        before = bounds_by_list([*argv, "140:142", "--format", fmt])
        assert out == (before.removesuffix("\n]\n") if fmt == "json" else before)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_recurrent_upper_defaults_to_z_max_17(self, capsys, fmt):
        code, out, err = run(capsys, "bounds", "recurrent-upper", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == bounds_by_list(["recurrent-upper", "--z-max", "17", "--format", fmt])
        assert out == bounds_by_list(["recurrent-upper", "--format", fmt])

    def test_json_rows_stream(self):
        class Sink(io.TextIOBase):  # keeps the last line and the byte count only
            chars, last = 0, ""

            def write(self, text):
                self.chars += len(text)
                self.last = (self.last + text).rsplit("\n", 1)[-1]
                return len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(["bounds", "nonrecurrent-upper", "--z", "2:100000",
                             "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 16 * 2**20 and sink.last == ""  # 17 MiB of rows, ending "]\n"
        assert peak < 2 * 2**20

    def test_rows_stream(self):
        class Closed(Exception):
            pass

        class FirstRow(io.StringIO):  # a reader that leaves after the header and one row
            def write(self, text):
                super().write(text)
                if self.getvalue().count("\n") == 2:
                    raise Closed

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(FirstRow()), pytest.raises(Closed):
                main(["bounds", "nonrecurrent-upper", "--z", "2:1000000", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_pipe_ends_quietly(self):
        # the console script dies of SIGPIPE, without a traceback, when its
        # reader leaves; the grid of 10^11 points is never stored
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        limit = 2**31

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.Popen(
            [sys.executable, "-c", "from sic.cli import entry; entry()",
             "bounds", "nonrecurrent-upper", "--z", "2:100000000000"],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_memory, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE, err
        assert err == b""
        assert first == b"nonrecurrent-upper z=2 value=1.013829\n"

    @pytest.mark.parametrize("argv,flag", [
        (["lower-z1", "--z", "3", "--u", "7"], "u"),
        (["recurrent-upper", "--z", "3"], "z"),
        (["upper-zu", "--z", "3", "--u", "2", "--s", "4"], "s"),
        (["universal-upper", "--l", "1", "--s", "3", "--z", "2"], "z"),
        (["asymptotic", "--form", "lower-zu", "--z", "3", "--u", "2", "--l", "2"], "l"),
        (["lower-z1", "--z", "3", "--form", "upper-z1", "--z-max", "5"], "form"),
        (["lower-z1", "--z", "3", "--z-max", "5"], "z-max"),
        (["recurrent-upper", "--form", "lower-z1"], "form"),
        (["asymptotic", "--form", "lower-z1", "--z", "3", "--z-max", "17"], "z-max"),
        (["threshold-lower", "--u", "2", "--s", "3", "--format", "json", "--z-max", "4"], "z-max"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_flag_the_kind_does_not_take(self, capsys, argv, flag):
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: kind {argv[0]!r} takes no --{flag}\n"


class TestConstruct:
    @pytest.mark.parametrize("q,k,r,t,N,w", [
        (5, 5, 2, 125, 20, 4),
        (7, 6, 3, 343, 35, 5),
        (8, 5, 2, 512, 56, 7),
    ])
    def test_known_parameter_triples(self, capsys, tmp_path, q, k, r, t, N, w):
        out_path = tmp_path / "code.sic"
        code, out, _ = run(capsys, "construct", str(q), str(k), str(r), str(out_path))
        assert code == 0
        assert f"t={t} N={N} w={w}" in out
        stored = read_matrix(out_path)
        assert (stored.N, stored.t, stored.weight) == (N, t, w)

    def test_invalid_parameters(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "6", "3", "1", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err

    def test_expansion_too_large_exits_2_without_allocating(self, tmp_path):
        # q=256 k=2 r=0 expands to a 65792 x 65536 matrix: 4 GiB of bits. The
        # address-space limit turns an attempt to allocate it into a failure.
        out_path = tmp_path / "out.sic"
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        limit = 2**31

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sic.cli import main; sys.exit(main())",
             "construct", "256", "2", "0", str(out_path)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=cap_memory, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "too large to materialize" in proc.stderr
        assert not out_path.exists()

    def test_q64_k4_r2(self, capsys, tmp_path):
        # its parent code has 64^4 codewords; only the 64^2 kept ones are encoded
        out_path = tmp_path / "q64b.sic"
        code, out, _ = run(capsys, "construct", "64", "4", "2", str(out_path))
        assert code == 0
        assert out == "t=4096 N=4032 w=63 lambda=1\n"
        assert coincidence(read_matrix(out_path)) == 1
        code, out, _ = run(capsys, "verify", str(out_path), "d-cert", "2", "1")
        assert (code, out) == (0, "certified\n")

    def test_unwritable_output(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.sic"
        code, out, err = run(capsys, "construct", "5", "5", "2", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")


class TestVerify:
    def test_cover_free_failure_prints_witness(self, capsys, tmp_path):
        path = tmp_path / "ones.sic"
        write_matrix(BinaryCode(bits=np.ones((2, 2), dtype=np.uint8)), path)
        code, out, _ = run(capsys, "verify", str(path), "cover-free", "1", "1")
        assert code == 1
        assert "not satisfied" in out
        assert "witness: U=0 Z=1" in out

    def test_identity_cover_free(self, capsys, tmp_path):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(5, dtype=np.uint8), weight=1), path)
        code, out, _ = run(capsys, "verify", str(path), "cover-free", "2", "1")
        assert code == 0
        assert "satisfied" in out

    @pytest.mark.parametrize("prop, params", [
        ("cover-free", ["1", "1"]), ("d-code", ["2", "1"]), ("d-cert", ["2", "1"]),
        ("m-code", ["2", "1"]), ("threshold", ["1", "2"]), ("threshold-bar", ["1", "2"])])
    def test_parameter_count(self, capsys, tmp_path, prop, params):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(6, dtype=np.uint8), weight=1), path)
        code, _, _ = run(capsys, "verify", str(path), prop, *params)
        assert code in (0, 1)
        for wrong in ([*params, "9"], params[:1]):
            code, out, err = run(capsys, "verify", str(path), prop, *wrong)
            assert code == 2 and out == ""
            assert err == f"error: property {prop!r} needs 2 integer parameters\n"

    @pytest.mark.parametrize("params, message", [
        (["d-code", "x", "1"], "bad integer parameters ['x', '1']"),
        (["design", "2", "3"], "design needs: l s mode [labels...]"),
        (["design", "1", "2", "at-most", "0", "x"], "bad outcome labels ['0', 'x']"),
        (["design", "2", "3", "at-most", "0", "1"], "2 labels inconsistent with l=2"),
        (["design", "1", "2", "sideways"], "mode must be 'at-most' or 'exactly', got 'sideways'"),
    ])
    def test_parameter_errors(self, capsys, tmp_path, params, message):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(6, dtype=np.uint8), weight=1), path)
        code, out, err = run(capsys, "verify", str(path), *params)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_d_code_failure_prints_witness(self, capsys, tmp_path):
        path = tmp_path / "q2.sic"
        assert run(capsys, "construct", "2", "3", "0", str(path))[0] == 0
        code, out, _ = run(capsys, "verify", str(path), "d-code", "2", "1")
        assert (code, out) == (1, "not satisfied\nwitness: S=0,1 j=2\n")

    def test_d_cert(self, capsys, tmp_path, ex3):
        path = tmp_path / "ex3.sic"
        write_matrix(ex3, path)
        code, out, _ = run(capsys, "verify", str(path), "d-cert", "10", "3")
        assert code == 0 and "certified" in out
        code, out, _ = run(capsys, "verify", str(path), "d-cert", "11", "3")
        assert code == 1 and "not certified" in out

    def test_d_cert_non_constant_weight(self, capsys, tmp_path):
        bits = np.eye(4, dtype=np.uint8)
        bits[2, 0] = 1
        path = tmp_path / "ragged.sic"
        write_matrix(BinaryCode(bits=bits), path)
        code, _, err = run(capsys, "verify", str(path), "d-cert", "2", "1")
        assert code == 2
        assert "weight" in err

    def test_budget_exit_code(self, capsys, tmp_path, ex3):
        path = tmp_path / "ex3.sic"
        write_matrix(ex3, path)
        code, _, err = run(capsys, "verify", str(path), "d-code", "6", "2")
        assert code == 3
        assert "budget" in err
        # the reduced scan's charge, which the multicover DP decides in ms
        scans = "8067478710122832"
        code, out, _ = run(capsys, "verify", str(path), "d-code", "6", "2", "--budget", scans)
        assert (code, out) == (0, "satisfied (tuples checked: 12293300891615744)\n")
        code, _, err = run(capsys, "verify", str(path), "d-code", "6", "2", "--budget", str(int(scans) - 1))
        assert (code, err) == (3, f"error: {scans} row scans exceed budget {int(scans) - 1}\n")

    def test_d_code_budget_counts_the_subsets_with_column_0(self, capsys, tmp_path, ex1):
        # example 1 needs 775,310,000 row scans for every S, 18,607,440 for
        # the S that contain column 0; with rows 1 and 5 swapped its blocks
        # of q = 5 rows are no longer canonical, and the detector finds them;
        # without its weight the file takes the full scan
        path, other = tmp_path / "ex1.sic", tmp_path / "ex1-rows.sic"
        plain = tmp_path / "ex1-plain.sic"
        rows = [0, 5, 2, 3, 4, 1, *range(6, 20)]
        write_matrix(ex1, path)
        write_matrix(BinaryCode(bits=ex1.bits[rows], weight=4), other)
        write_matrix(BinaryCode(bits=ex1.bits[rows]), plain)
        for f in (path, other):
            code, out, _ = run(capsys, "verify", str(f), "d-code", "3", "2", "--budget", "18607440")
            assert (code, out) == (0, "satisfied (tuples checked: 38765500)\n")
            code, _, err = run(capsys, "verify", str(f), "d-code", "3", "2", "--budget", "18607439")
            assert (code, err) == (3, "error: 18607440 row scans exceed budget 18607439\n")
        code, _, err = run(capsys, "verify", str(plain), "d-code", "3", "2", "--budget", "18607440")
        assert (code, err) == (3, "error: 775310000 row scans exceed budget 18607440\n")

    @pytest.mark.parametrize("argv, rc", [(["cover-free", "1", "1"], 0),
                                          (["m-code", "2", "1", "--budget", "3000000000"], 1)])
    def test_pair_checks_same_with_rows_shuffled(self, capsys, tmp_path, ex1, argv, rc):
        # translates recovers example 1's blocks with its rows shuffled, and
        # the multicover decision then reads column 0 alone: stdout and exit
        # code are those of the file in block order
        path, shuffled = tmp_path / "ex1.sic", tmp_path / "exp.sic"
        write_matrix(ex1, path)
        rows = np.random.default_rng(1).permutation(ex1.N)
        write_matrix(BinaryCode(bits=ex1.bits[rows], weight=ex1.weight), shuffled)
        first = run(capsys, "verify", str(path), *argv)
        assert first[0] == rc
        assert run(capsys, "verify", str(shuffled), *argv) == first

    def test_budget_env_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(6, dtype=np.uint8), weight=1), path)
        monkeypatch.setenv("SIC_BUDGET", "1")
        code, _, err = run(capsys, "verify", str(path), "cover-free", "2", "1")
        assert code == 3
        monkeypatch.setenv("SIC_BUDGET", "1000000")
        code, _, _ = run(capsys, "verify", str(path), "cover-free", "2", "1")
        assert code == 0

    def test_design_with_labels(self, capsys, tmp_path):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(7, dtype=np.uint8), weight=1), path)
        code, out, _ = run(capsys, "verify", str(path), "design", "1", "2", "at-most",
                           "0", "1")
        assert code == 0 and "satisfied" in out

    def test_threshold_bar(self, capsys, tmp_path):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(7, dtype=np.uint8), weight=1), path)
        code, out, _ = run(capsys, "verify", str(path), "threshold-bar", "1", "2")
        assert code == 0

    def test_readme_verify_examples_run(self, capsys, tmp_path, monkeypatch):
        # each `sic verify ex1.sic ...` line of README's CLI block ends with a
        # verdict, not with the budget or a usage error
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            blocks = fh.read().split("```sh\n")[1:]
        lines = [line.split("#")[0].split() for block in blocks
                 for line in block.split("```")[0].splitlines()
                 if line.startswith("sic verify ex1.sic ")]
        assert {argv[3] for argv in lines} >= {"design", "threshold", "threshold-bar"}
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SIC_BUDGET", raising=False)
        assert run(capsys, "construct", "5", "5", "2", "ex1.sic")[0] == 0
        for argv in lines:
            code, _, err = run(capsys, *argv[1:])
            assert code in (0, 1), (argv, err)

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path / "absent.sic"), "cover-free",
                             "1", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "absent.sic" in err

    def test_non_ascii_file(self, capsys, tmp_path):
        path = tmp_path / "accent.sic"
        path.write_bytes("SIC v1 1 2\n1\u00e9\n".encode("utf-8"))
        code, _, err = run(capsys, "verify", str(path), "cover-free", "1", "1")
        assert code == 2
        assert err.startswith("error: ")

    def test_non_ascii_trailing_comment(self, capsys, tmp_path):
        path = tmp_path / "accent.sic"
        path.write_bytes("SIC v1 2 2\n01\n10\n# caf\u00e9\n".encode("utf-8"))
        code, out, err = run(capsys, "verify", str(path), "d-cert", "3", "2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: 'ascii' codec can't decode")

    def test_non_integer_budget_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(4, dtype=np.uint8), weight=1), path)
        monkeypatch.setenv("SIC_BUDGET", "lots")
        code, _, err = run(capsys, "verify", str(path), "cover-free", "2", "1")
        assert code == 2
        assert err.startswith("error: ") and "SIC_BUDGET" in err

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_budget(self, capsys, tmp_path, monkeypatch, source):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(4, dtype=np.uint8), weight=1), path)
        argv = ["verify", str(path), "cover-free", "2", "1"]
        if source == "flag":
            argv += ["--budget", "-5"]
        else:
            monkeypatch.setenv("SIC_BUDGET", "-5")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "-5" in err

    def test_double_dash_as_positional(self, capsys, tmp_path):
        path = tmp_path / "id.sic"
        write_matrix(BinaryCode(bits=np.eye(4, dtype=np.uint8), weight=1), path)
        for argv in (["search", "2", "--", "--"], ["verify", str(path), "--", "--"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "'--' is not a parameter value" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.sic"
        path.write_text("garbage\n")
        code, _, err = run(capsys, "verify", str(path), "cover-free", "1", "1")
        assert code == 2
        assert "line 1" in err

    def test_untrusted_header_width(self, capsys, tmp_path):
        path = tmp_path / "wide.sic"
        path.write_text("SIC v1 1 99999999999\n0\n")
        code, out, err = run(capsys, "verify", str(path), "d-cert", "2", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert "line 2: expected 99999999999 characters from 0/1" in err


class TestSearch:
    def test_known_triple(self, capsys):
        code, out, _ = run(capsys, "search", "2", "12")
        assert code == 0
        assert out.startswith("q=8 lambda=3 N=56")

    def test_larger_strength(self, capsys):
        code, out, _ = run(capsys, "search", "8", "12")
        assert code == 0
        assert "q=16 lambda=2 N=272" in out

    def test_infeasible(self, capsys):
        code, out, _ = run(capsys, "search", "2", "1")
        assert code == 1
        assert "no feasible" in out

    def test_huge_m_is_infeasible_at_once(self):
        # every admissible lam has w = s*lam + 1 <= q + 1, so q^(lam+1) stays
        # far below 2^100000 and the search ends after a few lam per q
        script = ("import time\nfrom sic.cli import main\nstart = time.perf_counter()\n"
                  "code = main(['search', '5', '100000'])\n"
                  "print(code, time.perf_counter() - start)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "no feasible parameters for s=5 m=100000 q_max=64"
        code, seconds = lines[1].split()
        assert code == "1"
        assert float(seconds) < 0.5

    def test_huge_q_max_stops_at_the_size_bracket(self):
        # from q^2 >= 2^(m+1) on no lam is admissible, so q_max = 3*10^6
        # scans the same q <= 45 as the default
        script = ("import time\nfrom sic.codes import search_params\nstart = time.perf_counter()\n"
                  "same = search_params(2, 10, q_max=3_000_000) == search_params(2, 10)\n"
                  "print(same, time.perf_counter() - start)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sic.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        same, seconds = proc.stdout.split()
        assert same == "True"
        assert float(seconds) < 0.5


class TestExamples:
    def test_full_run(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert "all checks passed" in out
        assert "t(20,3,2)>=125" in out
        assert "t(35,4,2)>=343" in out
        assert "t(56,6,2)>=512" in out
        assert "t(56,10,3)>=512" in out
        assert "exhaustive d-code s=3 l=2: PASS (38765500 tuples)" in out
        assert "certificate s=11 l=3: FAIL (expected)" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "630f5e704923479349e2f0728d49e71c3d555548a588d0624e1fbc95badcd370")

    def test_repeat_run_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "examples", "--budget", "1000")
        _, out2, _ = run(capsys, "examples", "--budget", "1000")
        assert out1 == out2

    def test_raised_budget_checks_example_2(self, capsys):
        # its 6,608,580 subsets that contain column 0 take 7.8*10^10 row
        # scans, but the multicover DP decides it, and example 1, at once
        with mock.patch.object(verify, "_batches", side_effect=AssertionError("enumerated S")):
            code, out, _ = run(capsys, "examples", "--budget", "100000000000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c6bc7fdfea09da93ba34e2b58068227760a74f6051709d6240d923890ab821d5")
        assert "exhaustive d-code s=4 l=2: PASS (192106464165 tuples)" in out
        assert "exhaustive d-code s=6 l=2: SKIPPED (688424849930481664 row scans" in out

    def test_small_budget_skips_exhaustive(self, capsys):
        code, out, _ = run(capsys, "examples", "--budget", "1000")
        assert code == 0
        assert "SKIPPED" in out


# Argv fuzz.  Magnitudes stay small so every call is cheap: upper-zu is
# O(z^2 u^2), lower-z1 and threshold-lower run a grid optimizer per grid
# point, construct materializes q^k codewords, and verify runs under a small
# budget.  Tokens ending in ".sic" name files in the test's directory.
_INT = st.integers(-2, 9).map(str)
_RANGE = st.builds("{}:{}".format, st.integers(-1, 6), st.integers(-2, 8))
_JUNK = st.sampled_from(["", "x", "-", "1.5", "::", "3:", "--", "\u00e9"])
_TOKEN = st.one_of(_INT, _RANGE, _JUNK)
_BOUND_OPTION = st.one_of(
    st.tuples(st.just("--z-max"), st.one_of(_INT, _JUNK)),
    st.tuples(st.just("--form"), st.one_of(st.sampled_from(ASYMPTOTIC_KINDS), _JUNK)),
    st.tuples(st.just("--format"), st.sampled_from(["table", "csv", "json", "x"])),
)
_SMALL = st.integers(0, 4).map(str)
_VERIFY_PARAM = st.one_of(st.sampled_from(["at-most", "exactly"]), _SMALL, _JUNK)


@st.composite
def _argvs(draw):
    def mostly(strategy):  # junk one time in four
        return draw(_JUNK if draw(st.integers(0, 3)) == 3 else strategy)

    command = draw(st.sampled_from(["bounds", "construct", "verify", "search", "examples"]))
    argv = [command]
    if command == "bounds":
        argv.append(mostly(st.sampled_from(BOUND_KINDS)))
        for flag in ("--z", "--u", "--s", "--l"):
            if draw(st.integers(0, 2)):
                argv += [flag, draw(_TOKEN)]
        for flag, value in draw(st.lists(_BOUND_OPTION, max_size=2)):
            argv += [flag, value]
    elif command == "construct":
        argv += [mostly(st.integers(-1, 9).map(str)), mostly(st.integers(-1, 4).map(str)),
                 mostly(st.integers(-1, 4).map(str)),
                 draw(st.sampled_from(["out.sic", "nodir/out.sic"]))]
    elif command == "verify":
        argv += [draw(st.sampled_from(["id.sic", "ones.sic"] * 3
                                      + ["text.sic", "accent.sic", "absent.sic"])),
                 mostly(st.sampled_from(list(VERIFY_CHECKERS)))]
        argv += [mostly(_SMALL), mostly(_SMALL)]
        argv += draw(st.lists(_VERIFY_PARAM, max_size=3)) + ["--budget", "20000"]
    elif command == "search":
        argv += [mostly(_INT), mostly(_INT)]
        argv += draw(st.sampled_from([[], ["--q-max", draw(_INT)]]))
    else:
        argv += ["--budget", "100"]
    # drop or append a token now and then
    edit = draw(st.integers(0, 9))
    if edit == 9:
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == 8:
        argv.append(draw(st.one_of(_TOKEN, st.just("--help"))))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_matrix(BinaryCode(bits=np.eye(6, dtype=np.uint8), weight=1), root / "id.sic")
    write_matrix(BinaryCode(bits=np.ones((4, 5), dtype=np.uint8), weight=4), root / "ones.sic")
    (root / "text.sic").write_text("garbage\n")
    (root / "accent.sic").write_bytes("SIC v1 1 2\n1\u00e9\n".encode("utf-8"))
    return root


@settings(deadline=None)
@given(argv=_argvs())
@example(argv=["bounds", "universal-upper", "--l", "1", "--s", "1500"])
@example(argv=["bounds", "upper-zu", "--z", "1200", "--u", "1"])
@example(argv=["bounds", "asymptotic", "--form", "upper-zu", "--z", "10", "--u", "2000"])
@example(argv=["bounds", "asymptotic", "--form", "lower-zu", "--z", "10", "--u", "200"])
@example(argv=["bounds", "asymptotic", "--form", "threshold-lower", "--u", "200", "--s", "300"])
@example(argv=["search", "2", "--", "--"])
def test_argv_fuzz_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [str(fuzz_dir / tok) if tok.endswith(".sic") else tok for tok in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
