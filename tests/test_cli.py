import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sic
from sic.bounds import ASYMPTOTIC_KINDS
from sic.cli import BOUND_KINDS, VERIFY_CHECKERS, main
from sic.codes import BinaryCode
from sic.matrixfile import read_matrix, write_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "bounds", "upper-zu", "--z", "3")
        assert code == 2
        assert "needs" in err

    def test_bad_kind_usage(self, capsys):
        code, _, _ = run(capsys, "bounds", "nope")
        assert code == 2

    def test_asymptotic(self, capsys):
        code, out, _ = run(capsys, "bounds", "asymptotic", "--form", "exact-size-upper",
                           "--s", "10")
        assert code == 0
        assert "value=0.132877" in out


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

    def test_repeat_run_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "examples", "--budget", "1000")
        _, out2, _ = run(capsys, "examples", "--budget", "1000")
        assert out1 == out2

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
