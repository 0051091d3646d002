import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sic.codes import BinaryCode, random_code
from sic.errors import MalformedFile
from sic.matrixfile import read_matrix, write_matrix


def test_round_trip_example2(tmp_path, ex2):
    path = tmp_path / "ex2.sic"
    write_matrix(ex2, path)
    back = read_matrix(path)
    assert np.array_equal(back.bits, ex2.bits)
    assert back.weight == ex2.weight


def test_round_trip_without_weight(tmp_path):
    code = random_code(6, 9, 0.4, seed=3)
    path = tmp_path / "m.sic"
    write_matrix(code, path)
    back = read_matrix(path)
    assert np.array_equal(back.bits, code.bits)
    assert back.weight is None


def test_written_text_is_exact(tmp_path):
    code = BinaryCode(bits=np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8))
    path = tmp_path / "x.sic"
    write_matrix(code, path, comments=["q=2"])
    assert path.read_bytes() == b"SIC v1 2 3\n101\n010\n# q=2\n"


def test_comments_ignored(tmp_path):
    code = random_code(3, 4, 0.5, seed=1)
    path = tmp_path / "c.sic"
    write_matrix(code, path, comments=["built by test", "second line"])
    text = path.read_text()
    assert "# built by test" in text
    assert np.array_equal(read_matrix(path).bits, code.bits)


def test_header_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 3 4\n0101\n1010\n")
    with pytest.raises(MalformedFile, match="line 4.*ends early"):
        read_matrix(path)


def test_bad_row_length(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 2 4\n0101\n101\n")
    with pytest.raises(MalformedFile, match="line 3"):
        read_matrix(path)


def test_bad_characters(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 1 4\n01x1\n")
    with pytest.raises(MalformedFile, match="line 2"):
        read_matrix(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("CIS v1 1 1\n1\n")
    with pytest.raises(MalformedFile, match="line 1"):
        read_matrix(path)


def test_weight_violation_names_column(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 3 3 1\n100\n010\n010\n")
    with pytest.raises(MalformedFile, match="column 1"):
        read_matrix(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 1 2\n01\nnot a comment\n")
    with pytest.raises(MalformedFile, match="line 3"):
        read_matrix(path)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10**6))
def test_round_trip_random(tmp_path_factory, N, t, seed):
    code = random_code(N, t, 0.5, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "m.sic"
    write_matrix(code, path)
    assert np.array_equal(read_matrix(path).bits, code.bits)


def test_constant_weight_header_accepted(tmp_path):
    bits = np.eye(4, dtype=np.uint8)
    path = tmp_path / "id.sic"
    write_matrix(BinaryCode(bits=bits, weight=1), path)
    assert read_matrix(path).weight == 1
