import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import read_matrix_by_lines
from sic.codes import BinaryCode, binary_expand, random_code, rs_extended, shorten
from sic.errors import MalformedFile, ParameterOutOfRange
from sic.fields import FiniteField
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
    code = random_code(7, 5, 0.5, seed=2)
    write_matrix(code, path, comments=["a", "b"])
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") == 1 + 7 + 2


def test_unencodable_comment_leaves_no_file(tmp_path):
    path = tmp_path / "x.sic"
    with pytest.raises(UnicodeEncodeError):
        write_matrix(random_code(2, 3, 0.5, seed=1), path, comments=["caf\u00e9"])
    assert not path.exists()


@pytest.mark.parametrize("comment", ["a\nb", "a\rb", "a\r", "\x0b", "a\x0cb", "a\x1cb",
                                     "a\x85b", "a\u2028b"])
def test_comment_with_a_line_break_leaves_no_file(tmp_path, comment):
    path = tmp_path / "x.sic"
    with pytest.raises(ParameterOutOfRange, match="line break"):
        write_matrix(random_code(2, 3, 0.5, seed=1), path, comments=["ok", comment])
    assert not path.exists()


@pytest.mark.parametrize("code, match", [
    (BinaryCode(bits=np.zeros((0, 3), dtype=np.uint8)), "0 x 3 matrix"),
    (BinaryCode(bits=np.zeros((3, 0), dtype=np.uint8)), "3 x 0 matrix"),
    (BinaryCode(bits=np.eye(3, dtype=np.uint8), weight=2), "column 0 has weight 1, header says 2"),
    (BinaryCode(bits=2 * np.eye(3, dtype=np.uint8)), "entries must be 0 or 1"),
    (BinaryCode(bits=-np.eye(3, dtype=np.int8)), "entries must be 0 or 1"),
])
def test_matrix_the_reader_rejects_leaves_no_file(tmp_path, code, match):
    path = tmp_path / "x.sic"
    with pytest.raises(ParameterOutOfRange, match=match):
        write_matrix(code, path)
    assert not path.exists()


def test_plain_comments_round_trip(tmp_path):
    code = random_code(3, 4, 0.5, seed=1)
    path = tmp_path / "c.sic"
    comments = ["", "q=2 k=3 r=1 lambda=2", "tab\tinside"]
    write_matrix(code, path, comments=iter(comments))
    assert path.read_text().splitlines()[-3:] == [f"# {c}" for c in comments]
    assert np.array_equal(read_matrix(path).bits, code.bits)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_line_ends_read_like_newline(tmp_path, end):
    code = BinaryCode(bits=np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8))
    path = tmp_path / "x.sic"
    write_matrix(code, path, comments=["q=2"])
    other = tmp_path / "y.sic"
    other.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    want, got = read_matrix(path), read_matrix(other)
    assert np.array_equal(got.bits, want.bits) and got.bits.dtype == want.bits.dtype
    assert got.weight == want.weight


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


@pytest.mark.parametrize("rows,line", [
    ("0x\n1\n01\n", 2),  # bad character before a short row
    ("01\n1\n0x\n", 3),  # short row before a bad character
    ("01\n12\n01\n", 3),  # the digit just above 1
    ("01\n10\n0\0\n", 4),
])
def test_first_bad_row_is_reported(tmp_path, rows, line):
    path = tmp_path / "bad.sic"
    path.write_text("SIC v1 3 2\n" + rows)
    with pytest.raises(MalformedFile, match=f"^line {line}: expected 2 characters"):
        read_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("SIC v1 2 2\n01010\n", "line 3: expected 2 data rows, file ends early"),
    ("SIC v1 2 2\n01\n10#\n", "line 3: expected 2 characters from 0/1"),
])
def test_rows_of_the_right_size_without_their_line_end(tmp_path, text, message):
    # the bytes fill N rows of t + 1, but a row's last byte is no newline
    path = tmp_path / "bad.sic"
    path.write_text(text)
    with pytest.raises(MalformedFile) as exc:
        read_matrix(path)
    assert str(exc.value) == message


def test_untrusted_width_is_malformed(tmp_path):
    path = tmp_path / "wide.sic"
    path.write_text("SIC v1 1 99999999999\n0\n")
    with pytest.raises(MalformedFile) as exc:
        read_matrix(path)
    assert str(exc.value) == "line 2: expected 99999999999 characters from 0/1"


def test_empty_file(tmp_path):
    path = tmp_path / "empty.sic"
    path.write_text("")
    with pytest.raises(MalformedFile) as exc:
        read_matrix(path)
    assert str(exc.value) == "line 1: empty file"


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


def test_non_ascii_trailing_comment(tmp_path):
    # the rows are valid; the block reader declines the tail and the line
    # reader's decode raises
    path = tmp_path / "accent.sic"
    path.write_bytes("SIC v1 1 2\n01\n# caf\u00e9\n".encode("utf-8"))
    with pytest.raises(UnicodeDecodeError, match="'ascii' codec can't decode"):
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


_ALPHABET = "01\n\r#x \t\f\0"


@st.composite
def _matrix_files(draw):
    """Small files: a header that is mostly valid, then about N rows that
    are mostly right and sometimes junk, each with its own line end (or none)."""
    N, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(st.one_of(st.none(), st.integers(-1, N + 1)))
    if draw(st.integers(0, 9)):
        header = f"SIC v1 {N} {t}" + ("" if w is None else f" {w}")
    else:
        header = draw(st.text(_ALPHABET, max_size=6))
    ends = ["\n", "\r\n", "\r", ""]
    # the header always ends: digits run on from a row would make t huge
    text = header + draw(st.sampled_from(ends[:-1]))
    right, junk = st.text("01", min_size=t, max_size=t), st.text(_ALPHABET, max_size=t + 2)
    for _ in range(max(0, N + draw(st.integers(-1, 2)))):
        text += draw(right if draw(st.integers(0, 3)) else junk) + draw(st.sampled_from(ends))
    return text


def _outcome(read, path):
    try:
        code = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return code.bits.dtype, code.bits.shape, code.bits.tobytes(), code.weight


@settings(max_examples=400)
@given(_matrix_files())
def test_read_matches_line_loop_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "m.sic"
    path.write_bytes(text.encode("ascii"))
    assert _outcome(read_matrix, path) == _outcome(read_matrix_by_lines, path)


def test_reading_and_writing_peak_below_the_matrix(tmp_path):
    # the 4096 x 4096 expansion of the q=64, k=3, r=1 code; the file is
    # read and written in blocks of rows, never as one text or line list
    code = binary_expand(shorten(rs_extended(FiniteField(64), 3), 1))
    path = tmp_path / "q64.sic"
    tracemalloc.start()
    try:
        write_matrix(code, path, comments=["q=64 k=3 r=1 lambda=1"])
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_matrix(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.bits, code.bits) and back.weight == 64
    assert write_peak < 1.25 * code.bits.nbytes
    assert read_peak < 1.25 * code.bits.nbytes
