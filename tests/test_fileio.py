"""Source CSV loader errors and writer round trips, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal.errors import ValidationError
from genbal.fileio import ColumnSchema, load_source_csv, write_source_csv, write_weights_csv

# header order differs from the schema's covariate order on purpose: cells
# of one row are checked treatment, outcome, then covariates in schema order
HEADER = "a,y,x2,x1,site"
SCHEMA = ColumnSchema("a", "y", ("x1", "x2", "site"), categorical=("site",))
GOOD = "1,0.5,2.0,-1.0,bos"

NON_FINITE = "NON_FINITE_CELL"
NON_BINARY = "NON_BINARY_TREATMENT"
GENERIC = "VALIDATION"

# (id, file text, code, message); {path} stands for the file's path
LOADER_ERRORS = [
    ("non-numeric", f"{HEADER}\n{GOOD}\n0,abc,1,2,chi\n", NON_FINITE,
     "non-numeric value 'abc' at line 3, column 'y'"),
    ("inf", f"{HEADER}\n{GOOD}\n0,1.5,inf,2,chi\n", NON_FINITE,
     "non-finite value 'inf' at line 3, column 'x2'"),
    ("minus-inf-padded", f"{HEADER}\n{GOOD}\n0,1.5,1, -Infinity ,chi\n", NON_FINITE,
     "non-finite value '-Infinity' at line 3, column 'x1'"),
    ("nan", f"{HEADER}\n{GOOD}\n0,1.5,1,nan,chi\n", NON_FINITE,
     "non-finite value 'nan' at line 3, column 'x1'"),
    ("nan-treatment", f"{HEADER}\n{GOOD}\nNaN,1.5,1,2,chi\n", NON_FINITE,
     "non-finite value 'NaN' at line 3, column 'a'"),
    ("empty-covariate", f"{HEADER}\n{GOOD}\n0,1.5,1, ,chi\n", NON_FINITE,
     "empty cell at line 3, column 'x1'"),
    ("empty-outcome", f"{HEADER}\n{GOOD}\n0,,1,2,chi\n", NON_FINITE,
     "empty cell at line 3, column 'y'"),
    ("ragged-short", f"{HEADER}\n{GOOD}\n0,1.5,1,2\n", GENERIC,
     "line 3 has 4 cells, header has 5"),
    ("ragged-long", f"{HEADER}\n{GOOD}\n0,1.5,1,2,chi,extra\n", GENERIC,
     "line 3 has 6 cells, header has 5"),
    ("treatment-2", f"{HEADER}\n{GOOD}\n2,1.5,1,2,chi\n", NON_BINARY,
     "non-binary treatment value 2 at line 3, column 'a'"),
    ("treatment-0.5", f"{HEADER}\n{GOOD}\n0.5,1.5,1,2,chi\n", NON_BINARY,
     "non-binary treatment value 0.5 at line 3, column 'a'"),
    ("empty-label", f"{HEADER}\n{GOOD}\n0,1.5,1,2,  \n", NON_FINITE,
     "empty cell at line 3, column 'site'"),
    ("earlier-line-wins", f"{HEADER}\n{GOOD}\n0,1.5,1,2,\n2,1.5,1,2,chi\n", NON_FINITE,
     "empty cell at line 3, column 'site'"),
    ("earlier-line-wins-over-column", f"{HEADER}\n1,0.5,1,oops,bos\n0,bad,1,2,chi\n",
     NON_FINITE, "non-numeric value 'oops' at line 2, column 'x1'"),
    ("treatment-before-outcome", f"{HEADER}\n{GOOD}\n2,bad,1,2,chi\n", NON_BINARY,
     "non-binary treatment value 2 at line 3, column 'a'"),
    ("outcome-before-covariate", f"{HEADER}\n{GOOD}\n0,inf,x,y,\n", NON_FINITE,
     "non-finite value 'inf' at line 3, column 'y'"),
    ("covariates-in-schema-order", f"{HEADER}\n{GOOD}\n0,1.5,bad2,bad1,\n", NON_FINITE,
     "non-numeric value 'bad1' at line 3, column 'x1'"),
    ("numeric-before-label", f"{HEADER}\n{GOOD}\n0,1.5,nan,1,\n", NON_FINITE,
     "non-finite value 'nan' at line 3, column 'x2'"),
    ("ragged-after-bad-cell", f"{HEADER}\n0,1.5,1,inf,chi\n0,1\n", NON_FINITE,
     "non-finite value 'inf' at line 2, column 'x1'"),
    ("ragged-before-bad-cell", f"{HEADER}\n0,1\n0,1.5,1,inf,chi\n", GENERIC,
     "line 2 has 2 cells, header has 5"),
    ("first-of-two-ragged", f"{HEADER}\n{GOOD}\n0,1,2,3,4,5,6\n0,1\n", GENERIC,
     "line 3 has 7 cells, header has 5"),
    ("blank-rows-counted", f"{HEADER}\n{GOOD}\n\n , ,,\t, \n   \n0,1.5,1,2,chi\n3,1,1,1,a\n",
     NON_BINARY, "non-binary treatment value 3 at line 7, column 'a'"),
    ("empty-file", "", GENERIC, "{path}: empty file"),
    ("header-only", f"{HEADER}\n", GENERIC, "{path}: no data rows"),
    ("header-and-blank-rows", f"{HEADER}\n\n ,,,, \n", GENERIC, "{path}: no data rows"),
]


@pytest.mark.parametrize(
    "text, code, message", [case[1:] for case in LOADER_ERRORS], ids=[c[0] for c in LOADER_ERRORS]
)
def test_load_source_csv_error_table(tmp_path, text, code, message):
    path = tmp_path / "source.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_source_csv(path, SCHEMA)
    assert type(err.value) is ValidationError
    assert err.value.code == code
    assert str(err.value) == message.format(path=path)


def test_load_source_csv_skips_blank_rows_and_strips_cells(tmp_path):
    path = tmp_path / "source.csv"
    # \x1c and \x1f are whitespace to str.strip() but not to float()
    path.write_text(f"{HEADER}\n\n 1 , 0.5 ,2e0, -0 , bos \n , ,,, \n-0,1.5,\x1c-3\x1f,4,chi\n")
    sample, meta = load_source_csv(path, SCHEMA)
    np.testing.assert_array_equal(sample.A, [1, 0])
    np.testing.assert_array_equal(sample.Y, [0.5, 1.5])
    np.testing.assert_array_equal(sample.X, [[-0.0, 2.0, 0.0], [4.0, -3.0, 1.0]])
    assert np.signbit(sample.X[0, 0])
    assert meta["category_codes"] == {"site": {"bos": 0.0, "chi": 1.0}}


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 8),
    p=st.integers(1, 3),
    data=st.data(),
)
def test_source_csv_round_trip_is_bit_exact(tmp_path_factory, n, p, data):
    X = np.array(data.draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p)
    Y = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    A = np.array([1, 0] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)))
    sample = gb.SourceSample(X, A, Y)
    schema = ColumnSchema("a", "y", tuple(f"x{j + 1}" for j in range(p)))
    path = tmp_path_factory.mktemp("round") / "source.csv"
    write_source_csv(path, sample, schema)
    loaded, _ = load_source_csv(path, schema)
    assert loaded.X.shape == sample.X.shape
    assert loaded.X.tobytes() == sample.X.tobytes()
    assert loaded.Y.tobytes() == sample.Y.tobytes()
    assert loaded.A.tobytes() == sample.A.tobytes()


def test_write_weights_csv_pinned_bytes(tmp_path):
    sample = gb.SourceSample(np.zeros((5, 1)), [1, 0, 1, 1, 0], np.zeros(5))
    w = [0.1, 1.0 / 3.0, 2.5e10, 5e-324, 1.7976931348623157e308]
    weights = gb.WeightSet(np.array(w), gb.Method.EXTENDED, normalized=False)
    path = tmp_path / "weights.csv"
    write_weights_csv(path, sample, weights)
    assert path.read_bytes() == (
        b"row,treatment,weight,method\n"
        b"0,1,0.1,extended\n"
        b"1,0,0.3333333333333333,extended\n"
        b"2,1,25000000000.0,extended\n"
        b"3,1,5e-324,extended\n"
        b"4,0,1.7976931348623157e+308,extended\n"
    )


def test_write_weights_csv_rejects_misaligned_weights(tmp_path):
    sample = gb.SourceSample(np.zeros((3, 1)), [1, 0, 1], np.zeros(3))
    weights = gb.WeightSet(np.ones(2), gb.Method.EBAL, normalized=False)
    with pytest.raises(ValidationError, match="misaligned"):
        write_weights_csv(tmp_path / "weights.csv", sample, weights)
    assert not (tmp_path / "weights.csv").exists()
