"""Source CSV loader errors and writer round trips, byte for byte."""

import csv
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbal as gb
from genbal import fileio
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


# cells float() reads and np.loadtxt does not, cells both read, and cells neither reads
PROBE_CELLS = ["1_0", "\u0661", "\uff11", "\x1c1.0", "nan", "inf", "-Infinity", "1e400", "0x10", "1e-400",
               "-0", "+.5", "1.", "\xa03 ", " 2 ", "\t4", '"2.5"', "#", "", " ", "abc", "1 2", "2\x00"]
# lines the column-wise pass skips as blank
BLANK_LINES = ["", "   ", ",,", " , ,\t", "\t"]


def _load(path, schema, fast=True):
    """What load_source_csv returns or raises, with the np.loadtxt block converter on or off."""
    loadtxt = fileio._loadtxt_block if fast else lambda lines, width, cols: None
    with mock.patch.object(fileio, "_loadtxt_block", loadtxt):
        try:
            sample, meta = load_source_csv(path, schema)
        except Exception as exc:
            return type(exc), getattr(exc, "code", None), str(exc)
    return [(v.dtype, v.shape, v.strides, v.tobytes()) for v in (sample.X, sample.A, sample.Y)], meta


def _loadtxt_reads(path, schema):
    """Whether load_source_csv reads at least one block of the file and np.loadtxt converts every one."""
    parts, loadtxt = [], fileio._loadtxt_block

    def spy(*args):
        parts.append(loadtxt(*args))
        return parts[-1]

    with mock.patch.object(fileio, "_loadtxt_block", spy):
        try:
            load_source_csv(path, schema)
        except ValidationError:
            pass
    return bool(parts) and all(part is not None for part in parts)


def _assert_paths_agree(path, schema):
    assert _load(path, schema) == _load(path, schema, fast=False)


@pytest.mark.parametrize("text", [case[1] for case in LOADER_ERRORS], ids=[c[0] for c in LOADER_ERRORS])
def test_fast_path_keeps_every_loader_error(tmp_path, text):
    # the same files with no categorical column; 'site' is an unused extra column
    path = tmp_path / "source.csv"
    path.write_text(text)
    _assert_paths_agree(path, ColumnSchema("a", "y", ("x1", "x2")))


def test_plain_csv_takes_the_fast_path_and_cells_only_float_reads_fall_back(tmp_path):
    path = tmp_path / "source.csv"
    schema = ColumnSchema("a", "y", ("x1",))
    path.write_text("a,y,x1\n1,0.5,\x1c1.0\n0,1.5,2\n")
    assert _loadtxt_reads(path, schema)
    sample = load_source_csv(path, schema)[0]
    assert sample.X.tolist() == [[1.0], [2.0]] and sample.A.tolist() == [1, 0] and sample.Y.tolist() == [0.5, 1.5]
    for cell, value in (("1_0", 10.0), ("\u0661", 1.0), ("\uff11", 1.0)):
        path.write_text(f"a,y,x1\n1,0.5,{cell}\n0,1.5,2\n", encoding="utf-8")
        assert not _loadtxt_reads(path, schema)
        assert load_source_csv(path, schema)[0].X[0, 0] == value
    # a non-finite cell outside the schema's columns is read as the column-wise pass reads it
    path.write_text("a,y,x1,z\n1,0.5,1,nan\n0,1.5,2,-inf\n")
    assert _loadtxt_reads(path, schema)
    _assert_paths_agree(path, schema)
    # rows wider than the header, and a used column twice, fall back to their errors
    for text in ("a,y,x1\n1,0.5,1,9\n0,1.5,2,9\n", "a,y,x1,x1\n1,0.5,1,1\n0,1.5,2,2\n"):
        path.write_text(text)
        assert not _loadtxt_reads(path, schema)
        _assert_paths_agree(path, schema)
    path.write_text("a,y,x1\n\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert not _loadtxt_reads(path, schema)
    assert seen == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fast_path_reads_what_the_column_wise_pass_reads(tmp_path_factory, data):
    draw = data.draw
    p, extra, n = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 6))
    names = ["a", "y", *(f"x{j + 1}" for j in range(p)), *(f"z{j}" for j in range(extra))]
    header = draw(st.permutations(names))
    cells = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-3, 3).map(str)
    rows = [{c: str(i % 2) if c == "a" else draw(cells) for c in header} for i in range(n)]
    lines = [",".join(header)] + [",".join(row[c] for c in header) for row in rows]
    plain = True
    for _ in range(draw(st.integers(0, 3))):
        plain = False
        kind = draw(st.sampled_from(["cell", "blank", "ragged", "quote", "bom", "repeat"]))
        i = draw(st.integers(1, len(lines) - 1))
        line = lines[i].split(",")
        j = draw(st.integers(0, len(line) - 1))
        if kind == "cell":
            line[j] = draw(st.sampled_from(PROBE_CELLS))
        elif kind == "quote":
            line[j] = f'"{line[j]}"'
        elif kind == "ragged":
            line = line[:-1] if draw(st.booleans()) else [*line, "1"]
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(BLANK_LINES)))
            continue
        elif kind == "bom":
            lines[0] = "\ufeff" + lines[0]
            continue
        else:  # a header name used twice
            head = lines[0].split(",")
            head[j % len(head)] = draw(st.sampled_from(names))
            lines[0] = ",".join(head)
            continue
        lines[i] = ",".join(line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    path = tmp_path_factory.mktemp("plain") / "source.csv"
    path.write_bytes((eol.join(lines) + draw(st.sampled_from(["", eol]))).encode("utf-8"))
    schema = ColumnSchema("a", "y", tuple(draw(st.permutations([f"x{j + 1}" for j in range(p)]))))
    _assert_paths_agree(path, schema)
    if plain:
        assert _loadtxt_reads(path, schema)


# block sizes that put a block boundary on every line, every other line and so on
BLOCK_SIZES = (1, 2, 3, fileio._BLOCK_ROWS)


@pytest.mark.parametrize("rows", BLOCK_SIZES[:-1])
def test_loader_errors_are_the_same_at_every_block_size(tmp_path, rows):
    path = tmp_path / "source.csv"
    for _, text, _, _ in LOADER_ERRORS:
        path.write_text(text)
        for schema in (SCHEMA, ColumnSchema("a", "y", ("x1", "x2"))):
            want = _load(path, schema)
            with mock.patch.object(fileio, "_BLOCK_ROWS", rows):
                assert _load(path, schema) == want
                assert _load(path, schema, fast=False) == want


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_categorical_codes_are_the_same_at_every_block_size(tmp_path, rows):
    path = tmp_path / "cat.csv"
    labels = ["boston", "chicago", "boston", "ann-arbor", " chicago ", "zurich", "ann-arbor"]
    path.write_text("a,y,site\n" + "".join(f"{i % 2},{i}.5,{label}\n" for i, label in enumerate(labels)))
    with mock.patch.object(fileio, "_BLOCK_ROWS", rows):
        sample, meta = load_source_csv(path, ColumnSchema("a", "y", ("site",), categorical=("site",)))
    assert meta["category_codes"] == {"site": {"ann-arbor": 0.0, "boston": 1.0, "chicago": 2.0, "zurich": 3.0}}
    assert sample.X[:, 0].tolist() == [1.0, 2.0, 1.0, 0.0, 2.0, 3.0, 0.0]


@pytest.mark.parametrize("rows", BLOCK_SIZES[:-1])
def test_round_trip_is_bit_exact_at_every_block_size(tmp_path_factory, rows):
    with mock.patch.object(fileio, "_BLOCK_ROWS", rows):
        test_source_csv_round_trip_is_bit_exact(tmp_path_factory=tmp_path_factory)


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_quoted_records_across_block_boundaries_load_whole(tmp_path, rows):
    path = tmp_path / "source.csv"
    text = ('a,y,x1,note,site\n1,0.5,1,"two\nlines",bos\n0,1.5,"2",pl"ain,"new\nyork"\n\n'
            '1,2.5,3,"a ""quoted""\n\nword",bos\n0,3.5,4,,bos\n')
    path.write_text(text)
    categorical = ColumnSchema("a", "y", ("x1", "site"), categorical=("site",))
    with mock.patch.object(fileio, "_BLOCK_ROWS", rows):
        sample, meta = load_source_csv(path, categorical)
        assert sample.X.tolist() == [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 0.0]]
        assert sample.A.tolist() == [1, 0, 1, 0] and sample.Y.tolist() == [0.5, 1.5, 2.5, 3.5]
        assert meta["category_codes"] == {"site": {"bos": 0.0, "new\nyork": 1.0}}
        assert load_source_csv(path, ColumnSchema("a", "y", ("x1",)))[0].X.tolist() == [[1.0], [2.0], [3.0], [4.0]]
        # a quoted record counts as one line
        path.write_text(text + "2,1,1,x,bos\n")
        with pytest.raises(ValidationError, match="^non-binary treatment value 2 at line 7, column 'a'$"):
            load_source_csv(path, categorical)


def test_load_source_csv_opens_its_path_once(tmp_path):
    path = tmp_path / "source.csv"
    for text in (f"{HEADER}\n" + f"{GOOD}\n" * 5, f"{HEADER}\n{GOOD}\n0,1.5,1,2,\n"):
        path.write_text(text)
        with mock.patch.object(fileio, "_BLOCK_ROWS", 2), \
                mock.patch.object(fileio, "open", wraps=open, create=True) as spy:
            for schema in (SCHEMA, ColumnSchema("a", "y", ("x1", "x2"))):
                _load(path, schema)
        assert spy.call_count == 2


def test_only_a_block_loadtxt_refuses_is_parsed_by_csv_reader(tmp_path):
    path = tmp_path / "source.csv"
    path.write_text("a,y,x1\n1,0.5,1\n0,1.5,2\n1,2.5,1_0\n0,3.5,4\n1,4.5,5\n")
    parsed, reader = [], csv.reader

    def spy(lines, *args, **kwargs):  # records the lines each reader takes
        parsed.append([])
        return reader((parsed[-1].append(line) or line for line in lines), *args, **kwargs)

    with mock.patch.object(fileio, "_BLOCK_ROWS", 2), mock.patch.object(fileio.csv, "reader", spy):
        sample, _ = load_source_csv(path, ColumnSchema("a", "y", ("x1",)))
    assert parsed == [["a,y,x1\n"], ["1,2.5,1_0\n", "0,3.5,4\n"]]
    assert sample.X[:, 0].tolist() == [1.0, 2.0, 10.0, 4.0, 5.0]


@pytest.mark.parametrize("kind", ["fallback", "categorical"])
def test_a_file_loadtxt_refuses_loads_in_memory_bounded_by_its_output(tmp_path, kind):
    # the whole file is never held as csv records: the traced peak stays within
    # four times the loaded arrays, where a whole-file list of records took twelve to fifteen
    n, path = 100_000, tmp_path / "source.csv"
    rows = [f"{i},{i % 2},{i * 0.25!r},{(i % 7) * 1.5 - 3!r},{i % 11 - 5},{('bos', 'chi', 'nyc')[i % 3]}"
            for i in range(n)]
    rows[-1] = "," + rows[-1].split(",", 1)[1]  # an empty cell in the unused id column
    path.write_text("id,a,y,x1,x2,site\n" + "\n".join(rows) + "\n")
    covariates = ("x1", "x2", "site") if kind == "categorical" else ("x1", "x2")
    schema = ColumnSchema("a", "y", covariates, categorical=covariates[2:])
    tracemalloc.start()
    try:
        sample, _ = load_source_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n_s == n
    assert peak < 4 * n * (2 + len(covariates)) * 8
