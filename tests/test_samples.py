import concurrent.futures
import csv
import io
import logging
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from censtail import (
    CensoredSample,
    SortedCensoredSample,
    Table,
    kaplan_meier_survival,
    read_csv,
    render_csv,
    sort_with_concomitants,
    top_order_statistics,
)
from censtail import samples
from censtail.errors import (
    EmptySample,
    InvalidIndicator,
    NonPositiveObservation,
    ParseError,
)
from conftest import make_censored


def _assert_rows(sample, z, delta):
    assert np.array_equal(sample.z, z)
    assert np.array_equal(sample.delta, delta)


def _table_csv(sample):
    """The CSV text of a sample as a ``value,delta`` table."""
    return render_csv(Table(("value", "delta"),
                            tuple(zip(sample.z.tolist(), sample.delta.tolist()))))


class TestSorting:
    def test_basic_order_with_concomitants(self):
        sample = CensoredSample(np.array([2.0, 1.0, 4.0]), np.array([0, 1, 1]))
        out = sort_with_concomitants(sample)
        assert out.z.tolist() == [1.0, 2.0, 4.0]
        assert out.delta.tolist() == [1, 0, 1]

    def test_tie_rule_uncensored_first(self):
        out = sort_with_concomitants(CensoredSample(np.array([3.0, 3.0]), np.array([0, 1])))
        assert out.z.tolist() == [3.0, 3.0]
        assert out.delta.tolist() == [1, 0]

    def test_singleton(self):
        out = sort_with_concomitants(CensoredSample(np.array([1.0]), np.array([1])))
        assert out.z.tolist() == [1.0]
        assert out.delta.tolist() == [1]

    def test_tie_rule_keeps_input_order_within_class(self):
        # four tied observations, censored ones keep their relative order
        sample = CensoredSample(np.array([5.0, 5.0, 5.0, 5.0]), np.array([0, 1, 0, 1]))
        out = sort_with_concomitants(sample)
        assert out.delta.tolist() == [1, 1, 0, 0]

    def test_idempotent_on_sorted_input(self, rng):
        for _ in range(20):
            sample = make_censored(rng, allow_ties=True)
            again = sort_with_concomitants(CensoredSample(sample.z, sample.delta))
            assert np.array_equal(again.z, sample.z)
            assert np.array_equal(again.delta, sample.delta)

    def test_multiset_preserved(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            z = rng.uniform(0.5, 3.0, size=n).round(1)  # force ties
            delta = rng.integers(0, 2, size=n)
            sample = CensoredSample(z, delta)
            out = sort_with_concomitants(sample)
            assert sorted(zip(z, delta)) == sorted(zip(out.z, out.delta))

    def test_sorted_sample_rejects_descending(self):
        with pytest.raises(ValueError):
            SortedCensoredSample(np.array([2.0, 1.0]), np.array([1, 1]))

    def test_sorted_sample_rejects_censored_first_at_a_tie(self):
        # a censored value before an uncensored one at z = 3 would make every
        # rank-based hazard use the wrong at-risk count
        z = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValueError, match="tie"):
            SortedCensoredSample(z, np.array([1, 1, 0, 1, 1, 0, 1]))
        direct = SortedCensoredSample(z, np.array([1, 1, 1, 0, 1, 0, 1]))
        canonical = sort_with_concomitants(CensoredSample(z, np.array([1, 1, 0, 1, 1, 0, 1])))
        assert direct.delta.tolist() == canonical.delta.tolist()
        assert kaplan_meier_survival(direct, 3.0) == pytest.approx(4 / 7, abs=1e-15)


class TestTopOrderStatistics:
    def test_sorted_and_unsorted_give_the_top_of_the_sorted_sample(self, rng):
        """Tie blocks of mixed indicators straddle n - m, and m reaches past n."""
        straddled = 0
        for _ in range(40):
            n = int(rng.integers(2, 80))
            z = rng.uniform(1.0, 3.0, size=n).round(1)  # about 20 distinct values
            raw = CensoredSample(z, rng.integers(0, 2, size=n))
            ordered = sort_with_concomitants(raw)
            for m in (1, 2, n // 2 + 1, n - 1, n, n + 3):
                if m < 1:
                    continue
                lo = max(n - m, 0)
                start = int(np.searchsorted(ordered.z, ordered.z[lo]))
                block = ordered.z == ordered.z[lo]
                straddled += bool(start < lo < n - 1 and block[lo + 1]
                                  and 0 < ordered.delta[block].sum() < block.sum())
                sliced = top_order_statistics(ordered, m)
                selected = top_order_statistics(raw, m)
                assert type(sliced) is SortedCensoredSample
                assert type(selected) is CensoredSample
                assert np.array_equal(sliced.z, ordered.z[start:])
                assert np.array_equal(sliced.delta, ordered.delta[start:])
                keep = raw.z >= ordered.z[lo]  # the same rows, in input order
                assert np.array_equal(selected.z, raw.z[keep])
                assert np.array_equal(selected.delta, raw.delta[keep])
                again = sort_with_concomitants(selected)
                assert np.array_equal(again.z, sliced.z)
                assert np.array_equal(again.delta, sliced.delta)
                for out in (sliced, selected):
                    assert out.delta.dtype == np.int8
                    assert not out.z.flags.writeable and not out.delta.flags.writeable
                if m >= n:
                    assert sliced is ordered and selected is raw
        assert straddled > 10

    def test_m_must_be_a_positive_integer(self):
        sample = CensoredSample(np.array([1.0, 2.0]), np.array([1, 0]))
        with pytest.raises(ValueError):
            top_order_statistics(sample, 0)
        with pytest.raises(TypeError):
            top_order_statistics(sample, 1.0)

    @pytest.mark.parametrize("sorted_", [False, True])
    def test_a_bool_m_is_refused(self, sorted_):
        # True is not the row count 1, as a bool k or sample size is not
        sample = CensoredSample(np.array([1.0, 2.0]), np.array([1, 0]))
        if sorted_:
            sample = sort_with_concomitants(sample)
        for m in (True, False):
            with pytest.raises(TypeError, match=f"m must be an integer, got {m}"):
                top_order_statistics(sample, m)


class TestValidation:
    def test_nonpositive_is_hard_error(self):
        with pytest.raises(NonPositiveObservation):
            CensoredSample(np.array([1.0, 0.0]), np.array([1, 1]))
        with pytest.raises(NonPositiveObservation):
            CensoredSample(np.array([1.0, -2.0]), np.array([1, 1]))
        with pytest.raises(NonPositiveObservation):
            CensoredSample(np.array([1.0, np.inf]), np.array([1, 1]))

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            CensoredSample(np.array([]), np.array([]))

    def test_indicator_outside_01(self):
        with pytest.raises(InvalidIndicator):
            CensoredSample(np.array([1.0]), np.array([2]))
        with pytest.raises(InvalidIndicator):
            CensoredSample(np.array([1.0]), np.array([0.5]))

    @pytest.mark.parametrize("z, delta, message", [
        (np.ones((2, 2)), np.ones((2, 2)), "one-dimensional"),
        (np.ones(3), np.ones(2), "lengths differ"),
    ], ids=["2-d", "unequal-lengths"])
    def test_shape_errors(self, z, delta, message):
        with pytest.raises(ValueError, match=message):
            CensoredSample(z, delta)

    def test_arrays_are_frozen(self):
        sample = CensoredSample(np.array([1.0, 2.0]), np.array([1, 0]))
        with pytest.raises(ValueError):
            sample.z[0] = 9.0


class TestReadCsv:
    def test_with_header(self):
        sample = read_csv(io.StringIO("value,delta\n1.5,1\n2.0,0\n"))
        _assert_rows(sample, [1.5, 2.0], [1, 0])

    def test_without_header_declared(self):
        sample = read_csv(io.StringIO("1.5,1\n2.0,0\n"), header=False)
        _assert_rows(sample, [1.5, 2.0], [1, 0])

    def test_header_autodetect(self):
        sample = read_csv(io.StringIO("1.5,1\n2.0,0\n"))
        assert sample.n == 2

    def test_invalid_indicator_row_number(self):
        with pytest.raises(InvalidIndicator) as err:
            read_csv(io.StringIO("1.5,2\n"))
        assert err.value.row == 1

    def test_parse_error_row_number(self):
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO("value,delta\n1.5,1\nabc,0\n"))
        assert err.value.row == 3

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO("1.5,1,9\n"))
        assert err.value.row == 1

    def test_nonpositive_value(self):
        with pytest.raises(NonPositiveObservation) as err:
            read_csv(io.StringIO("value,delta\n-3,1\n"))
        assert err.value.row == 2

    def test_header_only_is_empty(self):
        with pytest.raises(EmptySample):
            read_csv(io.StringIO("value,delta\n"))

    @pytest.mark.parametrize("first", ["abc,1", "1.5,abc", "value,1"])
    def test_malformed_first_row_is_not_a_header(self, first):
        # a first line is a header only when neither field is a number
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO(first + "\n2.0,0\n"))
        assert err.value.row == 1

    def test_field_over_the_csv_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_bytes(b"value,delta\n1.5,1\n1." + b"0" * 200_000 + b",1\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_csv(path)
        assert err.value.row == 3

    @pytest.mark.parametrize("content", [b"\xff\xfe1,1\n2,0\n", b"1.5,1\n2.0,\xe9\n"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path, content):
        path = tmp_path / "latin.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="not UTF-8"):
            read_csv(path)

    def test_a_path_that_looks_like_a_url_is_read_from_disk(self, tmp_path, monkeypatch):
        """numpy opens a name with a scheme and a host as a URL; the file at
        that relative path is read, and nothing is fetched."""
        import urllib.request

        fetched = []

        def no_fetch(url, *args, **kwargs):
            fetched.append(url)
            raise OSError("no fetching in tests")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "example.invalid").mkdir(parents=True)
        (tmp_path / "http:" / "example.invalid" / "s.csv").write_bytes(b"1.5,1\n2.0,0\n")
        name = "http://example.invalid/s.csv"
        assert samples._read_path_fast(name, None) is not None
        _assert_rows(read_csv(name), [1.5, 2.0], [1, 0])
        assert fetched == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,1\n2.0,0\n")
        _assert_rows(read_csv(path), [1.5, 2.0], [1, 0])

    def test_declared_header_consumes_first_line(self):
        # header=True even though the first line looks numeric
        sample = read_csv(io.StringIO("1.0,1\n2.0,0\n"), header=True)
        _assert_rows(sample, [2.0], [0])


def _outcome(read):
    """The sample ``read()`` returns, or its exception's type, row and text."""
    try:
        return read()
    except Exception as exc:
        return type(exc), getattr(exc, "row", None), str(exc)


def _scan(path, header, top=None):
    """The row scanner's reading of a file: a text stream never takes the
    vectorised pass."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return read_csv(fh, header=header, top=top)


def _assert_same_as_scanner(path, header):
    got = _outcome(lambda: read_csv(path, header=header))
    want = _outcome(lambda: _scan(path, header))
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, CensoredSample)
    for a, b in ((got.z, want.z), (got.delta, want.delta)):
        assert a.dtype == b.dtype
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


# each input either takes the vectorised pass (True) or falls back to the
# row scanner (False); either way it reads as the scanner reads it
_EDGE_INPUTS = [
    ("plain", b"value,delta\n1.5,1\n2.0,0\n", None, True),
    ("no header", b"1.5,1\n2.0,0\n", None, True),
    ("declared header", b"1.0,1\n2.0,0\n", True, True),
    ("declared absent", b"1.0,1\n2.0,0\n", False, True),
    ("blank lines", b"value,delta\n\n1.5,1\n\n\n2.0,0\n\n", None, True),
    ("crlf", b"value,delta\r\n1.5,1\r\n2.0,0\r\n", None, True),
    ("lone cr", b"value,delta\r1.5,1\r2.0,0\r", None, True),
    ("mixed ends", b"1.5,1\r\n2.0,0\r3.0,1\n", None, True),
    ("plus sign", b"+1.5,1\n", None, True),
    ("leading dot", b".5,1\n", None, True),
    ("trailing dot", b"5.,1\n", None, True),
    ("capital exponent", b"1E2,0\n", None, True),
    ("spaces and tabs", b" 1.5 ,\t1\t\n\t2.0\t, 0 \n", None, True),
    ("unicode spaces", "\u30001.5\xa0,1\x0b\n".encode(), None, True),
    ("delta spellings", b"1.5,1.0\n2.0,0e0\n3.0,-0\n4.0,+1\n", None, True),
    ("17 digits", b"0.10000000000000001,1\n1.7976931348623157e+308,0\n", None, True),
    ("no final newline", b"1.5,1\n2.0,0", None, True),
    ("bom and header", b"\xef\xbb\xbfvalue,delta\n1.5,1\n", None, True),
    ("bom and data", b"\xef\xbb\xbf1.5,1\n", None, True),
    ("quoted fields", b'1.5,1\n"2.5","1"\n', None, False),
    ("quoted header", b'"value","delta"\n1.5,1\n', None, False),
    ("quoted header over two lines", b'"val\nue",delta\n1.5,1\n', None, False),
    ("underscore", b"1_0,1\n", None, False),
    ("arabic digit", "\u0661,1\n".encode(), None, False),
    ("fullwidth digit", "1,\uff11\n".encode(), None, False),
    ("hex", b"0x10,1\n", None, False),
    ("nul in data", b"1.5,1\n2\x00,0\n", None, False),
    ("nul in header", b"val\x00ue,delta\n1.5,1\n", None, False),
    ("whitespace-only line", b"1.5,1\n \n2.0,0\n", None, False),
    ("tab-only line", b"1.5,1\n\t\n", None, False),
    ("blank line 1", b"\nvalue,delta\n1.5,1\n", None, False),
    ("blank line 1, declared header", b"\r\n1.0,1\n2.0,0\n", True, False),
    ("nan", b"nan,1\n", None, False),
    ("inf", b"1.5,1\ninf,0\n", None, False),
    ("overflow", b"1e400,1\n", None, False),
    ("underflow", b"1.5,1\n1e-400,1\n", None, False),
    ("zero", b"0,1\n", None, False),
    ("negative", b"value,delta\n-3,1\n", None, False),
    ("delta two", b"1.5,2\n", None, False),
    ("delta half", b"1.5,0.5\n", None, False),
    ("delta nan", b"1.5,nan\n", None, False),
    ("three fields", b"1.5,1,9\n", None, False),
    ("one field", b"1.5,1\n2.0\n", None, False),
    ("trailing comma", b"1.5,1,\n", None, False),
    ("empty fields", b"1.5,1\n,\n", None, False),
    ("malformed first row", b"abc,1\n2.0,0\n", None, False),
    ("text in row 3", b"value,delta\n1.5,1\nabc,0\n", None, False),
    ("header declared absent", b"value,delta\n1.5,1\n", False, False),
    ("header only", b"value,delta\n", None, False),
    ("header and blank lines", b"value,delta\r\n\r\n\n", None, False),
    ("empty file", b"", None, False),
    ("bom only", b"\xef\xbb\xbf", None, False),
    ("invalid utf-8", b"1.5,1\n\xff,0\n", None, False),
    ("field over the csv limit", b"1." + b"0" * 200_000 + b",1\n", None, False),
]


class TestReadCsvPath:
    @pytest.mark.parametrize("content, header, fast", [
        pytest.param(content, header, fast, id=name)
        for name, content, header, fast in _EDGE_INPUTS
    ])
    def test_edge_input_reads_as_the_scanner_reads_it(self, tmp_path, content,
                                                      header, fast):
        path = tmp_path / "edge.csv"
        path.write_bytes(content)
        assert (samples._read_path_fast(path, header) is not None) == fast
        _assert_same_as_scanner(path, header)
        _assert_same_as_scanner(str(path), header)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bound", ["block bytes", "field size limit", "default"])
    def test_a_line_past_the_block_bound_goes_to_the_scanner(self, tmp_path, monkeypatch,
                                                              bound, end):
        """Blocks hold at most B + 1 bytes, B = min(csv.field_size_limit(),
        _BLOCK_BYTES): the vectorised pass refuses a file exactly when one
        of its lines holds more than B bytes, and otherwise gives the
        scanner's rows, wherever the line stands."""
        limit = csv.field_size_limit()
        if bound == "block bytes":
            monkeypatch.setattr(samples, "_BLOCK_BYTES", 32)
        elif bound == "field size limit":
            csv.field_size_limit(40)
        most = min(csv.field_size_limit(), samples._BLOCK_BYTES)
        rows = [f"{i + 1.5!r},{i % 2}" for i in range(6)]
        layouts = {  # the lines before the long one, and after it
            "first": ([], ["", *rows, ""]),
            "middle": (["value,delta", "", *rows[:3], "", ""], [*rows[3:], ""]),
            "last": (["value,delta", *rows, "", ""], []),
            "before a cut": (["value,delta", "", *rows[:3]], ["", *rows[3:], ""]),
            "after a cut": (["value,delta", "", *rows[:3], ""], [*rows[3:], ""]),
        }
        path = tmp_path / "long.csv"
        try:
            for where, (before, after) in layouts.items():
                for length in (most - 1, most, most + 1):
                    long = "1." + "0" * (length - 4) + ",1"
                    head = end.join([*before, long]) + (end if after else "")
                    path.write_bytes((head + end.join(after)).encode())
                    with monkeypatch.context() as mp:
                        if "cut" in where:  # the long line ends one part or starts the next
                            cut = len(head) - (0 if where == "before a cut" else len(long + end))
                            mp.setattr(samples, "_processes", lambda wanted: 2)
                            mp.setattr(samples, "_byte_ranges",
                                       lambda path, size, parts: [(0, cut), (cut, None)])
                        refused = samples._read_path_fast(path, None) is None
                        assert refused == (length > most), (where, length)
                        _assert_same_as_scanner(path, None)
        finally:
            csv.field_size_limit(limit)

    def test_a_long_line_1_is_never_held_whole(self, tmp_path):
        """Line 1 is sniffed in the first block of at most B + 1 bytes, so a
        50 MB line 1 is refused without reading it whole; the scanner's
        error stands."""
        path = tmp_path / "long.csv"
        with open(path, "wb") as fh:
            fh.write(b"1.")
            for _ in range(50):
                fh.write(b"0" * 10**6)
            fh.write(b",1\n")
        tracemalloc.start()
        try:
            assert samples._read_path_fast(path, None) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_csv(path)
        assert err.value.row == 1

    @pytest.mark.parametrize("line", [1, 3])
    def test_a_long_line_is_never_held_whole_by_the_scanner(self, tmp_path, line):
        """The scanner reads a line by ``readline`` with a cap of 4 *
        csv.field_size_limit() + 8 characters, so a 50 MB line, read as a
        path or as a text stream, is a ParseError on its row below 2 MiB."""
        import concurrent.futures.process  # noqa: F401  the pool's modules load before the count

        path = tmp_path / "long.csv"
        with open(path, "wb") as fh:
            fh.write(b"value,delta\n1.5,1\n" if line == 3 else b"")
            fh.write(b"1.")
            for _ in range(50):
                fh.write(b"0" * 10**6)
            fh.write(b",1\n2.5,0\n")
        with open(path, "r", encoding="utf-8-sig", newline="") as stream:
            for source in (path, stream):
                tracemalloc.start()
                try:
                    with pytest.raises(ParseError, match="line longer than") as err:
                        read_csv(source, top=5)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2 * 2**20, (source, peak)
                assert err.value.row == line

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_up_to_the_cap_keep_the_readers_verdicts(self, tmp_path, end):
        """Every line of at most cap = 4 * csv.field_size_limit() + 8
        characters, its end included, goes to csv.reader: fields of limit - 1,
        limit and limit + 1 characters keep its verdicts, rows and texts, and
        so does a line of exactly the cap.  A header of two fields of exactly
        the limit, quoted with every quote doubled, still reads.  A line one
        character longer is the scanner's length error on its row."""
        limit = csv.field_size_limit()
        cap = 4 * limit + 8
        path = tmp_path / "bound.csv"

        def read(*lines):
            path.write_bytes("".join(line + end for line in lines).encode())
            _assert_same_as_scanner(path, None)
            return _outcome(lambda: read_csv(path))

        for length in (limit - 1, limit):
            _assert_rows(read("value,delta", "1." + "0" * (length - 2) + ",1", "2.5,0"),
                         [1.0, 2.5], [1, 0])
        assert read("value,delta", "1." + "0" * (limit - 1) + ",1", "2.5,0") == (
            ParseError, 2, f"row 2: field larger than field limit ({limit})")
        quoted = '"' + '""' * limit + '"'
        _assert_rows(read(quoted + "," + quoted, "1.5,1", "2.5,0"), [1.5, 2.5], [1, 0])
        fields = ("1," * cap)[:cap - len(end)]
        assert read("1.5,1", fields, "2.5,0") == (
            ParseError, 2, f"row 2: expected 2 fields, got {fields.count(',') + 1}")
        assert read("1.5,1", fields + "1", "2.5,0") == (
            ParseError, 2, f"row 2: line longer than {cap} characters, so a field larger "
            f"than field limit ({limit}) or more than 2 fields")

    def test_blocks_of_blank_lines_only_are_skipped(self, tmp_path, monkeypatch):
        """A block that holds only blank lines gives loadtxt no rows, and the
        blocks after it are still read."""
        path = tmp_path / "blank.csv"
        path.write_bytes(b"value,delta\n1.5,1\n" + b"\n" * 40 + b"2.5,0\r\n"
                         + b"\r\n" * 30 + b"3.5,1\n" + b"\r" * 20 + b"4.5,1")
        monkeypatch.setattr(samples, "_BLOCK_BYTES", 16)
        loadtxt, tables = np.loadtxt, []

        def counted(*args, **kwargs):
            tables.append(loadtxt(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(np, "loadtxt", counted)
        got = samples._read_path_fast(path, None)
        assert len(tables) >= 3 and any(table.size == 0 for table in tables[1:-1])
        _assert_rows(got, [1.5, 2.5, 3.5, 4.5], [1, 0, 1, 1])
        _assert_same_as_scanner(path, None)

    @pytest.mark.parametrize("block_bytes", [12, 1 << 17])
    def test_a_byte_order_mark_that_starts_a_later_block_is_the_scanners(
            self, tmp_path, monkeypatch, block_bytes):
        # with 12 bytes, the third block starts at the U+FEFF
        monkeypatch.setattr(samples, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"value,delta\n1.5,1\n\xef\xbb\xbf2.5,0\n3.5,1\n")
        assert samples._read_path_fast(path, None) is None
        with pytest.raises(ParseError, match="row 3"):
            read_csv(path)

    def test_header_only_file_raises_without_a_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        for text in ("value,delta\n", "value,delta\n\n\r\n"):
            path.write_text(text, encoding="utf-8", newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EmptySample):
                    read_csv(path)


_PADDING = st.sampled_from(["", "", "", " ", "\t", " \t ", "\x0b", "\xa0", "\u3000"])
_GOOD_VALUES = st.one_of(
    st.floats(1e-300, 1e300).map(repr),
    st.floats(1e-6, 1e6).map(lambda v: format(v, ".6g")),
    st.floats(1e-6, 1e6).map(lambda v: format(v, ".17e")),
    st.sampled_from(["1", "+1.5", ".5", "5.", "1E2", "007", "2.5e+3", "1e-300"]),
)
_BAD_VALUES = st.sampled_from([
    "", "abc", "0", "-1", "-0", "nan", "inf", "-inf", "Infinity", "1e400", "1e-400",
    "1_0", '"1.5"', "\u0661", "1\x00", "0x10", "1e", "--1", "1 2", "1,5",
])
_GOOD_DELTAS = st.sampled_from(["0", "1", "1.0", "0e0", "-0", "+1", "0.0", "1e0", "00"])
_BAD_DELTAS = st.sampled_from(["", "2", "0.5", "-1", "x", "nan", '"1"', "1_0", "\u0661"])


def _row(values, deltas):
    return st.tuples(_PADDING, values, _PADDING, _PADDING, deltas, _PADDING).map(
        lambda parts: "{}{}{},{}{}{}".format(*parts))


_GOOD_ROWS = _row(_GOOD_VALUES, _GOOD_DELTAS)
_BAD_ROWS = st.one_of(
    _row(_BAD_VALUES, _GOOD_DELTAS),
    _row(_GOOD_VALUES, _BAD_DELTAS),
    st.sampled_from(["", "", " ", "\t", "1.5", "1.5,1,1", "1.5,1,", ",", '"1.5",1',
                     '"2.5","0"']),
)


@st.composite
def _csv_texts(draw):
    """A ``value,delta`` text: mostly good rows, a few injected bad ones,
    with or without a header, byte-order mark and final line end; now and
    then every row has a third field."""
    extra = draw(st.sampled_from(["", "", "", ",1"]))
    lines = [row + extra for row in draw(st.lists(_GOOD_ROWS, max_size=12))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_ROWS))
    header = draw(st.sampled_from(
        [None, None, "value,delta", "z,d", "value,1", '"value","delta"', '"1.5","1"',
         '"val\nue",delta', ""]))
    if header is not None:
        lines.insert(0, header)
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ""
    for line in lines:
        end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends
        text += line + end
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts(), st.sampled_from([None, True, False]))
def test_path_read_matches_row_scanner(tmp_path, text, header):
    """read_csv on a path gives the row scanner's values, or its error and row."""
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_as_scanner(path, header)



@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts(), st.sampled_from([None, True, False]), st.sampled_from([1, 2, 3]),
       st.sampled_from([None, 1, 2, 3, 7]))
def test_block_read_matches_row_scanner(tmp_path, text, header, block, top):
    """read_csv on a path, a few rows per loadtxt block, with and without
    top, gives the row scanner's rows and their top, or its error and row."""
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samples, "_BLOCK_ROWS", block)
        mp.setattr(samples, "_BLOCK_BYTES", 48 * block)
        got = _outcome(lambda: read_csv(path, header=header, top=top))
    want = _outcome(lambda: _scan(path, header))
    if isinstance(want, tuple):
        assert got == want
        return
    if top is not None:
        assert isinstance(got, samples.TopRows) and got.n == want.n
        got, want = got.sample, top_order_statistics(want, top)
    assert isinstance(got, CensoredSample)
    assert got.z.tobytes() == want.z.tobytes()
    assert got.delta.tobytes() == want.delta.tobytes()


class TestReadCsvTop:
    @pytest.mark.parametrize("block", [1, 4, 7, 1 << 16])
    def test_top_rows_are_the_top_of_the_whole_sample(self, tmp_path, rng, monkeypatch,
                                                       block):
        # few distinct values, so tie blocks of mixed indicators straddle every cut
        monkeypatch.setattr(samples, "_BLOCK_ROWS", block)
        monkeypatch.setattr(samples, "_BLOCK_BYTES", 16 * block)
        z = rng.integers(1, 9, 60) / 4.0
        delta = rng.integers(0, 2, 60)
        text = "value,delta\n" + "".join(f"{v!r},{d}\n" for v, d in zip(z.tolist(), delta.tolist()))
        path, quoted = tmp_path / "ties.csv", tmp_path / "quoted.csv"
        path.write_text(text)
        quoted.write_text(_quoted(text))
        assert samples._read_path_fast(path, None) is not None  # in blocks of a few rows
        assert samples._read_path_fast(quoted, None) is None  # the scanner reads it
        # a path, a text stream and a quoted path: the last two go through the scanner
        for read in (lambda **kw: read_csv(path, **kw),
                     lambda **kw: read_csv(io.StringIO(text), **kw),
                     lambda **kw: read_csv(quoted, **kw)):
            whole = read()
            for m in (1, 2, 5, 17, 30, 59, 60, 61, 1000):
                got = read(top=m)
                want = top_order_statistics(whole, m)
                assert got.n == 60
                assert got.sample.z.tobytes() == want.z.tobytes()
                assert got.sample.delta.tobytes() == want.delta.tobytes()

    def test_the_scanner_keeps_only_a_running_top(self, monkeypatch):
        # 50 000 quoted rows in blocks of 500: the whole sample as Python
        # floats in lists would take about 2.4 MB
        monkeypatch.setattr(samples, "_BLOCK_ROWS", 500)
        n = 50_000
        stream = io.StringIO(_quoted("".join(f"{i + 0.5!r},{i % 2}\n" for i in range(n))))
        tracemalloc.start()
        try:
            got = read_csv(stream, top=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.n == n
        _assert_rows(got.sample, [n - 4.5, n - 3.5, n - 2.5, n - 1.5, n - 0.5], [1, 0, 1, 0, 1])
        assert peak < 500_000, peak

    def test_stream_and_fallback_keep_the_same_top(self, tmp_path):
        text = 'value,delta\n3,1\n"1",0\n3,0\n2,1\n3,1\n'
        path = tmp_path / "quoted.csv"
        path.write_text(text)
        assert samples._read_path_fast(path, None, 2) is None
        for got in (read_csv(path, top=2), read_csv(io.StringIO(text), top=2)):
            assert got.n == 5
            _assert_rows(got.sample, [3.0, 3.0, 3.0], [1, 0, 1])

    def test_errors_are_the_whole_files(self, tmp_path, monkeypatch):
        # a bad row below the top still fails the read, as the scanner reports it
        monkeypatch.setattr(samples, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(samples, "_BLOCK_BYTES", 16)
        path = tmp_path / "bad.csv"
        path.write_text("value,delta\n5,1\n6,1\n7,1\n1,2\n")
        with pytest.raises(InvalidIndicator):
            read_csv(path, top=1)
        path.write_text("value,delta\n5,1\n6,1\n7,1\nabc,0\n")
        with pytest.raises(ParseError, match="row 5"):
            read_csv(path, top=1)

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_is_refused(self, top):
        with pytest.raises(ValueError, match="top must be at least 1"):
            read_csv(io.StringIO("1.5,1\n"), top=top)

    @pytest.mark.parametrize("top", [True, False])
    def test_a_bool_top_is_refused(self, tmp_path, top):
        path = tmp_path / "s.csv"
        path.write_text("1.5,1\n2.0,0\n")
        for source in (path, io.StringIO("1.5,1\n2.0,0\n")):
            with pytest.raises(TypeError, match=f"top must be an integer, got {top}"):
                read_csv(source, top=top)


def _quoted(text):
    """``text`` with every field of every line in double quotes."""
    return "".join(",".join(f'"{field}"' for field in line.split(",")) + "\n"
                   for line in text.splitlines())


def _parted(monkeypatch, path, parts):
    """Let ``path`` split into up to ``parts`` parts: one per usable CPU,
    and parts of a ``parts``-th of the file."""
    monkeypatch.setattr(samples, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(samples, "_PART_BYTES", max(1, path.stat().st_size // parts))


def _scanned(data, header=None, top=None):
    """The row scanner's reading of the bytes ``data``, by way of a text
    stream."""
    return _outcome(lambda: read_csv(io.StringIO(data.decode("utf-8-sig"), newline=""),
                                     header=header, top=top))


def _assert_same_read(got, want):
    """Two read_csv outcomes hold the same n, z and delta, bit for bit, or
    the same error class, row and text."""
    assert type(got) is type(want)
    if isinstance(want, samples.TopRows):
        assert got.n == want.n
        got, want = got.sample, want.sample
    elif isinstance(want, tuple):
        assert got == want
        return
    assert got.z.tobytes() == want.z.tobytes()
    assert got.delta.tobytes() == want.delta.tobytes()


def _rows_text(rng, rows, distinct=None, blank=0, end="\n"):
    z = (rng.integers(1, distinct + 1, rows) / 4.0 if distinct
         else np.round(rng.pareto(1.0, rows) + 1.0, 6))
    delta = rng.integers(0, 2, rows)
    return "".join(f"{v!r},{d}{end}" + end * blank for v, d in zip(z.tolist(), delta.tolist()))


class TestReadCsvParts:
    """A file cut into parts parsed at the same time reads as the row scanner
    reads it; ``_PART_BYTES`` is shrunk so that small files split."""

    @pytest.mark.parametrize("parts", [2, 3, 4])
    @pytest.mark.parametrize("name, header, end, bom", [
        ("header present", True, "\n", ""),
        ("header absent", False, "\n", ""),
        ("header sniffed", None, "\n", ""),
        ("no header, sniffed", None, "\n", ""),
        ("crlf", None, "\r\n", ""),
        ("bom", None, "\n", "\ufeff"),
        ("bom, crlf, no header", None, "\r\n", "\ufeff"),
    ])
    def test_split_file_reads_as_the_scanner_reads_it(self, tmp_path, rng, monkeypatch,
                                                      parts, name, header, end, bom):
        text = _rows_text(rng, 80, end=end)
        if "no header" not in name and header is not False:
            text = "value,delta" + end + text
        data = (bom + text).encode()
        path = tmp_path / "parts.csv"
        path.write_bytes(data)
        _parted(monkeypatch, path, parts)
        for top in (None, 1, 7, 40, 80, 81, 1000):
            notes = {}
            got = samples._read_path_fast(path, header, top, notes)
            assert notes["parts"] == parts
            _assert_same_read(got, _scanned(data, header, top))
            _assert_same_read(_outcome(lambda: read_csv(path, header=header, top=top)), got)

    def test_lone_cr_line_ends_stay_in_one_part(self, tmp_path, rng, monkeypatch):
        data = ("value,delta\r" + _rows_text(rng, 60, end="\r")).encode()
        path = tmp_path / "cr.csv"
        path.write_bytes(data)
        _parted(monkeypatch, path, 2)
        notes = {}
        got = samples._read_path_fast(path, None, 5, notes)
        assert notes["parts"] == 1
        _assert_same_read(got, _scanned(data, None, 5))

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_mixed_line_ends_and_blank_lines_at_the_cuts(self, tmp_path, rng, monkeypatch,
                                                          parts):
        """Two blank lines follow each row, so cuts land on blank lines; lone
        \\r line ends inside a part are counted as lines."""
        mixed = "5,1\r6,0\r\r\n7,1\r\n"
        text = "value,delta\n" + mixed.join(_rows_text(rng, 10, blank=2) for _ in range(4))
        data = text.encode()
        path = tmp_path / "blank.csv"
        path.write_bytes(data)
        _parted(monkeypatch, path, parts)
        ranges = samples._byte_ranges(path, len(data), parts)
        assert len(ranges) == parts
        assert any(data[start:start + 1] == b"\n" for start, _ in ranges[1:])
        assert any(b"1\r6,0\r\r\n" in data[start:stop] for start, stop in ranges[:-1])
        for top in (None, 3, 31):
            notes = {}
            _assert_same_read(samples._read_path_fast(path, None, top, notes),
                              _scanned(data, None, top))
            assert notes["parts"] == parts

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_tie_blocks_across_the_cuts_keep_the_whole_files_top(self, tmp_path, rng,
                                                                 monkeypatch, parts):
        # three distinct values, so tie blocks of mixed indicators span every cut
        data = ("value,delta\n" + _rows_text(rng, 90, distinct=3)).encode()
        path = tmp_path / "ties.csv"
        path.write_bytes(data)
        _parted(monkeypatch, path, parts)
        monkeypatch.setattr(samples, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(samples, "_BLOCK_BYTES", 32)
        assert samples._read_path_fast(path, None) is not None
        for top in (None, 1, 2, 5, 17, 30, 45, 89, 90, 91, 1000):
            got = _outcome(lambda: read_csv(path, top=top))
            _assert_same_read(got, _scanned(data, None, top))

    @pytest.mark.parametrize("bad, error, row", [
        (b"abc,0\n", ParseError, 2002),
        (b"1.5,2\n", InvalidIndicator, 2002),
        (b"-1,1\n", NonPositiveObservation, 2002),
        (b"1.5,\xe9\n", ParseError, None),
        (b"1." + b"0" * 200_000 + b",1\n", ParseError, 2002),
        (b"\xef\xbb\xbf1.5,1\n", ParseError, 2002),
    ], ids=["malformed", "indicator", "negative", "not utf-8", "over-long", "inner bom"])
    @pytest.mark.parametrize("bad_row_starts_the_part", [False, True])
    def test_an_error_in_the_last_part_is_the_scanners(self, tmp_path, rng, monkeypatch,
                                                       bad, error, row,
                                                       bad_row_starts_the_part):
        # past the first line's read-ahead, and past the first part's
        head = ("value,delta\n" + _rows_text(rng, 2000)).encode()
        data = head + bad + b"2.5,1\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        cut = len(head) if bad_row_starts_the_part else head.index(b"\n", len(head) // 2) + 1
        monkeypatch.setattr(samples, "_processes", lambda wanted: 2)
        monkeypatch.setattr(samples, "_byte_ranges",
                            lambda path, size, parts: [(0, cut), (cut, None)])
        notes = {}
        assert samples._read_path_fast(path, None, 3, notes) is None
        assert notes["parts"] == 2
        got = _outcome(lambda: read_csv(path, top=3))
        assert got[:2] == (error, row)
        assert got == _outcome(lambda: _scan(path, None, top=3))

    @pytest.mark.parametrize("failure", ["start", "submit", "result"])
    def test_a_pool_that_fails_gives_the_one_part_read(self, tmp_path, rng, monkeypatch,
                                                       failure):
        from concurrent.futures.process import BrokenProcessPool

        class FailingPool:
            def __init__(self, *args, **kwargs):
                if failure == "start":
                    raise OSError("no processes")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                if failure == "submit":
                    raise BrokenProcessPool("a worker died")
                return self

            def result(self):
                raise BrokenProcessPool("a worker died")

        data = ("value,delta\n" + _rows_text(rng, 60)).encode()
        path = tmp_path / "pool.csv"
        path.write_bytes(data)
        _parted(monkeypatch, path, 2)
        serial = {top: samples._read_path_fast(path, None, top) for top in (None, 4)}
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        for top in (None, 4):
            notes = {}
            got = samples._read_path_fast(path, None, top, notes)
            assert notes["parts"] == 1 and "process pool failed" in notes["reason"]
            _assert_same_read(got, serial[top])
            _assert_same_read(got, _scanned(data, None, top))

    def test_no_worker_outlives_a_read(self, tmp_path, rng, monkeypatch):
        import multiprocessing

        path = tmp_path / "good.csv"
        text = "value,delta\n" + _rows_text(rng, 60)
        path.write_text(text)
        _parted(monkeypatch, path, 2)
        assert read_csv(path, top=3).n == 60
        assert multiprocessing.active_children() == []
        path.write_text(text + "abc,1\n")
        with pytest.raises(ParseError, match="row 62"):
            read_csv(path, top=3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad_part", [0, 1])
    def test_a_refused_part_stops_the_other_within_one_block(self, tmp_path, rng,
                                                             monkeypatch, bad_part):
        """The refused part sets ``samples._STOP``; from then on the other part
        parses at most the one loadtxt block it is on.  Each call is logged
        with its process and whether the event was set."""
        import multiprocessing
        import os

        monkeypatch.setattr(samples, "_BLOCK_BYTES", 1 << 12)
        lines = ["value,delta\n", *_rows_text(rng, 10_000).splitlines(keepends=True)]
        # a bad row on line 3, or on the first line of the second part
        lines.insert(2 if bad_part == 0 else 5001, "abc,1\n")
        cut = len("".join(lines[:5001]))
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        log = tmp_path / "calls.txt"
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {int(samples._STOP.is_set())}\n")
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        monkeypatch.setattr(samples, "_processes", lambda wanted: 2)
        monkeypatch.setattr(samples, "_byte_ranges",
                            lambda path, size, parts: [(0, cut), (cut, None)])
        notes = {}
        assert samples._read_path_fast(path, None, 3, notes) is None
        assert notes["parts"] == 2
        calls = [line.split() for line in log.read_text().splitlines()]
        assert calls
        for pid in {pid for pid, _ in calls}:
            assert sum(int(after) for p, after in calls if p == pid) <= 1, calls
        assert multiprocessing.active_children() == []
        assert samples._STOP is None

    def test_no_stop_event_outlives_its_read(self, tmp_path, rng, monkeypatch):
        """A refused read in parts leaves no event behind: the good file after
        it reads in parts and in one part, on the vectorised pass."""
        import multiprocessing

        text = "value,delta\n" + _rows_text(rng, 200)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(text)
        bad.write_text(text + "abc,1\n")
        _parted(monkeypatch, good, 2)
        for path, parts in ((bad, 2), (good, 2), (bad, 2), (good, 1)):
            if parts == 1:
                monkeypatch.setattr(samples, "_PART_BYTES", 1 << 30)
            notes = {}
            got = samples._read_path_fast(path, None, 5, notes)
            assert (got is None, notes["parts"]) == (path == bad, parts)
            assert samples._STOP is None
            assert multiprocessing.active_children() == []

    def test_one_part_without_fork_with_threads_or_in_a_daemon(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(samples, "_usable_cpus", lambda: 4)
        size = 4 * samples._PART_BYTES
        offered = multiprocessing.get_all_start_methods()
        forks = sys.platform == "linux" and "fork" in offered or offered[0] == "fork"
        assert samples._processes(size // samples._PART_BYTES) == (4 if forks else 1)
        assert samples._processes((size - 3 * samples._PART_BYTES) // samples._PART_BYTES) == 1
        with monkeypatch.context() as mp:
            mp.setattr(multiprocessing, "get_start_method", lambda allow_none=False: "spawn")
            assert samples._processes(size // samples._PART_BYTES) == 1

        with monkeypatch.context() as mp:
            mp.setattr(samples.threading, "active_count", lambda: 2)
            assert samples._processes(size // samples._PART_BYTES) == 1

        class Daemon:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process", lambda: Daemon())
        assert samples._processes(size // samples._PART_BYTES) == 1

    def test_no_start_method_set_forks_on_linux_only(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(samples, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: None)
        for platform, offered, processes in [
                ("linux", ["forkserver", "spawn", "fork"], 3),  # Python 3.14 on
                ("linux", ["fork", "spawn", "forkserver"], 3),  # Python 3.13 and before
                ("linux", ["spawn", "forkserver"], 1),
                ("darwin", ["spawn", "fork", "forkserver"], 1),
                ("win32", ["spawn"], 1)]:
            monkeypatch.setattr(samples.sys, "platform", platform)
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: offered)
            assert samples._processes(3) == processes, platform
        monkeypatch.setattr(samples.sys, "platform", "linux")  # a method set decides
        for method, processes in (("spawn", 1), ("forkserver", 1), ("fork", 3)):
            monkeypatch.setattr(multiprocessing, "get_start_method",
                                lambda allow_none=False: method)
            assert samples._processes(3) == processes, method

    def test_usable_cpus_count_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(samples.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(samples.os, "cpu_count", lambda: 64)
        assert samples._usable_cpus() == 3
        monkeypatch.delattr(samples.os, "sched_getaffinity")
        assert samples._usable_cpus() == 64
        monkeypatch.setattr(samples.os, "cpu_count", lambda: None)
        assert samples._usable_cpus() == 1

    def test_each_read_logs_one_debug_event(self, tmp_path, rng, monkeypatch, caplog, capsys):
        path = tmp_path / "log.csv"
        path.write_text("value,delta\n" + _rows_text(rng, 60))
        _parted(monkeypatch, path, 2)
        caplog.set_level(logging.DEBUG, logger="censtail")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('"value","delta"\n1.5,1\n')
        read_csv(path, top=3)
        read_csv(quoted)
        read_csv(io.StringIO("1.5,1\n"))
        with pytest.raises(ParseError):
            read_csv(io.StringIO("abc,1\n"))
        events = [record.read_csv for record in caplog.records]
        assert [record.name for record in caplog.records] == ["censtail"] * 4
        assert [record.levelno for record in caplog.records] == [logging.DEBUG] * 4
        fast, quote, stream, error = events
        assert fast["path"] == "fast" and fast["reason"] is None
        assert (fast["parts"], fast["rows"], fast["bytes"]) == (2, 60, path.stat().st_size)
        assert quote["path"] == "scanner" and "quote" in quote["reason"]
        assert (quote["parts"], quote["rows"]) == (1, 1)
        assert stream["path"] == "scanner" and stream["reason"] == "a text stream"
        assert stream["bytes"] is None and stream["rows"] == 1
        assert error["rows"] is None
        assert all(event["seconds"] >= 0 for event in events)
        assert "path=fast" in caplog.records[0].getMessage()
        assert capsys.readouterr() == ("", "")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts(), st.sampled_from([None, True, False]), st.integers(2, 4),
       st.sampled_from([None, 1, 2, 7]))
def test_split_read_matches_row_scanner(tmp_path, text, header, parts, top):
    """read_csv on a path cut into up to four parts gives the row scanner's
    rows and their top, or its error and row."""
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        _parted(mp, path, parts)
        mp.setattr(samples, "_BLOCK_ROWS", 2)
        mp.setattr(samples, "_BLOCK_BYTES", 48)
        got = _outcome(lambda: read_csv(path, header=header, top=top))
    want = _outcome(lambda: _scan(path, header))
    if isinstance(want, tuple):
        assert got == want
        return
    if top is not None:
        want = samples.TopRows(want.n, top_order_statistics(want, top))
    _assert_same_read(got, want)


class TestWriteCsv:
    def test_empty_table_is_header_only(self):
        assert render_csv(Table(("k", "est"), ())) == "k,est\n"

    def test_single_row(self):
        text = render_csv(Table(("k", "est", "yes", "no"), ((10, 0.4, True, np.bool_(False)),)))
        lines = text.splitlines()
        assert lines[0] == "k,est,yes,no"
        k, est, yes, no = lines[1].split(",")
        assert k == "10"
        assert float(est) == 0.4
        assert (yes, no) == ("1", "0")

    def test_none_is_empty_cell(self):
        text = render_csv(Table(("k", "est"), ((10, None),)))
        assert text.splitlines()[1] == "10,"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Table(("a", "b"), ((1,),))

    def test_round_trip_random_table_bit_exact(self, rng):
        for trial in range(10):
            values = rng.standard_cauchy((8, 3)) * 10.0 ** rng.integers(-8, 8)
            table = Table(("a", "b", "c"), tuple(map(tuple, values)))
            columns, *rows = csv.reader(io.StringIO(render_csv(table)))
            assert columns == ["a", "b", "c"]
            recovered = np.array([[float(cell) for cell in row] for row in rows])
            assert np.array_equal(recovered, values)

    def test_sample_write_read_identity(self, rng, tmp_path):
        path = tmp_path / "sample.csv"
        for _ in range(10):
            sample = make_censored(rng, n=int(rng.integers(1, 80)))
            path.write_text(_table_csv(sample), encoding="utf-8", newline="")
            back = read_csv(path)
            assert np.array_equal(back.z, sample.z)
            assert np.array_equal(back.delta, sample.delta)

    def test_sample_write_read_identity_at_1e5_rows(self, rng, tmp_path):
        path = tmp_path / "sample.csv"
        sample = make_censored(rng, n=100_000, allow_ties=True)
        path.write_text(_table_csv(sample), encoding="utf-8", newline="")
        back = read_csv(path)
        assert back.z.tobytes() == sample.z.tobytes()
        assert back.delta.tobytes() == sample.delta.tobytes()
