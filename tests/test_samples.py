import io

import numpy as np
import pytest

from censtail import (
    CensoredSample,
    CsvFormat,
    SortedCensoredSample,
    Table,
    kaplan_meier_survival,
    read_csv,
    read_table,
    render_csv,
    sort_with_concomitants,
    write_csv,
)
from censtail.errors import (
    EmptySample,
    InvalidIndicator,
    NonPositiveObservation,
    ParseError,
)
from conftest import make_censored


class TestSorting:
    def test_basic_order_with_concomitants(self):
        sample = CensoredSample.from_pairs([(2, 0), (1, 1), (4, 1)])
        out = sort_with_concomitants(sample)
        assert out.z.tolist() == [1.0, 2.0, 4.0]
        assert out.delta.tolist() == [1, 0, 1]

    def test_tie_rule_uncensored_first(self):
        out = sort_with_concomitants(CensoredSample.from_pairs([(3, 0), (3, 1)]))
        assert out.z.tolist() == [3.0, 3.0]
        assert out.delta.tolist() == [1, 0]

    def test_singleton(self):
        out = sort_with_concomitants(CensoredSample.from_pairs([(1, 1)]))
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
        with pytest.raises(EmptySample):
            CensoredSample.from_pairs([])

    def test_indicator_outside_01(self):
        with pytest.raises(InvalidIndicator):
            CensoredSample(np.array([1.0]), np.array([2]))
        with pytest.raises(InvalidIndicator):
            CensoredSample(np.array([1.0]), np.array([0.5]))

    def test_arrays_are_frozen(self):
        sample = CensoredSample(np.array([1.0, 2.0]), np.array([1, 0]))
        with pytest.raises(ValueError):
            sample.z[0] = 9.0


class TestReadCsv:
    def test_with_header(self):
        sample = read_csv(io.StringIO("value,delta\n1.5,1\n2.0,0\n"))
        assert sample.pairs() == [(1.5, 1), (2.0, 0)]

    def test_without_header_declared(self):
        sample = read_csv(io.StringIO("1.5,1\n2.0,0\n"), CsvFormat(header=False))
        assert sample.pairs() == [(1.5, 1), (2.0, 0)]

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,1\n2.0,0\n")
        assert read_csv(path).pairs() == [(1.5, 1), (2.0, 0)]
        path.write_bytes(b"\xef\xbb\xbfk,hill\n1,0.5\n")
        assert read_table(path).columns == ("k", "hill")

    def test_declared_header_consumes_first_line(self):
        # header=True even though the first line looks numeric
        sample = read_csv(io.StringIO("1.0,1\n2.0,0\n"), CsvFormat(header=True))
        assert sample.pairs() == [(2.0, 0)]


class TestWriteCsv:
    def test_empty_table_is_header_only(self):
        assert render_csv(Table(("k", "est"), ())) == "k,est\n"

    def test_single_row(self):
        text = render_csv(Table(("k", "est"), ((10, 0.4),)))
        lines = text.splitlines()
        assert lines[0] == "k,est"
        k, est = lines[1].split(",")
        assert k == "10"
        assert float(est) == 0.4

    def test_none_is_empty_cell(self):
        text = render_csv(Table(("k", "est"), ((10, None),)))
        assert text.splitlines()[1] == "10,"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Table(("a", "b"), ((1,),))

    def test_round_trip_random_table_bit_exact(self, rng, tmp_path):
        path = tmp_path / "table.csv"
        for trial in range(10):
            values = rng.standard_cauchy((8, 3)) * 10.0 ** rng.integers(-8, 8)
            table = Table(("a", "b", "c"), tuple(map(tuple, values)))
            write_csv(table, path)
            back = read_table(path)
            assert back.columns == ("a", "b", "c")
            recovered = np.array(
                [[float(cell) for cell in row] for row in back.rows]
            )
            assert np.array_equal(recovered, values)

    def test_sample_write_read_identity(self, rng, tmp_path):
        path = tmp_path / "sample.csv"
        for _ in range(10):
            sample = make_censored(rng, n=int(rng.integers(1, 80)))
            table = Table(
                ("value", "delta"),
                tuple(zip(sample.z.tolist(), sample.delta.tolist())),
            )
            write_csv(table, path)
            back = read_csv(path)
            assert np.array_equal(back.z, sample.z)
            assert np.array_equal(back.delta, sample.delta)
