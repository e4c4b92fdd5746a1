import datetime as dt
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmfolio.errors import DataError
from gbmfolio.market_data import (
    PricePanel,
    PriceSeries,
    align_panel,
    load_csv,
    slice_panel,
    slice_period,
)
from gbmfolio.portfolio import Weights, portfolio_value_series

from conftest import series, trading_days

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(HEADER)
        for date, price in rows:
            fh.write(f"{date},{price},{price},{price},{price},{price},0\n")


class TestLoadCsv:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [("2019-01-02", "10.0"), ("2019-01-03", "10.5")])
        s = load_csv(path, "A")
        assert len(s) == 2
        assert s.ticker == "A"
        assert list(s.prices) == [10.0, 10.5]

    def test_unparsable_price_row_dropped(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        rows = [(f"2019-01-{d:02d}", "10.0") for d in (2, 3, 4, 7, 8)]
        rows[2] = ("2019-01-04", "null")
        write_csv(path, rows)
        assert len(load_csv(path, "A")) == 4
        # the header is line 1, so row 2 is line 4
        assert capsys.readouterr().err == "warning: A: dropping line 4: unparseable date or price\n"

    def test_single_valid_row_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [("2019-01-02", "10.0")])
        with pytest.raises(DataError, match="insufficient"):
            load_csv(path, "A")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv", "A")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path, "A")

    def test_nonpositive_price_dropped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        write_csv(path, [("2019-01-02", "10.0"), ("2019-01-03", "-1.0"), ("2019-01-04", "11.0")])
        assert len(load_csv(path, "A")) == 2
        assert capsys.readouterr().err == "warning: A: dropping non-positive price on 2019-01-03\n"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_price_dropped_with_its_own_warning(self, tmp_path, capsys, bad):
        path = tmp_path / "a.csv"
        write_csv(path, [("2019-01-02", "10.0"), ("2019-01-03", bad), ("2019-01-04", "11.0")])
        assert len(load_csv(path, "A")) == 2
        assert capsys.readouterr().err == "warning: A: dropping non-finite price on 2019-01-03\n"

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, [("2019-01-03", "11.0"), ("2019-01-02", "10.0")])
        s = load_csv(path, "A")
        assert s.dates[0] < s.dates[1]
        assert list(s.prices) == [10.0, 11.0]

    def test_shuffled_duplicates_load_like_sorted(self, tmp_path, capsys):
        # each date appears 1-3 times, its rows in file order; the first one is kept
        days = [f"2019-{m:02d}-{d:02d}" for m in (1, 2, 3) for d in range(1, 29)]
        rng = random.Random(7)
        rows = [(day, f"{10 + i + k / 10}") for i, day in enumerate(days)
                for k in range(rng.randint(1, 3))]
        order = {day: rng.random() for day in days}
        shuffled = sorted(rows, key=lambda r: order[r[0]])  # stable: same-date rows keep order
        assert shuffled != rows
        loaded = {}
        for name, content in (("sorted", rows), ("shuffled", shuffled)):
            write_csv(tmp_path / f"{name}.csv", content)
            s = load_csv(tmp_path / f"{name}.csv", "A")
            loaded[name] = s, capsys.readouterr().err.splitlines()
        (a, warned_a), (b, warned_b) = loaded["sorted"], loaded["shuffled"]
        assert a.dates == b.dates == tuple(dt.date.fromisoformat(d) for d in days)
        assert np.array_equal(a.prices, b.prices)
        assert list(a.prices) == [10.0 + i for i in range(len(days))]
        assert warned_a == warned_b
        assert len(warned_a) == len(rows) - len(days)
        assert all(w.startswith("warning: A: duplicate date ") for w in warned_a)

    def test_files_share_date_objects(self, tmp_path):
        days = [f"2019-01-{d:02d}" for d in range(2, 12)]
        write_csv(tmp_path / "a.csv", [(d, "10.0") for d in days])
        write_csv(tmp_path / "b.csv", [(d, "20.0") for d in days[::-1]])
        a, b = load_csv(tmp_path / "a.csv", "A"), load_csv(tmp_path / "b.csv", "B")
        assert all(x is y for x, y in zip(a.dates, b.dates, strict=True))

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(HEADER.encode() + b"2019-01-02,1,1,1,1,\xff10.0,0\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(path, "A")

    def test_oversized_field_is_data_error(self, tmp_path):
        # longer than the csv module's field size limit
        path = tmp_path / "a.csv"
        path.write_text(HEADER + "2019-01-02,1,1,1,1,\"" + "1" * 200_000 + "\",0\n")
        with pytest.raises(DataError, match="CSV"):
            load_csv(path, "A")


# a line of a price file: mostly well-formed, sometimes not
CSV_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["2019-01-02", "2019-01-03", "2019-01-04", "2019-13-01", "", "x"]),
        st.sampled_from(["10.0", "-1", "0", "nan", "inf", "1e999", "", "abc"]),
    ).map(lambda r: f"{r[0]},{r[1]}"),
    st.text(max_size=30),
)
CSV_FILES = st.one_of(
    st.binary(max_size=300),
    st.lists(CSV_LINE, max_size=8).map(lambda ls: "Date,Adj Close\n" + "\n".join(ls)),
    st.text(max_size=200),
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hypothesis") / "input.csv"


@settings(max_examples=300, deadline=None)
@given(content=CSV_FILES)
def test_load_csv_accepts_or_raises_data_error(input_file, content):
    if isinstance(content, str):
        content = content.encode("utf-8", "surrogatepass")
    input_file.write_bytes(content)
    try:
        s = load_csv(input_file, "A")
    except DataError:
        return
    assert len(s) >= 2
    assert all(a < b for a, b in zip(s.dates, s.dates[1:]))


class TestPriceSeriesInvariants:
    def test_rejects_short(self):
        with pytest.raises(DataError):
            series([10.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            series([10.0, 0.0])

    def test_rejects_duplicate_dates(self):
        days = trading_days(2)
        with pytest.raises(DataError):
            PriceSeries("A", (days[0], days[0]), np.array([1.0, 2.0]))


class TestPricePanelInvariants:
    @pytest.mark.parametrize("days", [(5, 2, 3, 4), (2, 3, 3, 4)])
    def test_rejects_dates_not_strictly_increasing(self, days):
        # an unordered axis would be bisected by slice_panel as if it were sorted
        dates = tuple(dt.date(2019, 1, d) for d in days)
        with pytest.raises(DataError, match="not strictly increasing"):
            PricePanel(("A",), dates, np.ones((4, 1)))


class TestAlignPanel:
    def test_identical_dates(self):
        a, b = series([1, 2, 3], "A"), series([4, 5, 6], "B")
        panel = align_panel([a, b])
        assert panel.tickers == ("A", "B")
        assert panel.dates == a.dates
        assert panel.matrix.shape == (3, 2)

    def test_intersection(self):
        days = trading_days(4)
        a = PriceSeries("A", days[:3], np.array([1.0, 2.0, 3.0]))
        b = PriceSeries("B", days[1:], np.array([4.0, 5.0, 6.0]))
        panel = align_panel([a, b])
        assert panel.dates == days[1:3]
        assert list(panel.matrix[:, 0]) == [2.0, 3.0]
        assert list(panel.matrix[:, 1]) == [4.0, 5.0]

    def test_disjoint_dates(self):
        a = series([1, 2], start=dt.date(2019, 1, 2))
        b = series([1, 2], start=dt.date(2020, 1, 2))
        with pytest.raises(DataError, match="no common dates"):
            align_panel([a, b])

    def test_order_invariant_up_to_columns(self, rng):
        days = trading_days(30)
        cols = [PriceSeries(f"T{i}", days, rng.uniform(1, 10, 30)) for i in range(4)]
        p1 = align_panel(cols)
        p2 = align_panel(cols[::-1])
        assert p1.dates == p2.dates
        for i, t in enumerate(p1.tickers):
            j = p2.tickers.index(t)
            assert np.array_equal(p1.matrix[:, i], p2.matrix[:, j])
        assert set(p1.dates) <= set(cols[0].dates)


class TestNormalizeBase100:
    """The paper's base-100 rule: one asset held with capital 100 (portfolio_value_series)."""

    @staticmethod
    def base100(s):
        return portfolio_value_series(align_panel([s]), Weights([1.0]), 100.0)

    def test_paper_rule(self):
        assert list(self.base100(series([20, 25, 30])).prices) == [100.0, 125.0, 150.0]

    def test_identity(self):
        assert list(self.base100(series([100, 100])).prices) == [100.0, 100.0]

    def test_derived_pair(self):
        assert list(self.base100(series([8, 2])).prices) == [100.0, 25.0]

    def test_idempotent(self, rng):
        once = self.base100(series(rng.uniform(3, 50, 40)))
        twice = self.base100(once)
        assert np.array_equal(once.prices, twice.prices)

    def test_preserves_simple_returns(self, rng):
        s = series(rng.uniform(3, 50, 40))
        out = self.base100(s)
        before = s.prices[1:] / s.prices[:-1] - 1.0
        after = out.prices[1:] / out.prices[:-1] - 1.0
        assert np.allclose(before, after, rtol=1e-12)


class TestSlicePeriod:
    def test_full_range_identity(self):
        s = series([1, 2, 3, 4, 5])
        out = slice_period(s, s.dates[0], s.dates[-1])
        assert out.dates == s.dates
        assert np.array_equal(out.prices, s.prices)

    def test_partial(self):
        s = series([1, 2, 3, 4, 5])
        out = slice_period(s, s.dates[1], s.dates[3])
        assert len(out) == 3
        assert list(out.prices) == [2.0, 3.0, 4.0]

    def test_empty_window(self):
        s = series([1, 2, 3])
        with pytest.raises(DataError):
            slice_period(s, dt.date(2030, 1, 1), dt.date(2030, 2, 1))


# windows and axes over a few weeks of calendar days, bounds on or off the axis
DAY0 = dt.date(2019, 1, 1)
AXES = st.sets(st.integers(0, 40), min_size=2, max_size=30).map(
    lambda offsets: tuple(DAY0 + dt.timedelta(days=k) for k in sorted(offsets))
)
BOUNDS = st.integers(-5, 45).map(lambda k: DAY0 + dt.timedelta(days=k))


@settings(max_examples=300, deadline=None)
@given(dates=AXES, start=BOUNDS, end=BOUNDS)
def test_slices_match_a_scan_of_every_date(dates, start, end):
    prices = np.arange(1.0, len(dates) + 1)
    s = PriceSeries("A", dates, prices)
    panel = PricePanel(("A", "B"), dates, np.column_stack((prices, 2 * prices)))
    keep = [i for i, d in enumerate(dates) if start <= d <= end]
    if start > end or len(keep) < 2:
        with pytest.raises(DataError):
            slice_period(s, start, end)
        with pytest.raises(DataError):
            slice_panel(panel, start, end)
        return
    window = tuple(dates[i] for i in keep)
    out = slice_period(s, start, end)
    assert out.dates == window
    assert np.array_equal(out.prices, prices[keep])
    out = slice_panel(panel, start, end)
    assert out.dates == window
    assert np.array_equal(out.matrix, panel.matrix[keep, :])


@settings(max_examples=200, deadline=None)
@given(axes=st.lists(AXES, min_size=1, max_size=4))
def test_align_panel_matches_a_lookup_of_every_date(axes):
    cols = [
        PriceSeries(f"T{j}", dates, np.arange(1.0, len(dates) + 1) + 100 * j)
        for j, dates in enumerate(axes)
    ]
    common = sorted(set(axes[0]).intersection(*axes[1:]))
    if not common:
        with pytest.raises(DataError, match="no common dates"):
            align_panel(cols)
        return
    panel = align_panel(cols)
    assert panel.dates == tuple(common)
    for j, s in enumerate(cols):
        price = dict(zip(s.dates, s.prices))
        assert list(panel.matrix[:, j]) == [price[d] for d in common]
