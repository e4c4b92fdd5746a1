import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmfolio.config import RunConfig, load_config, parse_horizons
from gbmfolio.errors import DataError
from gbmfolio.evaluation import HorizonSpec


class TestParseHorizons:
    def test_valid_list(self):
        assert parse_horizons("1w:5, 1y:247") == (HorizonSpec("1w", 5), HorizonSpec("1y", 247))

    def test_label_is_stripped(self):
        assert parse_horizons(" 1w :5") == (HorizonSpec("1w", 5),)

    @pytest.mark.parametrize("text", [":5", " :5", "1w:5,:10", "1w", "1w:", "1w:x", "1w:0", ""])
    def test_rejected(self, text):
        with pytest.raises(DataError):
            parse_horizons(text)


class TestRunConfig:
    def test_repeated_days_under_distinct_labels_accepted(self):
        horizons = (HorizonSpec("week", 5), HorizonSpec("1w", 5))
        assert RunConfig(horizons=horizons).horizons == horizons


class TestLoadConfig:
    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run\nseed = 7\n\nhorizons = 1w:5  # short\n")
        config = load_config(path)
        assert config.seed == 7
        assert config.horizons == (HorizonSpec("1w", 5),)

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 7\n\xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_config(path)


HORIZON_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(
        st.tuples(st.text(max_size=4), st.sampled_from(["", ":", "::"]), st.text("0123456789-x ", max_size=4)),
        max_size=4,
    ).map(lambda parts: ",".join(a + b + c for a, b, c in parts)),
)


@settings(max_examples=300, deadline=None)
@given(text=HORIZON_TEXT)
def test_parse_horizons_accepts_or_raises_data_error(text):
    try:
        specs = parse_horizons(text)
    except DataError:
        return
    assert specs and all(h.label and h.days >= 1 for h in specs)


CONFIG_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["seed", "n_paths", "risk_free", "horizons", "calibration_end", "bogus"]),
        st.sampled_from(["=", ""]),
        st.sampled_from(["7", "-1", "0", "abc", "1w:5", ":5", "2018-12-31", "0.02", ""]),
    ).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.text(max_size=30),
)
CONFIG_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(CONFIG_LINE, max_size=6).map("\n".join),
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hypothesis") / "run.cfg"


@settings(max_examples=300, deadline=None)
@given(content=CONFIG_FILES)
def test_load_config_accepts_or_raises_data_error(input_file, content):
    if isinstance(content, str):
        content = content.encode("utf-8", "surrogatepass")
    input_file.write_bytes(content)
    try:
        config = load_config(input_file)
    except DataError:
        return
    assert isinstance(config, RunConfig)
