"""One Brownian ensemble per run, shared by every forecast subject.

A run draws W at most once, and only when a forecast needs it; each
subject is priced on it with its own parameters, so a forecast does not
depend on the subject's name.
"""

import shutil

import numpy as np
import pytest

from gbmfolio import cli
from gbmfolio.cli import main
from gbmfolio.synthetic import make_universe

FLAGS = ("--group-count", "3", "--group-size", "2", "--paths", "20", "--trials", "20")


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    make_universe(data_dir, n_assets=6, seed=21)
    return data_dir


def run(data_dir, out_dir, *args):
    return main(["--data-dir", str(data_dir), "--out-dir", str(out_dir), *FLAGS, *args])


@pytest.mark.parametrize(
    "command, draws",
    [
        (("report",), 1),
        (("simulate", "--subject", "all"), 1),
        (("stats",), 0),
        (("group", "--metric", "sharpe"), 0),
    ],
    ids=["report", "simulate-all", "stats", "group-sharpe"],
)
def test_a_run_draws_the_ensemble_at_most_once(
    universe_dir, tmp_path, monkeypatch, command, draws
):
    calls = []
    original = cli.wiener_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "wiener_ensemble", counted)
    assert run(universe_dir, tmp_path, *command) == 0
    assert len(calls) == draws


def test_every_forecast_is_priced_into_one_work_array(universe_dir, tmp_path, monkeypatch):
    # fresh arrays give the same bytes, but their page faults slow a run (Run.ensemble)
    calls = []
    original = cli.simulate_ensemble

    def recorded(params, wiener, out=None):
        calls.append((wiener, out))
        return original(params, wiener, out=out)

    monkeypatch.setattr(cli, "simulate_ensemble", recorded)
    assert run(universe_dir, tmp_path, "simulate", "--subject", "all") == 0
    assert len(calls) == 6 + 3 * 3  # each ticker, then each group
    wiener, out = calls[0]
    assert out is not None and not np.shares_memory(out, wiener)
    assert all(w is wiener and o is out for w, o in calls)


def test_a_copied_ticker_forecasts_as_its_original(universe_dir, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copyfile(universe_dir / "SYN00.csv", data / "SYN00.csv")
    shutil.copyfile(universe_dir / "SYN00.csv", data / "COPY.csv")
    for ticker in ("SYN00", "COPY"):
        assert run(data, tmp_path / ticker, "simulate", "--subject", ticker) == 0
    for kind in ("report", "envelope"):
        original = (tmp_path / "SYN00" / f"{kind}_SYN00.csv").read_bytes()
        assert (tmp_path / "COPY" / f"{kind}_COPY.csv").read_bytes() == original, kind
