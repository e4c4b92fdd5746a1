"""Command-line pipeline: per-asset stats tables, ranked groupings,
simulation plus forecast evaluation, and the full report run.

Every command writes CSV files (12 significant digits) plus a JSON
manifest carrying the configuration, seed and a content hash per file,
so any run can be audited and reproduced byte for byte. A run computes
each pipeline stage at most once, and only the stages its outputs need;
the commands choose which outputs to write, and report writes them all.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.
"""

import argparse
import bisect
import datetime as dt
import hashlib
import json
import platform
import re
import sys
import zlib
from dataclasses import asdict, fields
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config, parse_horizons
from .errors import DataError, NumericError
from .evaluation import evaluate_ensemble
from .gbm import GbmParams, SimulationConfig, ensemble_arrays, envelope, simulate_ensemble
from .market_data import PricePanel, PriceSeries, align_panel, load_csv, slice_panel, slice_period
from .portfolio import Weights, optimize_max_sharpe, portfolio_value_series, rank_and_group
from .stats import asset_stats
from .streams import STREAMS

import numpy as np

METRICS = ("return", "risk", "sharpe")
ENVELOPE_QUANTILES = (0.05, 0.95)
# envelope_<subject>.csv: its header, and one line per day
ENVELOPE_HEADER = "day_index,date,actual,mean,q05,q95\n"
ENVELOPE_ROW = "%d,%s,%.12g,%.12g,%.12g,%.12g\n"
# a trading day's ISO label, formatted once: the loader shares one date
# object per day, and a cache hit costs under a third of isoformat()
_day_label = lru_cache(maxsize=65536)(dt.date.isoformat)

# a ticker names a file and is written unquoted into CSVs
_TICKER = re.compile(r"[A-Za-z0-9^][A-Za-z0-9.^=-]*")
_GROUP_SUBJECT = re.compile(rf"({'|'.join(METRICS)})-([0-9]+)")


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _config_dict(config):
    d = asdict(config)
    d.pop("out_dir")  # where the files land is not part of the results
    for key in ("calibration_start", "calibration_end", "evaluation_start", "evaluation_end"):
        d[key] = d[key].isoformat()
    d["horizons"] = [{"label": h["label"], "days": h["days"]} for h in d["horizons"]]
    return d


def _subject_seed(config, name):
    # stable per-subject stream, independent of which subjects a run includes
    return (config.seed << 32) ^ zlib.crc32(name.encode())


def _ticker_error(name):
    """Why `name` cannot be a ticker, or None if it can."""
    if not _TICKER.fullmatch(name):
        return "a ticker is letters, digits and . - ^ =, starting with a letter, a digit or ^"
    if name in ("all", "MEAN") or _GROUP_SUBJECT.fullmatch(name):
        return "all, MEAN and <metric>-<n> name subjects, not tickers"
    return None


def _ticker_arg(text):
    error = _ticker_error(text)
    if error:
        raise ValueError(f"{text!r}: {error}")
    return text


def _subject_arg(text):
    match = _GROUP_SUBJECT.fullmatch(text)
    if match and match[2].startswith("0"):
        # sharpe-02 would be group 2 under another name, and another seed
        raise ValueError(f"{text!r}: groups are numbered from 1, without leading zeros")
    return text if text == "all" or match else _ticker_arg(text)


def _parse_subject(subject):
    """(metric, index) of a group subject such as sharpe-2; None for a ticker."""
    match = _GROUP_SUBJECT.fullmatch(subject)
    return match and (match[1], int(match[2]) - 1)


def _columns(panel, tickers):
    """The sub-panel of the given tickers, in that order, stored row-major."""
    index = [panel.tickers.index(t) for t in tickers]
    return PricePanel(tickers, panel.dates, np.ascontiguousarray(panel.matrix[:, index]))


def _summary_rows(reports):
    rows = []
    for report in reports:
        for r in report.results:
            rows.append(
                (report.subject, r.horizon.label, r.horizon.days, r.mean_correlation, r.mape, r.band)
            )
    # final mean row per horizon, the summary-table convention
    if reports:
        for i, r0 in enumerate(reports[0].results):
            corrs = [rep.results[i].mean_correlation for rep in reports]
            corrs = [c for c in corrs if c is not None]
            mean_corr = sum(corrs) / len(corrs) if corrs else None
            mean_mape = sum(rep.results[i].mape for rep in reports) / len(reports)
            rows.append(("MEAN", r0.horizon.label, r0.horizon.days, mean_corr, mean_mape, ""))
    return rows


# ---------------------------------------------------------------------------
# the pipeline: each stage is computed on first use, at most once per run

class Group:
    """One ranked group of the universe; its weights and value are found on first use."""

    def __init__(self, run, metric, index, members):
        self.run = run
        self.metric = metric
        self.name = f"{metric}-{index + 1}"
        self.members = members

    @cached_property
    def weights(self):
        """Equal weights for return/risk groups; max-Sharpe weights otherwise."""
        n = len(self.members)
        if self.metric != "sharpe":
            return Weights(np.full(n, 1.0 / n))
        config = self.run.config
        weights, _ = optimize_max_sharpe(
            _columns(self.run.calibration_panel, self.members),
            config.n_trials,
            _subject_seed(config, f"opt-{self.metric}-{'-'.join(self.members)}"),
            config.risk_free,
        )
        return weights

    @cached_property
    def value_series(self):
        """Buy-and-hold value of the group over the run's whole window."""
        return portfolio_value_series(
            _columns(self.run.panel, self.members),
            self.weights,
            100.0 * len(self.members),
            name=self.name,
        )


class Run:
    """One invocation of the pipeline; the commands choose what it writes.

    `tickers` is every CSV in the data directory unless the command names
    its own. Only the stages a command's outputs need are computed, and
    the manifest lists exactly the files this run wrote.

    One data rule holds for every output. A ticker's numbers (its row of
    stats.csv, its place in the rankings, its forecast) come from its own
    file over its own dates, so they do not depend on which other tickers
    the run reads. A group is priced on the universe's inner-joined
    panel, because a buy-and-hold portfolio needs every member priced on
    every day.
    """

    def __init__(self, config, tickers=None):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.written = {}  # file name -> sha256 of the bytes written
        self._stats = {}
        self._groups = {}
        if tickers is not None:
            self.tickers = tuple(tickers)

    @cached_property
    def tickers(self):
        paths = sorted(Path(self.config.data_dir).glob("*.csv"))
        if not paths:
            raise DataError(f"no CSV files in {self.config.data_dir}")
        for path in paths:
            error = _ticker_error(path.stem)
            if error:
                raise DataError(f"{path}: file name is not a ticker: {error}")
        return tuple(p.stem for p in paths)

    @cached_property
    def series(self):
        """Each ticker's prices over calibration_start..evaluation_end.

        One load_csv per file; the rest of the history is not kept.
        """
        c = self.config
        return {
            t: slice_period(
                load_csv(Path(c.data_dir) / f"{t}.csv", t), c.calibration_start, c.evaluation_end
            )
            for t in self.tickers
        }

    @cached_property
    def panel(self):
        """Every ticker inner-joined over calibration_start..evaluation_end.

        Each series is already cut to that window, and the join cannot widen it.
        """
        return align_panel([self.series[t] for t in self.tickers])

    @cached_property
    def calibration_panel(self):
        c = self.config
        return slice_panel(self.panel, c.calibration_start, c.calibration_end)

    def subject_series(self, subject):
        """A subject's prices over the whole window: a ticker's own or a group's value."""
        ref = _parse_subject(subject)
        if ref is None:
            return self.series[subject]
        metric, index = ref
        if not 0 <= index < self.config.group_count:
            raise DataError(f"group index out of range in {subject!r}")
        return self.groups(metric)[index].value_series

    def calibration_stats(self, subject):
        """A subject's AssetStats over its calibration window, once per run."""
        stats = self._stats.get(subject)
        if stats is None:
            c = self.config
            series = self.subject_series(subject)
            calib = slice_period(series, c.calibration_start, c.calibration_end)
            stats = self._stats[subject] = asset_stats(calib, c.risk_free)
        return stats

    def groups(self, metric):
        """The tickers ranked by stats.csv's `metric` and cut into groups, once per run."""
        if metric not in self._groups:
            c = self.config
            ranked = rank_and_group(
                [self.calibration_stats(t) for t in self.tickers],
                metric,
                group_count=c.group_count,
                group_size=c.group_size,
            )
            self._groups[metric] = tuple(
                Group(self, metric, index, members) for index, members in enumerate(ranked)
            )
        return self._groups[metric]

    @cached_property
    def draw_arrays(self):
        """The uniform block and time-major work array every forecast draws into.

        n_paths and the longest horizon are fixed for a run, so one pair of
        arrays serves every subject; a forecast is scored and banded before
        the next overwrites it.
        """
        c = self.config
        return ensemble_arrays(c.n_paths, max(h.days for h in c.horizons))

    def forecast(self, subject):
        """Calibrate, simulate and score one subject against realized prices.

        The actual series starts at the last calibration price (the
        simulation's day 0) and runs max-horizon days beyond it.
        """
        c = self.config
        stats = self.calibration_stats(subject)
        series = self.subject_series(subject)
        day0 = bisect.bisect_right(series.dates, c.calibration_end) - 1  # last calibration day
        s0 = float(series.prices[day0])
        evaluation = slice_period(series, c.evaluation_start, c.evaluation_end)
        max_h = max(h.days for h in c.horizons)
        if len(evaluation) < max_h:
            raise DataError(f"{subject}: evaluation window shorter than horizon {max_h}")
        actual = PriceSeries(
            subject,
            (series.dates[day0],) + evaluation.dates[:max_h],
            np.concatenate(([s0], evaluation.prices[:max_h])),
        )
        params = GbmParams(s0=s0, mu=stats.mu_daily, sigma=stats.sigma_daily)
        sim = SimulationConfig(n_paths=c.n_paths, horizon=max_h, seed=_subject_seed(c, subject))
        # an ensemble that overflows is reported once, as the NumericError
        # evaluate_ensemble raises for any non-finite score, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            paths = simulate_ensemble(params, sim, out=self.draw_arrays)
            report = evaluate_ensemble(paths, actual, c.horizons, denominator=c.mape_denominator)
            band = envelope(paths, *ENVELOPE_QUANTILES)
        return report, band, actual

    # -- outputs ------------------------------------------------------------

    def _write(self, name, text):
        """Write out_dir/name, making out_dir on the first write, and record its sha256.

        Every output goes through here, so the manifest reads nothing back.
        """
        data = text.encode()
        path = self.out_dir / name
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise DataError(f"cannot write output {path}: {exc}") from exc
        self.written[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name, header, rows):
        lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
        self._write(name, ",".join(header) + "\n" + "".join(lines))

    def write_stats(self):
        rows = [
            (s.ticker, s.return_annual, s.risk_annual, s.sharpe)
            for s in map(self.calibration_stats, self.tickers)
        ]
        self.write_csv("stats.csv", ["ticker", "return_annual", "risk_annual", "sharpe"], rows)
        lines = [f"{'ticker':<10}{'return':>12}{'risk':>12}{'sharpe':>10}\n"]
        for ticker, ret, risk, sharpe in rows:
            sh = "NA" if sharpe is None else f"{sharpe:.3f}"
            lines.append(f"{ticker:<10}{ret:>12.4f}{risk:>12.4f}{sh:>10}\n")
        self._write("stats.txt", "".join(lines))

    def write_groups(self, metric):
        groups = self.groups(metric)
        rows = [
            (g + 1, rank + 1, ticker)
            for g, group in enumerate(groups)
            for rank, ticker in enumerate(group.members)
        ]
        self.write_csv(f"groups_{metric}.csv", ["group", "rank", "ticker"], rows)
        if metric == "sharpe":
            rows = [
                (g + 1, ticker, w)
                for g, group in enumerate(groups)
                for ticker, w in zip(group.members, group.weights.values)
            ]
            self.write_csv("weights_sharpe.csv", ["group", "ticker", "weight"], rows)

    def write_forecast(self, subject):
        report, band, actual = self.forecast(subject)
        rows = [
            (r.horizon.label, r.horizon.days, r.mean_correlation, r.mape, r.band)
            for r in report.results
        ]
        self.write_csv(
            f"report_{subject}.csv", ["horizon", "days", "mean_correlation", "mape", "band"], rows
        )
        rows = zip(
            range(len(actual.dates)),
            map(_day_label, actual.dates),
            actual.prices.tolist(),
            band.mean.tolist(),
            band.lower.tolist(),
            band.upper.tolist(),
        )
        body = ENVELOPE_ROW * len(actual.dates) % tuple(chain.from_iterable(rows))
        self._write(f"envelope_{subject}.csv", ENVELOPE_HEADER + body)
        return report

    def write_all_forecasts(self):
        """Every ticker, then every ranked group, plus summary.csv."""
        groups = tuple(f"{m}-{i + 1}" for m in METRICS for i in range(self.config.group_count))
        reports = [self.write_forecast(subject) for subject in self.tickers + groups]
        self.write_csv(
            "summary.csv",
            ["subject", "horizon", "days", "mean_correlation", "mape", "band"],
            _summary_rows(reports),
        )

    def write_manifest(self, command):
        manifest = {
            "command": command,
            "streams": STREAMS,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "gbmfolio": __version__,
            },
            "config": _config_dict(self.config),
            # serialized before the manifest is written, so it never lists itself
            "files": self.written,
        }
        self._write("run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_command(config, args):
    """Write the outputs the parsed command asks for, then the manifest."""
    command = args.command
    if command == "stats":
        run = Run(config, args.tickers or None)  # no tickers: the whole universe
        run.write_stats()
    elif command == "group":
        run = Run(config)
        run.write_groups(args.metric)
        command = f"group-{args.metric}"
    elif command == "simulate" and args.subject == "all":
        run = Run(config)
        run.write_all_forecasts()
        command = "simulate-all"
    elif command == "simulate":
        # a ticker subject reads its own file only
        run = Run(config, None if _parse_subject(args.subject) else [args.subject])
        run.write_forecast(args.subject)
        command = f"simulate-{args.subject}"
    else:
        run = Run(config)
        run.write_stats()
        for metric in METRICS:
            run.write_groups(metric)
        run.write_all_forecasts()
    run.write_manifest(command)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _flag_value(parse):
    """argparse type for `parse`: a value it rejects is a usage error."""

    def convert(text):
        try:
            return parse(text)
        except (ValueError, DataError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser():
    date = _flag_value(dt.date.fromisoformat)
    parser = _Parser(prog="gbmfolio", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--data-dir", help="directory of <TICKER>.csv files")
    parser.add_argument("--out-dir", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--paths", dest="n_paths", type=int, help="simulated paths per subject")
    parser.add_argument(
        "--trials", dest="n_trials", type=int, help="random portfolios per optimization"
    )
    parser.add_argument("--risk-free", type=float, help="annual risk-free rate")
    parser.add_argument(
        "--horizons", type=_flag_value(parse_horizons), help="label:days list, e.g. 1w:5,1m:21"
    )
    parser.add_argument("--group-count", type=int)
    parser.add_argument("--group-size", type=int)
    parser.add_argument("--calibration-start", type=date)
    parser.add_argument("--calibration-end", type=date)
    parser.add_argument("--evaluation-start", type=date)
    parser.add_argument("--evaluation-end", type=date)

    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser("stats", help="per-asset return/risk/Sharpe table")
    p_stats.add_argument(
        "tickers", nargs="*", type=_flag_value(_ticker_arg), help="default: every ticker"
    )
    p_group = sub.add_parser("group", help="ranked grouping of the universe")
    p_group.add_argument("--metric", required=True, choices=METRICS)
    p_sim = sub.add_parser("simulate", help="simulate and evaluate forecasts")
    p_sim.add_argument(
        "--subject", required=True, type=_flag_value(_subject_arg),
        help="ticker, <metric>-<n>, or all",
    )
    sub.add_parser("report", help="full pipeline over the whole universe")
    return parser


def _resolve_config(args):
    """Defaults, then the config file, then every flag that was given, checked once."""
    values = load_config(args.config) if args.config else {}
    keys = {f.name for f in fields(RunConfig)}
    values.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    try:
        return RunConfig(**values)
    except DataError as exc:
        if args.config:
            raise DataError(f"{exc} (with settings from {args.config})") from None
        raise


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats" and len(set(args.tickers)) < len(args.tickers):
        parser.error("stats: a ticker is named more than once")
    try:
        run_command(_resolve_config(args), args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
