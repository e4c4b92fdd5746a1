"""Command-line pipeline: per-asset stats tables, ranked groupings,
simulation plus forecast evaluation, and the full report run.

Every command writes CSV files (12 significant digits) plus a JSON
manifest carrying the configuration, seed and a content hash per file,
so any run can be audited and reproduced byte for byte. A run computes
each pipeline stage at most once, and only the stages its outputs need;
the commands choose which outputs to write, and report writes them all.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error, 130 interrupted (Ctrl-C).
"""

import argparse
import bisect
import datetime as dt
import hashlib
import json
import operator
import platform
import re
import sys
import zlib
from dataclasses import asdict, fields
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path

from . import __version__
from .config import SETTINGS, RunConfig, load_config
from .errors import DataError, NumericError, SettingsError
from .evaluation import HorizonResult, evaluate_ensemble
from .gbm import GbmParams, band_index, envelope, simulate_ensemble, wiener_ensemble
from .market_data import PricePanel, PriceSeries, align_panel, load_csv, slice_panel, slice_period
from .portfolio import Weights, optimize_max_sharpe, portfolio_value_series, rank_and_group
from .stats import asset_stats
from .streams import STREAMS

import numpy as np

METRICS = ("return", "risk", "sharpe")
# report_<subject>.csv's header; summary.csv puts "subject" before it
REPORT_COLUMNS = [f.name for f in fields(HorizonResult)]
# a HorizonResult's fields as a row; every field is a scalar, so no deep copy
_report_row = operator.attrgetter(*REPORT_COLUMNS)
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


def _subject_seed(config, name):
    # a stream per name, independent of which subjects a run includes: one
    # per optimized group, and the one Brownian ensemble every forecast shares
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


def _group_subject(metric, index):
    """The subject name of `metric`'s group `index`, counted from 0: sharpe-2 for index 1."""
    return f"{metric}-{index + 1}"


def _columns(panel, tickers):
    """The sub-panel of the given tickers, in that order, stored row-major."""
    index = [panel.tickers.index(t) for t in tickers]
    return PricePanel(tickers, panel.dates, np.ascontiguousarray(panel.matrix[:, index]))


def _summary_rows(subjects, reports):
    """One row per subject and horizon, then a MEAN row per horizon."""
    rows = [(s, *_report_row(r)) for s, report in zip(subjects, reports) for r in report]
    # final mean row per horizon, the summary-table convention; it is built
    # field by field, so a HorizonResult field without a MEAN rule here fails
    for results in zip(*reports):
        corrs = [r.mean_correlation for r in results if r.mean_correlation is not None]
        mean_corr = sum(corrs) / len(corrs) if corrs else None
        mean_mape = sum(r.mape for r in results) / len(results)
        mean = HorizonResult(results[0].horizon, results[0].days, mean_corr, mean_mape, "")
        rows.append(("MEAN", *_report_row(mean)))
    return rows


# ---------------------------------------------------------------------------
# the pipeline: each stage is computed on first use, at most once per run

def _stage(compute):
    """A Run stage of one name, a subject or a metric: computed on first use, once per run."""

    def stage(run, name):
        done = run.stages.setdefault(compute, {})
        if name not in done:
            done[name] = compute(run, name)
        return done[name]

    return stage


class Run:
    """One invocation of the pipeline; the commands choose what it writes.

    `tickers` is every CSV in the data directory, listed only when a stage
    needs the universe. Only the stages a command's outputs need are
    computed, and the manifest lists exactly the files this run wrote. A
    subject is a ticker or a group such as sharpe-2, and both are computed
    only when a file needs them: subject_series, calibration_stats and
    weights are keyed by the subject's name, and groups by the metric. So
    a ticker's file is read by the stage that first needs it, and a
    single-ticker command never lists the data directory. Tickers are
    loaded and calibrated one at a time, in file-name order, and a run
    stops at the first failure; stats and rankings calibrate every ticker,
    so every file a command needs is read before any optimization or forecast.

    One data rule holds for every output. A ticker's numbers (its row of
    stats.csv, its place in the rankings, its forecast) come from its own
    file over its own dates, so they do not depend on which other tickers
    the run reads. A group is priced on the universe's inner-joined
    panel, because a buy-and-hold portfolio needs every member priced on
    every day.
    """

    def __init__(self, config):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.files = {}  # file name -> bytes, written by save
        self.stages = {}  # each _stage's results, by name

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

    def _window(self, dates, first, last, days, what):
        """The settings `first`..`last` as (start, end), once `dates` holds `days` days in them.

        `what` is a subject, or None for the tickers' inner join. Too few
        days there is the settings' fault, so the error names them. A window
        is 2 days at least; a calibration needs 3, for a sample std of 2 log
        returns.
        """
        start, end = getattr(self.config, first), getattr(self.config, last)
        if bisect.bisect_right(dates, end) - bisect.bisect_left(dates, start) < days:
            what = what or f"inner join of {len(self.tickers)} tickers"
            raise SettingsError(
                f"{what}: {first}..{last} ({start}..{end}) holds fewer than {days} trading days"
            )
        return start, end

    @cached_property
    def panel(self):
        """Every ticker inner-joined over calibration_start..evaluation_end.

        Each series is already cut to that window, and the join cannot widen it.
        """
        panel = align_panel([self.subject_series(t) for t in self.tickers])
        self._window(panel.dates, "calibration_start", "evaluation_end", 2, None)
        return panel

    @cached_property
    def calibration_panel(self):
        panel = self.panel
        window = self._window(panel.dates, "calibration_start", "calibration_end", 3, None)
        return slice_panel(panel, *window)

    @_stage
    def subject_series(self, subject):
        """A subject's prices over calibration_start..evaluation_end: a ticker's own or a group's.

        A ticker's file is read here, once; the rest of its history is not kept.
        """
        group = self.group(subject)
        if group is None:
            series = load_csv(Path(self.config.data_dir) / f"{subject}.csv", subject)
            window = self._window(series.dates, "calibration_start", "evaluation_end", 2, subject)
            return slice_period(series, *window)
        _, members = group
        panel = _columns(self.panel, members)
        return portfolio_value_series(panel, self.weights(subject), 100.0 * len(members), subject)

    @_stage
    def calibration_stats(self, subject):
        """A subject's AssetStats over its calibration window."""
        series = self.subject_series(subject)
        window = self._window(series.dates, "calibration_start", "calibration_end", 3, subject)
        return asset_stats(slice_period(series, *window), self.config.risk_free)

    def group(self, subject):
        """(metric, members) of a group subject such as sharpe-2; None for a ticker.

        A group past group_count is an error found from the name alone, before any file is read.
        """
        match = _GROUP_SUBJECT.fullmatch(subject)
        if match is None:
            return None
        metric, index = match[1], int(match[2]) - 1
        if not 0 <= index < self.config.group_count:
            raise SettingsError(
                f"{subject}: group_count is {self.config.group_count}, so there is no group"
                f" {index + 1}"
            )
        return metric, self.groups(metric)[index]

    @_stage
    def groups(self, metric):
        """The tickers ranked by stats.csv's `metric` and cut into tuples of members."""
        c = self.config
        stats = [self.calibration_stats(t) for t in self.tickers]
        return rank_and_group(stats, metric, group_count=c.group_count, group_size=c.group_size)

    @_stage
    def weights(self, group):
        """Equal weights for a return or risk group; max-Sharpe weights for a sharpe group."""
        metric, members = self.group(group)
        if metric != "sharpe":
            return Weights(np.full(len(members), 1.0 / len(members)))
        c = self.config
        panel = _columns(self.calibration_panel, members)
        seed = _subject_seed(c, f"opt-{metric}-{'-'.join(members)}")
        return optimize_max_sharpe(panel, c.n_trials, seed, c.risk_free)[0]

    @cached_property
    def ensemble(self):
        """The run's Brownian ensemble W, its band_index and the forecasts' work array.

        n_paths and the longest horizon are fixed for a run, so one draw of W
        and its one ordering serve every subject (common random numbers); a
        forecast is scored and banded before the next overwrites the work
        array. A fresh array per subject took 12x the minor page faults and
        slowed forecast-all.
        """
        n, days = self.config.n_paths, max(h.days for h in self.config.horizons)
        try:
            wiener = wiener_ensemble(n, days, _subject_seed(self.config, "ensemble"))
            # indexed after the uniforms are freed, before the work array is touched
            return wiener, band_index(wiener), np.empty(wiener.shape)
        except (MemoryError, ValueError):  # ValueError: a shape past NumPy's limit
            raise DataError(f"cannot allocate an ensemble of {n} paths x {days} days") from None

    def forecast(self, subject):
        """Calibrate, simulate and score one subject against realized prices.

        Day 0 is the subject's last trading day on or before calibration_end,
        where the simulation starts. The actual series is day 0 and the
        max-horizon trading days right after it, which must all fall on or
        before evaluation_end.
        """
        c = self.config
        stats = self.calibration_stats(subject)
        series = self.subject_series(subject)
        day0 = bisect.bisect_right(series.dates, c.calibration_end) - 1
        longest = max(c.horizons, key=lambda h: h.days)
        max_h = longest.days
        after = len(series) - 1 - day0  # the series is already cut at evaluation_end
        if after < max_h:
            raise SettingsError(
                f"{subject}: calibration_end..evaluation_end ({c.calibration_end}.."
                f"{c.evaluation_end}) holds {after} trading days after calibration_end, fewer"
                f" than the longest horizon ({longest.label}, {max_h} days)"
            )
        end = day0 + max_h + 1
        actual = PriceSeries(subject, series.dates[day0:end], series.prices[day0:end])
        params = GbmParams(s0=float(actual.prices[0]), mu=stats.mu_daily, sigma=stats.sigma_daily)
        wiener, index, out = self.ensemble
        paths = simulate_ensemble(params, wiener, out=out)
        report = evaluate_ensemble(paths, actual, c.horizons)
        band = envelope(paths, index)
        return report, band, actual

    # -- outputs ------------------------------------------------------------

    def _write(self, name, text):
        """Hold out_dir/name's bytes until save; every output goes through here."""
        self.files[name] = text.encode()

    def write_csv(self, name, header, rows):
        lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
        self._write(name, ",".join(header) + "\n" + "".join(lines))

    def write_stats(self, tickers):
        rows = [
            (s.ticker, s.return_annual, s.risk_annual, s.sharpe)
            for s in map(self.calibration_stats, tickers)
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
            for g, members in enumerate(groups)
            for rank, ticker in enumerate(members)
        ]
        self.write_csv(f"groups_{metric}.csv", ["group", "rank", "ticker"], rows)
        if metric == "sharpe":
            rows = [
                (g + 1, ticker, w)
                for g, members in enumerate(groups)
                for ticker, w in zip(members, self.weights(_group_subject(metric, g)).values)
            ]
            self.write_csv("weights_sharpe.csv", ["group", "ticker", "weight"], rows)

    def write_forecast(self, subject):
        report, band, actual = self.forecast(subject)
        self.write_csv(f"report_{subject}.csv", REPORT_COLUMNS, map(_report_row, report))
        rows = zip(
            range(len(actual.dates)),
            map(_day_label, actual.dates),
            actual.prices.tolist(),
            *(column.tolist() for column in band),
        )
        body = ENVELOPE_ROW * len(actual.dates) % tuple(chain.from_iterable(rows))
        self._write(f"envelope_{subject}.csv", ENVELOPE_HEADER + body)
        return report

    def write_all_forecasts(self):
        """Every ticker, then every ranked group, plus summary.csv."""
        groups = tuple(_group_subject(m, g) for m in METRICS for g in range(len(self.groups(m))))
        subjects = self.tickers + groups
        reports = [self.write_forecast(subject) for subject in subjects]
        rows = _summary_rows(subjects, reports)
        self.write_csv("summary.csv", ["subject", *REPORT_COLUMNS], rows)

    def save(self, command):
        """Write every held file to out_dir, then the manifest; a run writes nowhere else.

        Each sha256 is taken of the held bytes, so the manifest reads nothing back.
        """
        config = asdict(self.config)
        del config["out_dir"]  # where the files land is not part of the results
        manifest = {
            "command": command,
            "streams": STREAMS,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "gbmfolio": __version__,
            },
            "config": config,
            # built before the manifest is held, so it never lists itself
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in self.files.items()},
        }
        text = json.dumps(manifest, indent=2, sort_keys=True, default=dt.date.isoformat)
        self._write("run_manifest.json", text + "\n")
        path = self.out_dir
        try:
            path.mkdir(parents=True, exist_ok=True)
            for name, data in self.files.items():
                path = self.out_dir / name
                path.write_bytes(data)
        except OSError as exc:
            raise DataError(f"cannot write output {path}: {exc}") from exc


def run_command(config, args):
    """Render the outputs the parsed command asks for, then save them with the manifest."""
    run = Run(config)
    command = args.command
    if command == "stats":
        run.write_stats(args.tickers or run.tickers)  # no tickers: the whole universe
    elif command == "group":
        run.write_groups(args.metric)
        command = f"group-{args.metric}"
    elif command == "simulate":
        if args.subject == "all":
            run.write_all_forecasts()
        else:
            run.write_forecast(args.subject)
        command = f"simulate-{args.subject}"
    else:
        run.write_stats(run.tickers)
        for metric in METRICS:
            run.write_groups(metric)
        run.write_all_forecasts()
    run.save(command)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """A parser that takes options spelled in full only; --s is not --seed."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse's own pattern takes a value such as -1e-3, -inf or -nan for an option
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Once(argparse.Action):
    """Store an option's value; an option given twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _flag_value(parse):
    """argparse type for `parse`: a value it rejects is a usage error."""

    def convert(text):
        try:
            return parse(text)
        except (ValueError, DataError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


# a setting's flag is its config key with dashes, except these two
_FLAGS = {"n_paths": "--paths", "n_trials": "--trials"}
_HELP = {
    "data_dir": "directory of <TICKER>.csv files",
    "out_dir": "output directory",
    "n_paths": "simulated paths per subject",
    "n_trials": "random portfolios per optimization",
    "risk_free": "annual risk-free rate",
    "horizons": "label:days list, e.g. 1w:5,1m:21",
}


def _global_options():
    """A parser of the options given before the subcommand: --config and one per setting."""
    parser = _Parser(prog="gbmfolio", add_help=False, exit_on_error=False)
    parser.add_argument("--config", action=_Once, help="flat key=value config file")
    for key, parse in SETTINGS.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(
            flag, dest=key, action=_Once, type=_flag_value(parse), help=_HELP.get(key)
        )
    return parser


def build_parser():
    parser = _Parser(
        prog="gbmfolio", description=__doc__, parents=[_global_options()], exit_on_error=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stats = sub.add_parser("stats", help="per-asset return/risk/Sharpe table")
    p_stats.add_argument(
        "tickers", nargs="*", type=_flag_value(_ticker_arg), help="default: every ticker"
    )
    p_group = sub.add_parser("group", help="ranked grouping of the universe")
    p_group.add_argument("--metric", action=_Once, required=True, choices=METRICS)
    p_sim = sub.add_parser("simulate", help="simulate and evaluate forecasts")
    p_sim.add_argument(
        "--subject", action=_Once, required=True, type=_flag_value(_subject_arg),
        help="ticker, <metric>-<n>, or all",
    )
    sub.add_parser("report", help="full pipeline over the whole universe")
    return parser


def _resolve_config(args):
    """Defaults, then the config file, then every flag that was given, checked once."""
    values = load_config(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    return RunConfig(**values)


def _unknown_option(argv):
    """The first option before the subcommand that is not a global option, or None.

    argparse sets such an option aside and takes the value after it for the
    subcommand, so its error would name the value.
    """
    try:
        _, rest = _global_options().parse_known_args(argv)
    except argparse.ArgumentError:
        return None
    return rest[0] if rest and rest[0].startswith("-") else None


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        unknown = exc.argument_name == "command" and _unknown_option(argv)
        parser.error(f"unrecognized arguments: {unknown}" if unknown else str(exc))
    if args.command == "stats" and len(set(args.tickers)) < len(args.tickers):
        parser.error("stats: a ticker is named more than once")
    try:
        with np.errstate(all="ignore"):  # every non-finite result is raised where it arises
            run_command(_resolve_config(args), args)
    except DataError as exc:
        note = ""
        if isinstance(exc, SettingsError) and args.config:
            note = f" (with settings from {args.config})"
        print(f"data error: {exc}{note}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
