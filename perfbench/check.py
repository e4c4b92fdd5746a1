"""Output checks for one gbmfolio invocation that do not depend on the
random stream.

Every expected value is recomputed with NumPy from the input CSV text and
the documented contracts (CLI defaults, the 10/20/50% band table, the GBM
closed form), so any implementation that keeps those contracts passes,
whatever random numbers it draws. CSVs are read by header name, so added
columns do not break the checks.

`check_outputs` returns a list of problems; an empty list means the
outputs are correct.
"""

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import numpy as np

TRADING_DAYS = 252
RISK_FREE = 0.019
CALIBRATION = (dt.date(2016, 1, 1), dt.date(2018, 12, 31))
EVALUATION = (dt.date(2019, 1, 1), dt.date(2019, 12, 31))
HORIZONS = (("1w", 5), ("2w", 10), ("1m", 21), ("6m", 126), ("1y", 247))
BAND_LIMITS = ((0.10, "high"), (0.20, "good"), (0.50, "reasonable"))
METRICS = ("return", "risk", "sharpe")
# ensemble means must lie this many Monte Carlo standard errors from the
# closed form; false alarms at 6 are below 1e-8 per comparison
MC_SIGMAS = 6.0
MANIFEST = "run_manifest.json"


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _number(text):
    return None if text in ("", "NA") else float(text)


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_prices(path):
    """(dates, prices) under load_csv's documented rules: Adj Close (else
    Close) by header name; unparseable and non-positive rows dropped;
    the first of duplicate dates kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = {name.strip().lower(): i for i, name in enumerate(next(reader))}
        di = cols["date"]
        pi = cols["adj close"] if "adj close" in cols else cols["close"]
        rows = {}
        for row in reader:
            try:
                date, price = dt.date.fromisoformat(row[di].strip()), float(row[pi])
            except (ValueError, IndexError):
                continue
            if math.isfinite(price) and price > 0:
                rows.setdefault(date, price)
    dates = sorted(rows)
    return dates, np.array([rows[d] for d in dates])


def classify(mape):
    for limit, band in BAND_LIMITS:
        if mape <= limit:
            return band
    return "imprecise"


def log_stats(prices):
    """Daily mean and sample std of log returns, per column."""
    rets = np.diff(np.log(prices), axis=0)
    return rets.mean(axis=0), rets.std(axis=0, ddof=1)


def sharpe_of(weights, prices):
    rets = np.diff(np.log(prices), axis=0)
    cov = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1))
    ret = float(weights @ rets.mean(axis=0)) * TRADING_DAYS
    risk = math.sqrt(float(weights @ cov @ weights) * TRADING_DAYS)
    return (ret - RISK_FREE) / risk


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Universe:
    """Input CSVs recomputed: per-ticker series and the inner-joined panel."""

    def __init__(self, data_dir):
        paths = sorted(Path(data_dir).glob("*.csv"))
        self.tickers = [p.stem for p in paths]
        self.series = {p.stem: read_prices(p) for p in paths}
        common = set.intersection(*(set(d) for d, _ in self.series.values()))
        self.dates = sorted(common)
        self.matrix = np.column_stack(
            [
                [price for date, price in zip(*self.series[t]) if date in common]
                for t in self.tickers
            ]
        )
        dates = np.array(self.dates)
        self.calib = (dates >= CALIBRATION[0]) & (dates <= CALIBRATION[1])
        self.evaluation = (dates >= EVALUATION[0]) & (dates <= EVALUATION[1])
        mu, sigma = log_stats(self.matrix[self.calib])
        self.mu = dict(zip(self.tickers, mu))
        self.sigma = dict(zip(self.tickers, sigma))

    def metric(self, ticker, metric):
        ret = self.mu[ticker] * TRADING_DAYS
        risk = self.sigma[ticker] * math.sqrt(TRADING_DAYS)
        return {"return": ret, "risk": risk, "sharpe": (ret - RISK_FREE) / risk}[metric]

    def calibration_prices(self, tickers):
        return self.matrix[self.calib][:, [self.tickers.index(t) for t in tickers]]


def expected_files(tickers, command, group_count):
    subjects = list(tickers) + [f"{m}-{i + 1}" for m in METRICS for i in range(group_count)]
    files = [f"{kind}_{s}.csv" for s in subjects for kind in ("report", "envelope")]
    files.append("summary.csv")
    if command == "report":
        files += ["stats.csv", "stats.txt", "weights_sharpe.csv"]
        files += [f"groups_{m}.csv" for m in METRICS]
    return subjects, files


def check_manifest(out, files, problems):
    """Returns the expected files that are missing."""
    on_disk = {p.name for p in out.iterdir() if p.name != MANIFEST}
    missing = sorted(set(files) - on_disk)
    problems.extend(f"{name}: missing" for name in missing)
    try:
        listed = manifest_hashes(out)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{MANIFEST}: unreadable ({exc})")
        return missing
    problems.extend(manifest_problems(listed, output_hashes(out)))
    return missing


def manifest_hashes(out):
    """The manifest's `files` map: output name -> sha256."""
    return json.loads((Path(out) / MANIFEST).read_text(encoding="utf-8"))["files"]


def output_hashes(out):
    """sha256 of every output file except the manifest itself."""
    return {p.name: sha256(p) for p in sorted(Path(out).iterdir()) if p.name != MANIFEST}


def manifest_problems(listed, on_disk):
    unlisted = sorted(on_disk.keys() - listed.keys())
    problems = [f"{name}: not listed in {MANIFEST}" for name in unlisted]
    for name, digest in sorted(listed.items()):
        if name not in on_disk:
            problems.append(f"{MANIFEST}: lists {name}, which is not on disk")
        elif on_disk[name] != digest:
            problems.append(f"{name}: sha256 differs from {MANIFEST}")
    return problems


def check_stats(out, universe, problems):
    rows = {r["ticker"]: r for r in read_table(out / "stats.csv")}
    if sorted(rows) != universe.tickers:
        problems.append("stats.csv: tickers differ from the universe")
    for ticker, (dates, prices) in universe.series.items():
        if ticker not in rows:
            continue
        d = np.array(dates)
        mu, sigma = log_stats(prices[(d >= CALIBRATION[0]) & (d <= CALIBRATION[1])])
        ret, risk = mu * TRADING_DAYS, sigma * math.sqrt(TRADING_DAYS)
        expected = {
            "return_annual": ret,
            "risk_annual": risk,
            "sharpe": (ret - RISK_FREE) / risk if risk > 0 else None,
        }
        for col, want in expected.items():
            got = _number(rows[ticker][col])
            if (got is None) != (want is None) or (want is not None and not _close(got, want)):
                problems.append(f"stats.csv: {ticker} {col} is {got}, recomputed {want}")


def read_groups(path):
    groups = {}
    for r in read_table(path):
        groups.setdefault(int(r["group"]), []).append((int(r["rank"]), r["ticker"]))
    return [[t for _, t in sorted(groups[g])] for g in sorted(groups)]


def check_groups(out, universe, group_count, group_size, problems):
    for metric in METRICS:
        name = f"groups_{metric}.csv"
        groups = read_groups(out / name)
        if [len(g) for g in groups] != [group_size] * group_count:
            problems.append(f"{name}: expected {group_count} groups of {group_size}")
            continue
        got = [t for g in groups for t in g]
        if sorted(got) != universe.tickers:
            problems.append(f"{name}: tickers are not the universe, each once")
            continue
        value = {t: universe.metric(t, metric) for t in universe.tickers}
        want = sorted(universe.tickers, key=lambda t: (-value[t], t))
        for k, (g, w) in enumerate(zip(got, want)):
            # a recomputed near-tie may order differently in the last bit
            if g != w and not _close(value[g], value[w]):
                problems.append(f"{name}: position {k + 1} is {g}, expected {w}")
                break


def check_weights(out, universe, problems):
    groups = read_groups(out / "groups_sharpe.csv")
    rows = {}
    for r in read_table(out / "weights_sharpe.csv"):
        rows.setdefault(int(r["group"]), []).append((r["ticker"], float(r["weight"])))
    for g, members in enumerate(groups, 1):
        entries = rows.get(g, [])
        if [t for t, _ in entries] != members:
            problems.append(f"weights_sharpe.csv: group {g} members differ from groups_sharpe.csv")
            continue
        w = np.array([x for _, x in entries])
        if np.any(w < 0):
            problems.append(f"weights_sharpe.csv: group {g} has a negative weight")
            continue
        if abs(w.sum() - 1.0) > 1e-9:
            problems.append(f"weights_sharpe.csv: group {g} weights sum to {w.sum()!r}")
            continue
        prices = universe.calibration_prices(members)
        best = sharpe_of(w, prices)
        equal = sharpe_of(np.full(len(w), 1.0 / len(w)), prices)
        if best < equal - 1e-9 * max(1.0, abs(equal)):
            problems.append(
                f"weights_sharpe.csv: group {g} Sharpe {best:.6g} below equal weight {equal:.6g}"
            )


def check_report(name, rows, problems):
    if [(r["horizon"], int(r["days"])) for r in rows] != list(HORIZONS):
        problems.append(f"{name}: horizons differ from the default table")
        return
    for r in rows:
        mape, corr = float(r["mape"]), _number(r["mean_correlation"])
        if mape < 0 or r["band"] != classify(mape):
            problems.append(f"{name}: {r['horizon']} band {r['band']!r} for MAPE {mape!r}")
        if corr is not None and not -1.0 <= corr <= 1.0:
            problems.append(f"{name}: {r['horizon']} correlation {corr!r} outside [-1, 1]")


def check_envelope(name, rows, universe, ticker, n_paths, problems):
    max_h = HORIZONS[-1][1]
    calib_idx = np.flatnonzero(universe.calib)
    eval_idx = np.flatnonzero(universe.evaluation)[:max_h]
    days = np.concatenate(([calib_idx[-1]], eval_idx))
    if len(rows) != max_h + 1 or [int(r["day_index"]) for r in rows] != list(range(max_h + 1)):
        problems.append(f"{name}: expected day_index 0..{max_h}")
        return
    if [r["date"] for r in rows] != [universe.dates[i].isoformat() for i in days]:
        problems.append(f"{name}: dates are not the last calibration day plus the evaluation days")
    cols = {c: np.array([float(r[c]) for r in rows]) for c in ("actual", "mean", "q05", "q95")}
    day0 = [cols[c][0] for c in cols]
    if not all(_close(x, day0[0]) for x in day0):
        problems.append(f"{name}: day 0 actual, mean, q05 and q95 differ: {day0}")
    if np.any(cols["q05"] > cols["q95"]):
        problems.append(f"{name}: q05 above q95 on some day")
    if ticker is None:
        return
    column = universe.matrix[:, universe.tickers.index(ticker)]
    if not np.allclose(cols["actual"], column[days], rtol=1e-9, atol=0):
        problems.append(f"{name}: actual prices differ from {ticker}.csv")
    s0, mu, sigma = column[calib_idx[-1]], universe.mu[ticker], universe.sigma[ticker]
    for label, h in HORIZONS:
        want = s0 * math.exp(mu * h)
        se = want * math.sqrt(math.expm1(sigma**2 * h) / n_paths)
        if abs(cols["mean"][h] - want) > MC_SIGMAS * se:
            problems.append(
                f"{name}: {label} ensemble mean {cols['mean'][h]:.6g} is more than "
                f"{MC_SIGMAS:g} standard errors from s0*exp(mu*h) = {want:.6g}"
            )


def check_summary(out, subjects, reports, problems):
    rows = read_table(out / "summary.csv")
    by_subject = {}
    for r in rows:
        by_subject.setdefault(r["subject"], []).append(r)
    means = by_subject.pop("MEAN", [])
    if sorted(by_subject) != sorted(subjects):
        problems.append("summary.csv: subjects differ from the expected set")
        return
    for subject, srows in by_subject.items():
        fields = ("horizon", "days", "mean_correlation", "mape", "band")
        if [tuple(r[f] for f in fields) for r in srows] != [
            tuple(r[f] for f in fields) for r in reports.get(subject, [])
        ]:
            problems.append(f"summary.csv: {subject} rows differ from report_{subject}.csv")
    if [r["horizon"] for r in means] != [label for label, _ in HORIZONS] or any(
        len(srows) != len(HORIZONS) for srows in by_subject.values()
    ):
        problems.append("summary.csv: expected one row per horizon for MEAN and each subject")
        return
    for i, mean_row in enumerate(means):
        mapes = [float(srows[i]["mape"]) for srows in by_subject.values()]
        corrs = [_number(srows[i]["mean_correlation"]) for srows in by_subject.values()]
        corrs = [c for c in corrs if c is not None]
        got_mape, got_corr = float(mean_row["mape"]), _number(mean_row["mean_correlation"])
        want_corr = sum(corrs) / len(corrs) if corrs else None
        if not _close(got_mape, sum(mapes) / len(mapes)):
            problems.append(
                f"summary.csv: MEAN {mean_row['horizon']} MAPE is not the subject mean"
            )
        if (got_corr is None) != (want_corr is None) or (
            want_corr is not None and not _close(got_corr, want_corr)
        ):
            problems.append(
                f"summary.csv: MEAN {mean_row['horizon']} correlation is not the subject mean"
            )


def check_outputs(out_dir, data_dir, workload):
    """Problems found in one invocation's outputs; empty when all checks pass.

    workload gives `command` ("report" or "simulate-all", which is
    `simulate --subject all`), `paths`, `group_count` and `group_size`.
    """
    out = Path(out_dir)
    universe = Universe(data_dir)
    subjects, files = expected_files(universe.tickers, workload.command, workload.group_count)
    problems = []
    if check_manifest(out, files, problems):
        return problems
    try:
        _check_contents(out, universe, subjects, workload, problems)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def _check_contents(out, universe, subjects, workload, problems):
    if workload.command == "report":
        check_stats(out, universe, problems)
        check_groups(out, universe, workload.group_count, workload.group_size, problems)
        check_weights(out, universe, problems)
    reports = {}
    for subject in subjects:
        reports[subject] = read_table(out / f"report_{subject}.csv")
        check_report(f"report_{subject}.csv", reports[subject], problems)
        ticker = subject if subject in universe.tickers else None
        check_envelope(
            f"envelope_{subject}.csv",
            read_table(out / f"envelope_{subject}.csv"),
            universe,
            ticker,
            workload.paths,
            problems,
        )
    check_summary(out, subjects, reports, problems)
