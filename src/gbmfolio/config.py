"""Run configuration: defaults and flat key=value config files."""

import datetime as dt
import math
from dataclasses import dataclass, fields

from .errors import DataError, SettingsError
from .evaluation import DEFAULT_HORIZONS, HorizonSpec


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    calibration_start: dt.date = dt.date(2016, 1, 1)
    calibration_end: dt.date = dt.date(2018, 12, 31)
    evaluation_end: dt.date = dt.date(2019, 12, 31)
    risk_free: float = 0.019  # per year
    n_paths: int = 1000
    n_trials: int = 100_000
    seed: int = 0
    group_count: int = 6
    group_size: int = 13
    horizons: tuple = DEFAULT_HORIZONS

    def __post_init__(self):
        for key in ("data_dir", "out_dir"):
            if not getattr(self, key):
                raise SettingsError(f"{key} is empty; name a directory (. for the current one)")
        start, end = self.calibration_start, self.calibration_end
        if start > end:
            raise SettingsError(f"calibration_start {start} is after calibration_end {end}")
        if end >= self.evaluation_end:
            raise SettingsError(
                f"calibration_end {end} is on or after evaluation_end {self.evaluation_end}"
            )
        if self.n_paths < 1 or self.n_trials < 1:
            raise SettingsError("paths and trials must be >= 1")
        if self.group_count < 1 or self.group_size < 1:
            raise SettingsError("group count and size must be >= 1")
        if self.seed < 0:
            raise SettingsError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.risk_free):
            raise SettingsError(f"risk_free must be finite, got {self.risk_free}")
        labels = [h.label for h in self.horizons]
        for label in labels:
            if labels.count(label) > 1:
                raise SettingsError(f"horizon label {label!r} is given more than once")


def parse_horizons(text):
    """Parse "1w:5,2w:10,..." into HorizonSpec tuples."""
    specs = []
    for part in text.split(","):
        label, _, days = part.partition(":")
        label = label.strip()
        if not label or not days.strip():
            raise DataError(f"bad horizon {part!r}, expected label:days")
        try:
            specs.append(HorizonSpec(label, int(days)))
        except ValueError:
            raise DataError(f"bad horizon {part!r}, days must be an integer") from None
    return tuple(specs)


# the parser of a setting's text, by the type of its RunConfig field
_PARSERS = {str: str, dt.date: dt.date.fromisoformat, float: float, int: int, tuple: parse_horizons}
# every run setting, by config key, with the parser of its text; the CLI makes one flag per key
SETTINGS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def load_config(path):
    """A flat "key = value" file's settings, as RunConfig keyword arguments
    (checked by RunConfig with the flags); blank lines, # comments and a
    leading UTF-8 byte-order mark ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq or key not in SETTINGS:
                    raise DataError(f"{path}:{lineno}: bad config line {line!r}")
                if key in values:
                    raise DataError(f"{path}:{lineno}: {key} is set more than once")
                try:
                    values[key] = SETTINGS[key](value.strip())
                except (ValueError, DataError) as exc:
                    raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(f"config {path} is not UTF-8 text") from None
    return values
