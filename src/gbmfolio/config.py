"""Run configuration: defaults, flat key=value config files, flag overrides."""

import datetime as dt
import math
from dataclasses import dataclass, replace

from .errors import DataError
from .evaluation import DEFAULT_HORIZONS, MAPE_DENOMINATORS, HorizonSpec


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    calibration_start: dt.date = dt.date(2016, 1, 1)
    calibration_end: dt.date = dt.date(2018, 12, 31)
    evaluation_start: dt.date = dt.date(2019, 1, 1)
    evaluation_end: dt.date = dt.date(2019, 12, 31)
    risk_free: float = 0.019  # per year
    n_paths: int = 1000
    n_trials: int = 100_000
    seed: int = 0
    group_count: int = 6
    group_size: int = 13
    horizons: tuple = DEFAULT_HORIZONS
    mape_denominator: str = "forecast"

    def __post_init__(self):
        if self.calibration_end >= self.evaluation_start:
            raise DataError("calibration window must end before evaluation window starts")
        if self.n_paths < 1 or self.n_trials < 1:
            raise DataError("paths and trials must be >= 1")
        if self.group_count < 1 or self.group_size < 1:
            raise DataError("group count and size must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.risk_free):
            raise DataError(f"risk_free must be finite, got {self.risk_free}")
        labels = [h.label for h in self.horizons]
        for label in labels:
            if labels.count(label) > 1:
                raise DataError(f"horizon label {label!r} is given more than once")
        if self.mape_denominator not in MAPE_DENOMINATORS:
            raise DataError(f"unknown mape_denominator {self.mape_denominator!r}")


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


_PARSERS = {
    "data_dir": str,
    "out_dir": str,
    "calibration_start": dt.date.fromisoformat,
    "calibration_end": dt.date.fromisoformat,
    "evaluation_start": dt.date.fromisoformat,
    "evaluation_end": dt.date.fromisoformat,
    "risk_free": float,
    "n_paths": int,
    "n_trials": int,
    "seed": int,
    "group_count": int,
    "group_size": int,
    "horizons": parse_horizons,
    "mape_denominator": str,
}


def load_config(path):
    """Flat "key = value" file; blank lines and # comments ignored."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq or key not in _PARSERS:
                    raise DataError(f"{path}:{lineno}: bad config line {line!r}")
                try:
                    overrides[key] = _PARSERS[key](value.strip())
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(f"config {path} is not UTF-8 text") from None
    return RunConfig(**overrides)


def apply_overrides(config, **kwargs):
    """New config with the non-None keyword values applied."""
    changes = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **changes) if changes else config
