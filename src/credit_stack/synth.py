"""Seeded synthetic statement datasets with a planted, known signal.

Each generated customer carries a latent per-column base level drawn
from N(0,1) and snapped to the 0.01 value grid; statements wobble
around that base.  The default probability is a logistic function of
the mean base over the configured signal columns, so exactly those
columns are informative and everything else is noise — which makes
learner and importance behavior checkable.  Small uniform noise is
added last so the ingest rounding step has real work to undo, and
negatives are thinned to mimic a heavily subsampled training extract.

One generator drives every draw in a fixed order (full-history pick,
statement counts, bases, wobbles, categorical codes, missing masks,
labels, value noise, negative keep), so a seed pins the entire output
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as _date

import numpy as np

from .errors import ConfigError
from .ingest import MISSING_CODE, ColumnSchema, StatementTable, snap_to_grid
from .serialize import load_config_doc

#: value grid for continuous columns; matches the default cleanup precision
GRID = 0.01

_WIGGLE_SD = 0.3
_MISSING_RATE = 0.02
# logistic link for the default probability; tuned so the generated raw
# positive rate sits near 4.5%, which keeps the capture-rate component
# of the evaluation metric informative after negative thinning
_INTERCEPT = -6.8
_SLOPE = 3.6
_FULL_MONTHS = 13
_FIRST_MONTH = (2017, 3)  # statements span 13 months ending 2018-03


@dataclass(frozen=True)
class SynthConfig:
    """Shape and signal knobs for one synthetic dataset."""

    n_customers: int
    frac_full: float = 0.8
    n_continuous: int = 8
    n_categorical: int = 2
    signal_features: tuple[str, ...] = ("cont_00",)
    noise_amplitude: float = 0.004
    neg_keep_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_customers < 10:
            raise ConfigError(f"n_customers must be >= 10, got {self.n_customers}")
        if not 0.0 <= self.frac_full <= 1.0:
            raise ConfigError(f"frac_full must lie in [0, 1], got {self.frac_full}")
        if self.n_continuous < 0 or self.n_categorical < 0:
            raise ConfigError("column counts must be non-negative")
        if self.noise_amplitude < 0:
            raise ConfigError(f"noise_amplitude must be >= 0, got {self.noise_amplitude}")
        if not 0.0 < self.neg_keep_rate <= 1.0:
            raise ConfigError(f"neg_keep_rate must lie in (0, 1], got {self.neg_keep_rate}")
        known = {f"cont_{i:02d}" for i in range(self.n_continuous)}
        unknown = set(self.signal_features) - known
        if unknown:
            raise ConfigError(f"signal_features outside declared columns: {sorted(unknown)}")


def config_from_json(source) -> SynthConfig:
    """Load a SynthConfig from a JSON file path or a parsed dict."""
    return SynthConfig(**load_config_doc(source, "synth config", SynthConfig))


def synth_schema(config: SynthConfig) -> list:
    """Column schema describing generated CSVs, ready for the cleaner."""
    schema = [
        ColumnSchema("customer_id", "identifier"),
        ColumnSchema("statement_date", "date"),
    ]
    for i in range(config.n_continuous):
        schema.append(
            ColumnSchema(f"cont_{i:02d}", "continuous", "float32", (-8.0, 8.0))
        )
    for j in range(config.n_categorical):
        schema.append(ColumnSchema(f"cat_{j}", "categorical", "int8"))
    return schema


def _month_ordinals() -> np.ndarray:
    year, month = _FIRST_MONTH
    out = []
    for k in range(_FULL_MONTHS):
        y, m = year + (month - 1 + k) // 12, (month - 1 + k) % 12 + 1
        out.append(_date(y, m, 1).toordinal())
    return np.asarray(out, dtype=np.int64)


def generate(config: SynthConfig):
    """Build one dataset; returns (StatementTable, customer_id -> label).

    floor(frac_full * n) seeded-random customers get the full 13
    statements, the rest a uniform count in 1..12 (always the most
    recent months).  Labels are Bernoulli in the per-customer default
    probability; negatives survive with probability ``neg_keep_rate``
    while every positive is kept.
    """
    if not config.signal_features:
        raise ConfigError("signal_features is empty; labels would be pure coin flips")

    n = config.n_customers
    rng = np.random.default_rng(config.seed)

    # 1) who gets complete history, 2) statement counts for the rest
    n_full = math.floor(config.frac_full * n)
    perm = rng.permutation(n)
    counts = np.empty(n, dtype=np.int64)
    counts[perm[:n_full]] = _FULL_MONTHS
    short = perm[n_full:]
    counts[np.sort(short)] = rng.integers(1, _FULL_MONTHS, size=short.size)

    total = int(counts.sum())
    row_customer = np.repeat(np.arange(n), counts)

    # 3) latent bases, 4) per-statement wobble -> grid-snapped values
    bases = snap_to_grid(rng.standard_normal((n, config.n_continuous)), GRID)
    wiggle = rng.standard_normal((total, config.n_continuous)) * _WIGGLE_SD
    values = snap_to_grid(bases[row_customer] + wiggle, GRID)

    # 5) categorical codes (cardinality grows with the column index)
    codes = np.empty((total, config.n_categorical), dtype=np.int64)
    for j in range(config.n_categorical):
        codes[:, j] = rng.integers(0, 3 + j, size=total)

    # 6) sparse missingness on both kinds
    values[rng.random((total, config.n_continuous)) < _MISSING_RATE] = np.nan
    codes[rng.random((total, config.n_categorical)) < _MISSING_RATE] = MISSING_CODE

    # 7) labels from the signal columns' mean base
    signal_idx = [int(name[5:]) for name in config.signal_features]
    drive = bases[:, signal_idx].mean(axis=1)
    p_default = 1.0 / (1.0 + np.exp(-(_INTERCEPT + _SLOPE * drive)))
    labels = (rng.random(n) < p_default).astype(np.int8)

    # 8) injected uniform value noise for the rounding step to remove
    noise = rng.uniform(-config.noise_amplitude, config.noise_amplitude,
                        (total, config.n_continuous))
    values = values + noise  # NaN cells stay NaN

    # 9) negative thinning; positives always survive
    keep = (labels == 1) | (rng.random(n) < config.neg_keep_rate)
    if not keep.any():
        raise ConfigError(
            f"no customer survives negative thinning; raise n_customers ({n}) "
            f"or neg_keep_rate ({config.neg_keep_rate})"
        )

    keep_row = keep[row_customer]
    row_customer = row_customer[keep_row]
    values = values[keep_row]
    codes = codes[keep_row]
    kept_counts = counts[keep]

    months = _month_ordinals()
    offsets = np.concatenate([np.arange(c) for c in kept_counts])
    dates = months[offsets + (_FULL_MONTHS - np.repeat(kept_counts, kept_counts))]

    ids_all = np.array([f"C{i:06d}" for i in range(n)], dtype=object)
    customer_ids = ids_all[row_customer]

    columns: dict = {"statement_date": dates}
    for i in range(config.n_continuous):
        columns[f"cont_{i:02d}"] = values[:, i].copy()
    for j in range(config.n_categorical):
        columns[f"cat_{j}"] = codes[:, j].copy()

    table = StatementTable(synth_schema(config), customer_ids, columns)
    label_map = {ids_all[i]: int(labels[i]) for i in np.flatnonzero(keep)}
    return table, label_map
