"""Run configuration: defaults, key=value config files, environment override."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from importlib import resources

DATA_ENV_VAR = "AUTOHEAT_DATA"


@dataclass(frozen=True)
class RunConfig:
    maass_data_path: str | None = None  # None: $AUTOHEAT_DATA, then packaged data; never ""
    r_max: float = 12.0
    panels: int = 5
    nodes_per_panel: int = 32
    oracle_norm_bound: float = 25.0
    output_format: str = "csv"

    def __post_init__(self):
        if self.maass_data_path == "":
            raise ValueError("empty maass_data_path (--data): name a Maass data file, or leave "
                             f"the setting out for ${DATA_ENV_VAR} or the packaged data")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format '{self.output_format}'")

    def resolve_data_path(self) -> str:
        """The set path, else a non-empty $AUTOHEAT_DATA, else the packaged data."""
        return (self.maass_data_path or os.environ.get(DATA_ENV_VAR)
                or str(resources.files("autoheat").joinpath("data/maass_sl2z.dat")))


def parse_config_file(path: str) -> dict:
    """Read a key = value file of RunConfig fields; any other key is an error.
    A value parses by the type of its field's default, where None means a
    path; quotes are stripped from string values."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    updates: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got '{line}'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown configuration key '{key}'")
            kind = type(defaults[key])
            try:
                updates[key] = val.strip("\"'") if kind in (str, type(None)) else kind(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for '{key}': {exc}") from None
    return updates


def build_config(config_path: str | None = None, **overrides) -> RunConfig:
    """File first, then explicit flag overrides."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **parse_config_file(config_path))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg
