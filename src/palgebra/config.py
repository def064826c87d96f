"""Run-wide knobs: size caps, sweep budget, RNG seed; DEFAULT is read on first use."""

import os
from typing import NamedTuple


class Config(NamedTuple):
    """Immutable; ``DEFAULT._replace(budget=1000)`` is a copy with one knob changed."""
    poset_cap: int = 2048        # largest base poset we will build
    element_cap: int = 4096      # largest algebra we will materialize
    oracle_cap: int = 12         # largest |A| whose whole congruence lattice is listed
    budget: int = 10_000_000     # valuation sweeps are capped at |A|**vars <= budget
    seed: int = 0


def from_env() -> Config:
    """Defaults, each overridable through PALGEBRA_<FIELD>."""
    values = {}
    for field in Config._fields:
        name = f"PALGEBRA_{field.upper()}"
        raw = os.environ.get(name)
        if raw is not None:
            try:
                values[field] = int(raw)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    return Config(**values)


def __getattr__(name: str):
    if name == "DEFAULT":
        global DEFAULT
        DEFAULT = from_env()
        return DEFAULT
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
