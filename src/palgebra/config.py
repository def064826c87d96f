"""Run-wide knobs: size caps, sweep budget, RNG seed."""

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    poset_cap: int = 2048        # largest base poset we will build
    element_cap: int = 4096      # largest algebra we will materialize
    oracle_cap: int = 12         # largest |A| for the brute-force congruence oracle
    budget: int = 10_000_000     # valuation sweeps are capped at |A|**vars <= budget
    seed: int = 0


def from_env() -> Config:
    """Defaults, overridable through PALGEBRA_* environment variables."""
    def geti(name: str, fallback: int) -> int:
        raw = os.environ.get(name)
        return fallback if raw is None else int(raw)

    return Config(
        poset_cap=geti("PALGEBRA_POSET_CAP", 2048),
        element_cap=geti("PALGEBRA_ELEMENT_CAP", 4096),
        oracle_cap=geti("PALGEBRA_ORACLE_CAP", 12),
        budget=geti("PALGEBRA_BUDGET", 10_000_000),
        seed=geti("PALGEBRA_SEED", 0),
    )


DEFAULT = from_env()
