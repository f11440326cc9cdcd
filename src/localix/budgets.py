"""Size budgets guarding every potentially exponential enumeration.

Budgets may be overridden per call, via CLI flags, or via the
LOCALIX_BUDGETS environment variable (e.g. ``gens=24,carrier=8``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import DomainError, ResourceBudgetError

__all__ = ["Budgets", "DEFAULT_BUDGETS", "budgets_from_env", "check_budget"]


@dataclass(frozen=True)
class Budgets:
    gens: int = 20            # presentation generators (2^gens valuations)
    carrier: int = 6          # polyposet / coverage base carrier size
    elements: int = 4096      # materialized lattice size
    sequent_gens: int = 6     # distinct generators per sequent (2^n-bit tables)
    sequent_depth: int = 5    # term nesting depth
    diagram: int = 64         # total diagram level size
    unsafe: bool = False      # when set, budgets are not enforced

    def bumped(self, **kw) -> "Budgets":
        return replace(self, **kw)


DEFAULT_BUDGETS = Budgets()

_FIELDS = {"gens", "carrier", "elements", "sequent_gens", "sequent_depth", "diagram"}


def budgets_from_env(base: Budgets = DEFAULT_BUDGETS) -> Budgets:
    """Apply LOCALIX_BUDGETS overrides (comma-separated key=int pairs)."""
    raw = os.environ.get("LOCALIX_BUDGETS", "")
    if not raw.strip():
        return base
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise DomainError(f"unknown budget {key!r} in LOCALIX_BUDGETS")
        try:
            overrides[key] = int(val)
        except ValueError:
            raise DomainError(f"budget {key!r} in LOCALIX_BUDGETS is not an int: {val!r}") from None
    return base.bumped(**overrides)


def check_budget(budgets: Budgets, field: str, actual: int, shown: str = "") -> None:
    """Raise when ``actual`` exceeds the limit; ``shown`` replaces it in the message."""
    if budgets.unsafe:
        return
    limit = getattr(budgets, field)
    if actual > limit:
        raise ResourceBudgetError(
            f"{field} budget exceeded: {shown or actual} > {limit} "
            f"(pass a larger budget or unsafe=True to proceed)"
        )
