"""The one kill-switch mechanism behind ``REPRO_COMPILED_TAPE``,
``REPRO_SUFFSTATS`` and ``REPRO_BATCH``.

Each replay fast path owns one :class:`Switch` and re-exports its bound
methods as the module-level ``enabled`` / ``enable`` / ``disable`` /
``override`` (see the "Environment switches" table in ``docs/API.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["Switch"]


class Switch:
    """A process-wide on/off flag, on unless the environment says off."""

    def __init__(self, env_name: str) -> None:
        raw = os.environ.get(env_name, "1").strip().lower()
        #: Plain attribute so hot paths can read it without a call.
        self.on = raw not in ("0", "false", "off", "no")

    def enabled(self) -> bool:
        return self.on

    def enable(self) -> None:
        self.on = True

    def disable(self) -> None:
        self.on = False

    @contextmanager
    def override(self, value: bool):
        """Temporarily force the switch on or off (tests, benchmarks)."""
        previous = self.on
        self.on = bool(value)
        try:
            yield
        finally:
            self.on = previous
