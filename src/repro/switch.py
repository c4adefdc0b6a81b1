"""The one on/off switch mechanism behind ``REPRO_COMPILED_TAPE``,
``REPRO_SUFFSTATS``, ``REPRO_BATCH`` and ``REPRO_TELEMETRY``.

Each owner holds one :class:`Switch` and re-exports its bound methods as
the module-level ``enabled`` / ``enable`` / ``disable`` (and, for the
three replay paths, ``override``; see the "Environment switches" table in
``docs/API.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["Switch"]

_ON = ("1", "true", "on", "yes")
_OFF = ("0", "false", "off", "no")


class Switch:
    """A process-wide on/off flag, ``default`` unless the environment says.

    The variable takes ``1``/``true``/``on``/``yes`` or
    ``0``/``false``/``off``/``no`` in any case; unset or empty leaves the
    default, and any other value raises ``ValueError`` naming the variable
    rather than silently leaving the default.
    """

    def __init__(self, env_name: str, default: bool = True) -> None:
        raw = os.environ.get(env_name, "")
        value = raw.strip().lower()
        if value and value not in _ON + _OFF:
            raise ValueError(
                f"{env_name}={raw!r}: expected one of {'/'.join(_ON)} or "
                f"{'/'.join(_OFF)}"
            )
        #: Plain attribute so hot paths can read it without a call.
        self.on = value in _ON if value else default

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
