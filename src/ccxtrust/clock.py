"""Injectable time source.

Anything with lifetimes (challenge expiry, token validity, session TTLs,
record-log stamps) reads time through the clock passed to it instead of
calling time.time(), so every run replays deterministically.
"""

from __future__ import annotations


class VirtualClock:
    """Manually advanced clock starting at a fixed epoch."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("virtual time cannot move backwards")
        self._now += seconds
