"""Plain-text report rendering shared by every command.

One ``key: value`` line per entry, floats printed with %.17g so equal runs
produce byte-identical text.  Keys under ``timing.`` sort to the end and are
the only lines expected to differ between repeat runs; ``strip_timings``
removes them for comparisons.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Report", "format_value", "strip_timings"]


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, complex):
        return "%.17g%+.17gj" % (value.real, value.imag)
    return str(value)


@dataclasses.dataclass
class Report:
    """Ordered key/value lines with timing entries kept apart."""

    entries: list[tuple[str, object]] = dataclasses.field(default_factory=list)
    timings: list[tuple[str, float]] = dataclasses.field(default_factory=list)

    def add(self, key: str, value: object) -> None:
        if key.startswith("timing."):
            self.timings.append((key, float(value)))  # type: ignore[arg-type]
        else:
            self.entries.append((key, value))

    def add_timing(self, key: str, seconds: float) -> None:
        if not key.startswith("timing."):
            key = "timing." + key
        self.timings.append((key, seconds))

    def render(self) -> str:
        lines = [f"{k}: {format_value(v)}" for k, v in self.entries]
        lines += [f"{k}: {format_value(v)}" for k, v in self.timings]
        return "\n".join(lines) + "\n"


def strip_timings(text: str) -> str:
    """Drop timing.* lines; what remains must be reproducible byte for byte."""
    kept = [
        line
        for line in text.splitlines()
        if not line.startswith("timing.")
    ]
    return "\n".join(kept) + ("\n" if kept else "")
