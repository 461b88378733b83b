"""Spec validation errors.

:class:`SpecError` carries, beyond the offending section and message, an
optional *spec path* (the YAML key path of the offending node, e.g.
``("mapping", "loop-order", "Z")``) and an optional *source location*
(``file:line``).  Both are attached by the YAML loader when the spec came
from annotated text; errors raised on dict-built specs simply omit them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def _rebuild_spec_error(cls, section, message, path, location):
    """Unpickle helper: rebuild through :class:`SpecError`'s own init so
    subclasses with narrower signatures (``BuildError``) round-trip."""
    err = SpecError.__new__(cls)
    SpecError.__init__(err, section, message, path=path, location=location)
    return err


class SpecError(ValueError):
    """A TeAAL specification is malformed or internally inconsistent."""

    def __init__(self, section: str, message: str, *,
                 path: Optional[Sequence[str]] = None,
                 location: Optional[str] = None):
        self.section = section
        self.raw_message = message
        self.path: Optional[Tuple[str, ...]] = (
            tuple(str(p) for p in path) if path else None
        )
        self.location = location
        text = f"[{section}] {message}"
        if location:
            text += f" (at {location})"
        super().__init__(text)

    def __reduce__(self):
        # ValueError's default __reduce__ replays args, which for this
        # class is the single formatted string — not a valid (section,
        # message) pair.  Rebuild explicitly so SpecErrors survive a
        # pickle round trip.
        return (_rebuild_spec_error,
                (type(self), self.section, self.raw_message, self.path,
                 self.location))
