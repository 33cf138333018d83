"""The root of the unified repro exception hierarchy.

Every error the package raises — calendar-system errors
(:mod:`repro.core.errors`), expression-language errors
(:mod:`repro.lang.errors`) and database-substrate errors
(:mod:`repro.db.errors`) — derives from :class:`ReproError`, so an
application embedding the whole system can catch everything with one
``except ReproError`` while still discriminating subsystems.

A :class:`ReproError` carries a ``context`` payload: a plain dict that
evaluation layers enrich as the exception propagates (the script text
being evaluated, the evaluation window, a line/column location when one
is known).  The payload is additive — an outer layer never overwrites a
key an inner layer already recorded, so the most specific information
wins.
"""

from __future__ import annotations

__all__ = ["ReproError"]


class ReproError(Exception):
    """Base class of every exception raised by the repro package.

    ``context`` holds structured diagnostic information (script text,
    evaluation window, span location …) added by the layer that raised
    the error and enriched by the layers it propagates through.
    """

    def __init__(self, *args, context: dict | None = None) -> None:
        super().__init__(*args)
        #: Structured diagnostic payload; see :meth:`add_context`.
        self.context: dict = dict(context) if context else {}

    def add_context(self, **entries) -> "ReproError":
        """Merge diagnostic entries without overwriting existing keys.

        Returns ``self`` so enrichment can be chained inline in an
        ``except`` clause before re-raising.
        """
        for key, value in entries.items():
            self.context.setdefault(key, value)
        return self
