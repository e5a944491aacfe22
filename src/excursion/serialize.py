"""CSV serialization helpers shared by every emitter.

Floats are written with 17 significant digits: that is enough to
round-trip any double exactly, which is what makes output files
byte-reproducible across runs and re-feedable as input.  A non-finite
float is refused, so no result is ever written as ``inf`` or ``nan``.
"""

from __future__ import annotations

import math

from .errors import ValidationError

__all__ = ["format_value", "csv_line", "csv_text"]


def format_value(v) -> str:
    """One CSV cell: floats at full precision, None as an empty field."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite value {v!r} cannot be written as a result")
        return "%.17g" % float(v)
    return str(v)


def csv_line(values) -> str:
    return ",".join(format_value(v) for v in values)


def csv_text(header, rows) -> str:
    """A whole CSV file: the header line, then one line per row, each
    line ended by a newline."""
    return "\n".join([",".join(header), *(csv_line(row) for row in rows)]) + "\n"
