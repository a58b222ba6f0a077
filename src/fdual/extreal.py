"""Extended reals are floats: floats and numpy carry +-inf, the divergence of
a pair P not dominated by Q or a supremum along a ray. ``ExtReal`` is a float
that also reads ``is_finite``; it stays for callers of ``LinearBall.radius``
and of the two values of a ``GapReport``.
"""

import math

__all__ = ["ExtReal", "POS_INF", "finite"]


class ExtReal(float):
    """The number ``ExtReal(x)``, a float, with ``is_finite``."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self)


POS_INF = ExtReal(math.inf)


def finite(x: float) -> ExtReal:
    """``x`` as an ``ExtReal``; a ValueError if it is NaN or +-inf."""
    if not math.isfinite(v := ExtReal(x)):
        raise ValueError(f"{v!r} is not finite")
    return v
