"""Helpers shared by the layers that load on first use (apostol_polys,
closed_forms, quadrature), kept out of exact_core so that ``import telesum``
does not compile them: a base for small immutable records, and the format of
a value past the double range in error messages.
"""

from __future__ import annotations

import math

_LOG10_2 = math.log10(2.0)


def _nstr(sign: float, log2: float) -> str:
    """sign * 2**log2 to 5 significant digits, trailing zeros dropped, for
    error messages about values past the double range."""
    exp10 = math.floor(log2 * _LOG10_2)
    digits, shift = ("%.4e" % 10.0 ** (log2 * _LOG10_2 - exp10)).split("e")
    digits = digits.rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return "%s%se%+d" % ("-" if sign < 0 else "", digits, exp10 + int(shift))


class _Record:
    """An immutable record whose fields are its class's __slots__, each set
    once in __init__; equality, hash and repr are a frozen dataclass's."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))
