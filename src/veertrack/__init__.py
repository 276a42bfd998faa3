"""veertrack: L-infinity Delaunay triangulations of half-translation
surfaces, dual train tracks, and event-driven splitting sequences under the
diagonal flow."""

from .errors import DegeneracyError, DocumentError, NotFlippableError, VeertrackError
from .surface import Surface, parse_surface, serialize_surface, validate, area

__all__ = [
    "DegeneracyError",
    "DocumentError",
    "NotFlippableError",
    "VeertrackError",
    "Surface",
    "parse_surface",
    "serialize_surface",
    "validate",
    "area",
]

__version__ = "0.1.0"
