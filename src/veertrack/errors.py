"""Exception hierarchy shared by all modules.

Degeneracies (ties, axis-parallel periods, simultaneous events) are kept
distinct from plain errors so the CLI can map them to exit code 2.
"""


class VeertrackError(Exception):
    """Base class for everything this package raises on purpose."""


class DocumentError(VeertrackError):
    """Malformed or semantically inconsistent surface document."""


class DegeneracyError(VeertrackError):
    """A tie or borderline configuration the algorithms refuse to resolve.

    Examples: axis-parallel period, equal L-infinity lengths in a Delaunay
    certificate, width tie inside a triangle, simultaneous split events.
    """


class NotFlippableError(VeertrackError):
    """Requested flip has a non-convex quadrilateral."""
