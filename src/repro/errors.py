"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass that applies.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """A configuration object contains an invalid or inconsistent value."""


class UnknownScenarioError(ConfigError):
    """A scenario or Monte-Carlo regime name is not in its registry.

    Subclasses :class:`ConfigError` so existing ``except ConfigError``
    call sites keep working; the message lists the registered names."""


class GeoError(ReproError):
    """Invalid geographic input (bad coordinates, unknown country/city)."""


class AddressError(ReproError):
    """Invalid IPv4 address or prefix input."""


class TopologyError(ReproError):
    """The AS-level topology is missing an entity or violates an invariant."""


class RoutingError(ReproError):
    """No valid route exists, or routing state is inconsistent."""


class MeasurementError(ReproError):
    """A measurement request is invalid or violates platform constraints."""


class DatasetError(ReproError):
    """A dataset substrate received an invalid query or record."""


class AnalysisError(ReproError):
    """An analysis was asked to operate on unsuitable result data."""


class ServiceError(ReproError):
    """The serving layer received an invalid query, ingest or snapshot."""


class EmptyDirectoryError(ServiceError):
    """A query or stream was requested from a directory with no history."""


class UnknownEndpointError(ServiceError):
    """An endpoint code is outside the directory's known range (a caller
    bug, unlike code -1 which means "valid id, never observed" and falls
    back to the direct tier)."""


class UnknownCountryError(ServiceError):
    """A country name or code does not exist in the directory's pools."""


class TimelineError(ReproError):
    """A fault-timeline event or schedule is invalid."""


class WorldCacheError(ReproError):
    """A world snapshot could not be captured or restored.

    Raised only for caller bugs (capturing before the fabric is built,
    restoring onto a mismatched world); unreadable or stale cache *files*
    never raise — they are treated as misses and rebuilt."""


class StoreError(ReproError):
    """An array file could not be written, or is missing, truncated, not an
    archive or of another format version.  ``path`` names the file."""

    def __init__(self, path, reason: str) -> None:
        super().__init__(path, reason)  # both in args, so it pickles
        self.path = path

    def __str__(self) -> str:
        return "%s: %s" % self.args
