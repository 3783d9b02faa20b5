"""Exception hierarchy shared by every module in the package."""


class SpecmapError(Exception):
    """Base class for all errors raised by this package."""

    def at(self, path) -> "SpecmapError":
        """This error, its message prefixed with ``path``, the file it is about."""
        self.args = (f"{path}: {self}",)
        return self


class ConfigError(SpecmapError):
    """Invalid configuration: bad metadata, missing bands, bad thresholds."""


class DataError(SpecmapError):
    """Input data violates a precondition (non-finite samples, bad labels)."""


class DimensionMismatchError(DataError):
    """Two rasters that must share a shape do not."""


class FormatError(SpecmapError):
    """A file does not conform to its declared format."""


class TruncatedFileError(FormatError):
    """Payload shorter than the header promises."""


class RuleSyntaxError(SpecmapError):
    """Rule text failed to parse.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class MappingError(SpecmapError):
    """A legend mapping is not total over the labels it is applied to."""


class AmbiguousMappingError(MappingError):
    """A child label maps to more than one parent and no resolution picks one."""

    def __init__(self, codes):
        self.codes = tuple(sorted(codes))
        super().__init__(
            "ambiguous child labels need a resolution file: "
            + ", ".join(str(c) for c in self.codes)
        )
