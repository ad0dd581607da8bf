"""Shared exception types.

Every failure the library reports on purpose is a :class:`LabError`
subclass carrying the CLI exit code it maps to."""


class LabError(Exception):
    """Base of the library's own failures."""

    exit_code = 1

    def cli_line(self) -> str:
        """The one stderr line the CLI prints for this failure."""
        return f"error: {type(self).__name__}: {self}"


class RefusalError(LabError):
    """The requested computation is out of the tool's honest range
    (enumeration too large, conditioning event too rare, sample too small)."""

    exit_code = 3

    def cli_line(self) -> str:
        return f"refused: {self}"


class SimulationFault(LabError):
    """A probe fell outside memory, or ``rank`` charged more probes than
    its layout's worst case."""

    exit_code = 4


class CorruptFootprint(LabError):
    """Replay ran out of recorded cells or left some unread."""

    exit_code = 5


class CorruptEncoding(LabError):
    """A record failed to parse or contradicts itself."""

    exit_code = 6
