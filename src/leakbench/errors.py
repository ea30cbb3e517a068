"""Exception hierarchy shared across the harness.

The CLI maps these onto exit codes: usage problems exit 1, data/split
problems exit 2, and a contaminated clean split exits 3.
"""

from contextlib import contextmanager


class LeakbenchError(Exception):
    """Base class for all harness errors."""


class DataError(LeakbenchError):
    """Raised when input data cannot be loaded or violates series invariants."""


@contextmanager
def reading(path):
    """Turn an OSError or UnicodeDecodeError raised in the block, as from a
    directory or a file that is not UTF-8, into a DataError naming `path`."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc


class WindowError(LeakbenchError):
    """Raised for invalid windowing parameters."""


class SplitError(LeakbenchError):
    """Raised when a split cannot be constructed (empty partition, bad spec)."""


class TrainingError(LeakbenchError):
    """Raised when model training cannot proceed or diverges."""


class AuditError(LeakbenchError):
    """Raised when buffering exhausts a partition or no clearing gap exists."""


class ContaminationError(LeakbenchError):
    """Raised when a clean-mode split audits as contaminated.

    This firing means the splitting layer is broken; the runner treats it
    as fatal regardless of --keep-going.
    """
