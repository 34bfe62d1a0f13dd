"""Package version, kept in a tiny module so nothing heavy is imported for it."""

__version__ = "1.15.0"
