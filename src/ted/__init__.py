"""Frame-level facial temporal-expressiveness scoring and analysis."""

__version__ = "0.1.0"
