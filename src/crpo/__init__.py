"""Confidence-reward preference data selection toolkit."""

__version__ = "0.1.0"
