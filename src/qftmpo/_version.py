"""The package version: `qftmpo.__version__`, and what every chain sidecar records."""

__version__ = "0.1.0"
