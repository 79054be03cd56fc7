"""Command-line entry point for ``python -m screencurve``."""

from .cli import main

if __name__ == "__main__":
    main()
