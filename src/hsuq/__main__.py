"""Run the ``hsuq`` command line as ``python -m hsuq``."""

from .experiments import cli_main

if __name__ == "__main__":
    raise SystemExit(cli_main())
