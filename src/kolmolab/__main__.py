"""``python -m kolmolab``: the command line of :mod:`kolmolab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
