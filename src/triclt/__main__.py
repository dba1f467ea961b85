"""``python -m triclt``: the same command line as the ``triclt`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
