"""``python -m semitoric``: the batch JSON front end of ``cli.py``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
