"""`python -m thermops`: the same command line as the `thermops` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
