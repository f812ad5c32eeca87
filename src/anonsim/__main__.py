"""`python -m anonsim`: the `anonsim` command, also from a source tree that is
not installed (`PYTHONPATH=src python -m anonsim ...`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
