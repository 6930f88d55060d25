"""``python -m mrlrc``: the command-line front end (mrlrc.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
