"""``python -m symgen``: the command-line front door (see ``cli``)."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
