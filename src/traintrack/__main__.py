"""``python -m traintrack``: the command-line interface of ``cli.main``,
exiting with its code."""

import sys

from .cli import main

sys.exit(main())
