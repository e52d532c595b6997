"""``python -m couplex``: the command-line interface of :mod:`couplex.cli`."""

import sys

from .cli import main

sys.exit(main())
