"""``python -m multiphoton``: the command-line interface of :mod:`multiphoton.cli`."""

import sys

from .cli import main

sys.exit(main())
