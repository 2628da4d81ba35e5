"""``python -m voxseg``: the same command line as the ``voxseg`` script."""

import sys

from .cli import main

sys.exit(main())
