"""`python -m seqalign ...`: the command-line interface, where no script is installed."""

import sys

from .cli import main

sys.exit(main())
