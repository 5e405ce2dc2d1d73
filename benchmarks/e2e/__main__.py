"""``python -m benchmarks.e2e <command>`` — see ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
