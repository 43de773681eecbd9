#!/usr/bin/env python3
"""Large-scale experiment preset (20x20 grid, 3 agents, 3 snapshots each, N=9).

Figure data lands in out/paper.
"""

import sys

from dkoopman.cli import main

if __name__ == "__main__":
    sys.exit(main(["experiment", "--config", "configs/paper.json"]))
