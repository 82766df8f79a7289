"""Set-up time of quadpole in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR RULE_ORDER [RULE_ORDER ...]

Times importing quadpole and its CLI, building the argument parser and
loading the given Lebedev rules, and prints the seconds taken.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import quadpole.cli  # noqa: E402
from quadpole.quadrature import lebedev_rule  # noqa: E402

quadpole.cli.build_parser()
for order in sys.argv[2:]:
    lebedev_rule(int(order))
print(time.perf_counter() - T0)
