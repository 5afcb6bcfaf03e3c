"""One fresh-process set-up sample for ``setup_s``.

``python -m perfbench.probe WORKLOAD SEED`` imports the library and runs
the workload's tiny profile once, paying every first-call cost. The
benchmark command (``perfbench/run.py``) times the whole process from
outside.
"""

import sys

from perfbench.workloads import WORKLOADS


if __name__ == "__main__":
    name, seed = sys.argv[1:]
    WORKLOADS[name]("tiny", int(seed)).start()
