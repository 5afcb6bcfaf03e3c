"""End-to-end host-time benchmark for the ``repro`` library.

Run from the repository root: ``python3 perfbench/run.py --workload
fabric_des --seed 0 --seconds 20 --trace 0``. See ``perfbench/README.md``
for the workloads, their metrics and why each exists.
"""
