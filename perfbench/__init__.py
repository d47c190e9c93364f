"""End-to-end benchmark of whole ComDML runs, with an externally traced layer split.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; see ``perfbench/README.md``.
"""
