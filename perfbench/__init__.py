"""Serving benchmark of the TurboTransformers reproduction.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
