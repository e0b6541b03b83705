"""End-to-end and per-layer benchmark of the MIND reproduction.

Run ``python3 mindbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``mindbench/README.md``.
"""
