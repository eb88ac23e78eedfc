"""End-to-end benchmark of record for the out-of-core SpGEMM system.

Run ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see :mod:`e2ebench.run`.
"""
