"""One set-up in a fresh process: ``python3 perfbench/probe.py WORKLOAD DIR``.

Imports the program, builds the workload's toolkit and store under
``DIR`` and prewarms the charging map as the workload does; the parent
times the whole process for ``setup_s``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

if __name__ == "__main__":
    from ledger import Tracer
    from workloads import WORKLOADS

    name, scratch = sys.argv[1], sys.argv[2]
    WORKLOADS[name](scratch, Tracer("probe")).setup()
