"""Records layer spans in processes that a traced benchmark run launches.

A traced ``bench.py`` child puts this directory on ``PYTHONPATH`` for the
processes it starts (the workers of ``repro fabric run``) and names its
span directory in ``REPRO_BENCH_SPANS``; Python imports this module at
start-up, before ``python -m repro`` runs.
"""

import os
import sys

if os.environ.get("REPRO_BENCH_SPANS"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    layers.install_in_worker()
