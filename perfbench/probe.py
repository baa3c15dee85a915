"""Set-up probe: a fresh process that sets a workload up and says "ready".

``run.py`` starts it several times and times each from start to the
"ready" line: interpreter start, ``import levynoise``, building the
workload's inputs and filling the lazy caches.  The line also gives the
CPU time of the main thread so far, which ``run.py`` uses for
``setup_s``.  The main thread does all of that work; the CPU time of the
whole process would also count the BLAS pool's threads, which spin at
start-up for as long as another CPU lets them.
"""

import argparse
import sys
import time

from run import OUT, WORKLOAD_NAMES, prepare
from spans import NullTracer

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--smoke", action="store_true")
args = parser.parse_args()
prepare()
import workloads  # noqa: E402  (after prepare() has put src/ on the path)

workloads.set_up(args.workload, args.seed, args.smoke, NullTracer(), workloads.Tally(), OUT)
print(f"ready {time.thread_time()!r}", flush=True)
sys.exit(0)
