"""One cold start: import univoque and finish its lazy set-up.

Usage: python3 coldstart.py SRC_DIR
Prints one JSON line with the CPU seconds the main thread spent in
``compute_constants`` and in all of the set-up (import plus constants
and branches).  CPU time of the main thread, not wall time: on a
machine shared with other tenants the wall time of an import swings by
half as numpy's thread pool starts up and waits for a free CPU, while
the work the set-up does stays the same.  Run it under
``-X importtime`` to see which imports the time went to.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.thread_time()
import univoque  # noqa: E402

t1 = time.thread_time()
univoque.compute_constants()
t2 = time.thread_time()
univoque.branches()
t3 = time.thread_time()
print(json.dumps({"file": univoque.__file__, "constants_s": t2 - t1, "setup_s": t3 - t0}))
