"""Known-bad fixture for SACHA005 (linted as if under repro/fpga/)."""

import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor


def sweep(items, attest):
    with ThreadPoolExecutor() as pool:
        results = list(pool.map(attest, items))
    return results, threading.active_count(), multiprocessing.cpu_count()
