"""Child process behind setup_s: time from a fresh interpreter to inputs ready.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The timed part is ``import workloads`` (which imports extinf) plus one
``build_inputs`` call.  The reference loop runs just before and just after,
before anything has imported extinf.  Prints one line:
``ref_before_ms setup_ms ref_after_ms``.
"""

import os
import sys
import time

import refspeed

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    refspeed.reference_ms()  # first call pays for cold caches
    before = refspeed.reference_ms()
    if any(name == "extinf" or name.startswith("extinf.") for name in sys.modules):
        print("the reference loop imported extinf", file=sys.stderr)
        return 1
    start = time.perf_counter()
    import workloads

    workloads.build_inputs(workload, seed)
    setup = time.perf_counter() - start
    after = refspeed.reference_ms()
    print(before, setup * 1e3, after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
