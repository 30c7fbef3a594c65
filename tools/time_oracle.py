#!/usr/bin/env python3
"""Time the periodized oracle by stage.

Two calls, each repeated: a bound-160 `periodized_oracle` at t = 1 and
z = 0.25 + 1.3i, and a bound-3000 `periodized_oracle_basepoint` at t = 4
whose count moments are already built (the first call is left out).  Each
stage is timed inside the real call, by wrapping the module functions the
call looks up: for the bound-160 call `orbit_of_i`, the plane-kernel fit,
its series over the orbit and `orbit_tail`; for the basepoint call the
Chebyshev fit of h_t and `orbit_tail`.  What is left of the call is the
rest: the distances, sums and shell check of the first, the moment dot
product of the second.  Prints in-process medians in microseconds.  Run
from the repository root:

    python3 tools/time_oracle.py
"""

import statistics
import sys
import time

sys.path.insert(0, "src")

from autoheat import oracle  # noqa: E402
from autoheat.hyperbolic import HPoint  # noqa: E402

REPEATS = 21
ORBIT_CALL = (1.0, HPoint(0.25, 1.3), 160.0)
BASEPOINT_CALL = (4.0, 3000.0)


def staged(call, stages: dict) -> dict:
    """Median wall time over REPEATS calls of call(), in microseconds, of the
    whole call and of each stage function, timed where the call looks it
    up.  stages maps (namespace, name), a module or class and the name of a
    function in it, to its label, and optionally a second label for the
    callable the function returns."""
    labels = [label for pair in stages.values() for label in pair]
    spent = dict.fromkeys(labels, 0.0)

    def timed(fn, label, result_label=None):
        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[label] += time.perf_counter() - t0
            return timed(out, result_label) if result_label else out
        return wrapper

    saved = {key: getattr(*key) for key in stages}
    for (space, name), pair in stages.items():
        setattr(space, name, timed(saved[space, name], *pair))
    runs = {label: [] for label in ("call", *labels)}
    try:
        call()  # warm caches and imports
        for _ in range(REPEATS):
            spent.update(dict.fromkeys(labels, 0.0))
            t0 = time.perf_counter()
            call()
            runs["call"].append(time.perf_counter() - t0)
            for label in labels:
                runs[label].append(spent[label])
    finally:
        for (space, name), fn in saved.items():
            setattr(space, name, fn)
    return {label: 1e6 * statistics.median(v) for label, v in runs.items()}


def report(title: str, medians: dict, rest: str) -> None:
    total = medians.pop("call")
    print(f"{title}: {total:.1f} us, by stage (medians of {REPEATS}):")
    for label, value in medians.items():
        print(f"  {label:34s} {value:8.1f} us")
    print(f"  {rest:34s} {total - sum(medians.values()):8.1f} us")


def main() -> None:
    t, z, bound = ORBIT_CALL
    report(f"periodized_oracle(t={t:g}, z={z.x:g}+{z.y:g}i, bound {bound:g})",
           staged(lambda: oracle.periodized_oracle(t, z, bound),
                  {(oracle, "orbit_of_i"): ("orbit_of_i",),
                   (oracle, "_plane_kernel_fit"): ("fit (_plane_kernel_fit)",
                                                   "series over the orbit"),
                   (oracle, "orbit_tail"): ("orbit_tail",)}),
           "distances, sums, shell check")
    t, bound = BASEPOINT_CALL
    report(f"periodized_oracle_basepoint(t={t:g}, bound {bound:g}), moments built",
           staged(lambda: oracle.periodized_oracle_basepoint(t, bound),
                  {(oracle, "_chebyshev_coef"): ("fit of h_t (_chebyshev_coef)",),
                   (oracle, "orbit_tail"): ("orbit_tail",)}),
           "moment dot product, the rest")


if __name__ == "__main__":
    main()
