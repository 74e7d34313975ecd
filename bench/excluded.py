"""Known-unfinished almost-duality cases, run on demand with their recorded bound.

These cases are left out of the timed workloads because a single call
runs past the bound below; ``bench/excluded.json`` records them. Run one
from the repository root to see whether a change brings it under the bound:

    python3 bench/excluded.py --case A3-verify_certificate --seed 1

The case runs in this process and is stopped by SIGALRM at the bound. The
last line of output is JSON with the case, the bound and either the
seconds taken or ``"timeout": true``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

with open(BENCH / "excluded.json") as _fh:
    CASES = {c["case"]: c for c in json.load(_fh)}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_case(case: str, seed: int) -> dict:
    import workloads

    spec = CASES[case]
    lib = workloads._lib()
    potential, call = case.split("-", 1)
    _, A, E = workloads._frobenius_inputs(lib, seed, names=(potential,))[potential]
    duality = lib["duality"]
    if call == "dubrovin_dual":
        work = lambda: duality.dubrovin_dual(A, E)  # noqa: E731
    else:
        cert = duality.dubrovin_dual(A, E)
        work = lambda: duality.verify_certificate(cert)  # noqa: E731
    bound = spec["bound_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(bound)
    start = time.perf_counter()
    try:
        work()
        result = {"case": case, "seed": seed, "bound_s": bound, "seconds": time.perf_counter() - start}
    except _Timeout:
        result = {"case": case, "seed": seed, "bound_s": bound, "timeout": True}
    finally:
        signal.alarm(0)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one excluded case with its bound.")
    parser.add_argument("--case", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(run_case(args.case, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
