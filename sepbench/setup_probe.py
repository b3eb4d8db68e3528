"""Set-up probe: what a fresh interpreter does before sepprob samples.

    python3 sepbench/setup_probe.py <src-dir> <dim_a> <dim_b> <workers>

Imports sepprob from <src-dir>, makes the first calls that fill the
su_basis/d_tensor caches and initialise BLAS/LAPACK, and, for more than one
worker, starts a process pool and has each worker sample once.  Prints
``ready`` when done; the caller times the interval up to that line.
"""

from __future__ import annotations

import sys


def warm_up(dims: tuple[int, int]) -> None:
    """First-call set-up in this process: caches and the first LAPACK call."""
    from sepprob import invariants, random_states

    measure = random_states.hilbert_schmidt(dims[0] * dims[1])
    invariants.record_batch(random_states.state_batch(measure, 0, 0, 64), dims)


def main(argv: list[str]) -> int:
    src, dim_a, dim_b, workers = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    sys.path.insert(0, src)
    import sepprob  # noqa: F401  (the import is part of what is timed)
    from sepprob import random_states, runner

    dims = (dim_a, dim_b)
    warm_up(dims)
    if workers == 1:
        print("ready", flush=True)
        return 0
    measure = random_states.hilbert_schmidt(dim_a * dim_b)
    with runner.ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(random_states.state_batch, measure, 0, i, 8)
                   for i in range(workers)]
        for f in futures:
            f.result()
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
