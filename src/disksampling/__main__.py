"""Entry point of ``python -m disksampling`` and the ``disksampling`` console script.

A command process pays only for the work its command does.  No command
calls BLAS (sums go through ``einsum`` without ``optimize``, transforms
through numpy's pocketfft, which also checks a kernel's eigenvalues, summed
from the spectrum, against its row, and the smallest against a finite sum
in Python integers where the FFT cannot resolve it), so the process asks
OpenBLAS for one thread unless ``OPENBLAS_NUM_THREADS`` is already set,
which spares the worker thread it would start while numpy loads.  Once the command has
returned, with its output files closed, and stdout and stderr are flushed,
the process ends without the interpreter's teardown, so ``atexit`` handlers
do not run; a raising command, an argparse exit and a failing flush exit the
normal way.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run_command

    code = run_command()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        # the interpreter's shutdown flushes again and reports the failure
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
