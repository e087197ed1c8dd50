"""Set-up probe: import `seqalign.cli`, load every input file, print the monotonic clock.

Run by run.py in a fresh interpreter as `python3 perfbench/setup_probe.py DIR`
with the checkout's `src` on PYTHONPATH. The launcher reads the clock before
starting the process, so the difference is the set-up time a user pays
before the first alignment: interpreter start, import, input loading.
"""

import os
import sys
import time


def main(directory: str) -> None:
    from seqalign import cli  # noqa: F401  importing the CLI is part of set-up
    from seqalign import io
    from seqalign.core import get_alphabet

    dna = get_alphabet("dna")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".fa"):
            io.load_sequences(os.path.join(directory, name), dna)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1])
