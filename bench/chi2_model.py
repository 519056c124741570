"""External model for the ``chi2-external`` workload: y = x1 + x2**2.

Speaks the line protocol of ``relsense.external``: one request line of
two floats in, one float out, flushed after every answer.  ``x2 * x2``
is the exact square the builtin's vectorised ``x2 ** 2`` computes, and
``repr`` prints the shortest string that reads back as the same double,
so a campaign over this process must reproduce the builtin bit for bit.
"""

import sys


def main():
    read, write, flush = sys.stdin.readline, sys.stdout.write, sys.stdout.flush
    while True:
        line = read()
        if not line:
            return
        x1, x2 = map(float, line.split())
        write(repr(x1 + x2 * x2) + "\n")
        flush()


if __name__ == "__main__":
    main()
