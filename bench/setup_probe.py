"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR INPUT.json [INPUT.json ...]

Prints the seconds from just before `import zkhomology.cli` until every
input has been parsed once by `jsonio.load_input`: import plus
parse/validate cost, without interpreter start-up.
"""

import sys
import time


def main(argv):
    src, files = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import zkhomology.cli  # noqa: F401  (the import is what is timed)
    from zkhomology.jsonio import load_input

    for path in files:
        load_input(path)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
