"""Write one workload's input files from a seed (the untimed phase).

Usage: python3 generate.py SRC_DIR WORKLOAD SEED OUT_DIR

Writes OUT_DIR/<input>.json for every input of the workload.  Runs in its
own process so that building the inputs leaves no trace in the measured
process (memory high-water mark, caches).
"""

import sys

import workloads


def main(argv):
    src, workload, seed, out_dir = argv
    sys.path.insert(0, src)
    workloads.write_inputs(workloads.plan(workload, int(seed), out_dir), out_dir)


if __name__ == "__main__":
    main(sys.argv[1:])
