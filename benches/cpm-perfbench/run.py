#!/usr/bin/env python3
"""Runs one workload of the CPM benchmark.

    python3 benches/cpm-perfbench/run.py --workload kilocore --seed 7 \\
        --seconds 20 --trace 0

Builds the Rust harness in this directory with cargo (release profile,
into CARGO_TARGET_DIR when it is set), hands it the command line as one
request line on stdin, and relays its output: the last stdout line is the
result object. The harness validates the request itself and exits 2 on a
bad one. Exits with cargo's code, printing nothing on stdout, when the
build fails (for instance outside a full checkout of the repository).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the harness; returns the path of its executable or None."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--message-format=json",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=subprocess.PIPE, text=True)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-message":
            sys.stderr.write(msg["message"].get("rendered") or "")
        elif (msg.get("reason") == "compiler-artifact"
              and msg.get("target", {}).get("name") == "cpm-perfbench"
              and msg.get("executable")):
            exe = msg["executable"]
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return exe


def main():
    exe = build()
    if exe is None:
        sys.stderr.write("run.py: cargo built no cpm-perfbench executable\n")
        return 1
    request = " ".join(sys.argv[1:]) + "\n"
    proc = subprocess.run([exe], input=request, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
