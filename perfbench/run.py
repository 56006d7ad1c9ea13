#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is an OCaml executable
(perfbench/main.ml) built with dune into ./_build; this script builds it
(quietly, build output on stderr), runs it, and exits with its exit code.
Its last stdout line is the JSON result. See perfbench/README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return found[0] if found else None


def main():
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # An opam switch found off PATH brings its compilers along.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    # Runtime_events (GC pauses, traced runs) puts its ring file here and
    # removes it at exit.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.dirname(EXE)
    digests = os.path.join(ROOT, "perfbench", "digests.txt")
    run = subprocess.run(
        [EXE, "--digests", digests] + sys.argv[1:], cwd=ROOT, env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
