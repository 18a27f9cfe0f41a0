#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. The first form builds perfbench/main.exe
from source with dune (into $CARGO_TARGET_DIR, default .bench_build) and
runs one workload; its last line of standard output is the JSON result.
The second form runs every workload with --trace 0 and --trace 1 and
prints every end-to-end and per-layer metric by name with its unit; it
exits nonzero if any run fails a check. See perfbench/README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["create512", "write64", "pfind64", "overload64"]


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def dune():
    """The dune executable: on PATH, else in an opam switch."""
    found = shutil.which("dune") or next(
        iter(sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))), None)
    if found is None:
        fail("dune not found on PATH or in ~/.opam")
    return found


def build():
    """Build main.exe with dune; return its path."""
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a checkout of the Hare sources" % need)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    cmd = [
        dune(), "build", "--root", ROOT, "--build-dir", build_dir,
        "--profile", "release", "-j", "2", "./perfbench/main.exe",
    ]
    # The compilers live next to dune. Its progress and errors go to
    # stderr; stdout stays for results.
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(cmd[0]) + os.pathsep + env.get("PATH", "")
    r = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed (%s)" % " ".join(cmd), 1)
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run(exe, workload, seed, seconds, trace):
    r = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout


def parse(argv):
    opts = {"seed": "1", "seconds": "20", "trace": "0"}
    it = iter(argv)
    for k in it:
        if not k.startswith("--") or k[2:] not in ("workload", "seed", "seconds", "trace"):
            fail("unknown argument %r\n%s" % (k, __doc__))
        v = next(it, None)
        if v is None:
            fail("%s needs a value" % k)
        opts[k[2:]] = v
    if "workload" not in opts:
        fail("--workload is required\n%s" % __doc__)
    if opts["workload"] not in WORKLOADS + ["all"]:
        fail("unknown workload %r (have %s, all)" % (opts["workload"], ", ".join(WORKLOADS)))
    return opts


def main():
    opts = parse(sys.argv[1:])
    exe = build()
    if opts["workload"] != "all":
        code, out = run(exe, opts["workload"], opts["seed"], opts["seconds"], opts["trace"])
        sys.stdout.write(out)
        return code
    worst = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run(exe, w, opts["seed"], opts["seconds"], trace)
            # The table lines; the JSON line is for machines.
            sys.stdout.write("".join(l + "\n" for l in out.splitlines() if l.startswith("#")))
            if code != 0:
                sys.stdout.write("# %s --trace %d: FAILED (exit %d)\n" % (w, trace, code))
                worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
