#!/usr/bin/env python3
"""Runs one workload of the DPA benchmark (notes: perfbench/README.md).

  python3 perfbench/run.py --workload bh-native --seed 1 --seconds 10 --trace 0

On first use it builds perfbench/ (the driver plus the repository's src/
libraries, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only check the build is up to date. It then runs the
driver from the repository root and relays its output. The last line is
the JSON result; the exit code is the driver's (1 when any check failed,
2 on a rejected flag). Everything is written inside the repository root.
"""

import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, out, "Makefile")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DDPA_TRACE=ON"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write(f"run.py: build step failed: {' '.join(cmd)}\n")
            return None
    return os.path.join(ROOT, out, "dpa_perfbench")


def source_revision():
    """The git revision, or a digest of the sources when not in a git tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:12]


def fixed_layout():
    """Turns off address-space randomization for the driver (as
    `setarch -R` does): with it on, some bh-native processes land in a
    slower phase-time mode, a per-process layout effect (see README.md)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # keep the default layout where personality() is unavailable


def main():
    binary = build()
    if binary is None:
        return 1
    cmd = [binary] + sys.argv[1:] + ["--git-rev", source_revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=fixed_layout)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"run.py: driver exceeded {DRIVER_TIMEOUT_S} s\n")
        return 1
    if proc.returncode == 2:
        return 2  # flag rejected; the driver said why on stderr
    try:
        json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(stdout)
        sys.stderr.write("run.py: driver printed no result line\n")
        return 1
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
