#!/usr/bin/env python3
"""Build the perfbench Go module from the checkout's sources and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything the build and the run write goes under the build directory
($CARGO_TARGET_DIR, default .bench_build), including the Go build cache,
so the benchmark reads and writes only inside the checkout. The exit code
is the benchmark's; a failed build exits nonzero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_hash(build_dir):
    """Hash every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and os.path.join(dirpath, d) != build_dir
        )
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_state():
    """Commit and dirty flag when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none", "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                                text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none", "unknown"
    return commit, "true" if status else "false"


def main():
    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
    })
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    commit, dirty = git_state()
    args = sys.argv[1:] + [
        "--spans-dir", os.path.join(build_dir, "spans"),
        "--commit", commit, "--dirty", dirty, "--source", source_hash(build_dir),
    ]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
