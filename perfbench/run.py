#!/usr/bin/env python3
"""Build memsd and the perfbench program from the source tree, then run one
benchmark workload.

Run from the root of a memstream checkout:

    python3 perfbench/run.py --workload sim-batch --seed 1 --seconds 10 --trace 0

Workloads are sim-batch, http-warm and http-cold; --trace 1 replays the
workload with spans and prints the per-layer metrics instead of the
end-to-end ones. --warm-rps and --cold-rps set the offered rates of the HTTP
workloads' fixed-rate phases; http-warm needs the first, http-cold the
second, and BENCHMARK.json's command gives both. The last line of standard
output is the result as one JSON object.

Everything the run builds or writes goes under the build directory:
$CARGO_TARGET_DIR when it is set, .bench_build otherwise, relative to the
checkout root. That includes the Go build cache, so the first run in a fresh
checkout compiles the standard library and takes a few minutes.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Longest a build may take before it is abandoned.
BUILD_TIMEOUT_S = 850
# A measured run may take its --seconds plus this long for its set-ups,
# warm-up, answer checks and traced replays before it is abandoned.
RUN_MARGIN_S = 130


def source_revision():
    """The git commit of the tree, or a digest of its Go sources outside a
    git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or rel.parts[0] == HERE.name:
            continue
        if path.is_file() and (path.suffix == ".go" or path.name == "go.mod"):
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sim-batch", "http-warm", "http-cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--warm-rps", type=float)
    parser.add_argument("--cold-rps", type=float)
    args = parser.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "memsd").is_dir():
        print(f"perfbench: {ROOT} is not a memstream source tree (no go.mod or cmd/memsd)",
              file=sys.stderr)
        return 2

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=str(build / "gocache"),
               GOMODCACHE=str(build / "gomodcache"),
               GOPATH=str(build / "gopath"),
               GOTMPDIR=str(tmp),
               TMPDIR=str(tmp),
               GOTOOLCHAIN="local",
               GOWORK="off",
               GOFLAGS="",
               CGO_ENABLED="0")
    for what, cwd, target in (("memsd", ROOT, "./cmd/memsd"), ("perfbench", HERE, ".")):
        try:
            built = subprocess.run(["go", "build", "-o", str(build / what), target], cwd=cwd, env=env,
                                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build {what}: {err}", file=sys.stderr)
            return 2
        if built.returncode != 0:
            print(f"perfbench: build {what} failed", file=sys.stderr)
            return 2

    sys.stdout.flush()
    cmd = [str(build / "perfbench"),
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-memsd", str(build / "memsd"),
           "-out", str(build),
           "-commit", source_revision()]
    for flag, rate in (("-warm-rps", args.warm_rps), ("-cold-rps", args.cold_rps)):
        if rate is not None:
            cmd += [flag, str(rate)]
    return run_group(cmd, env, args.seconds + RUN_MARGIN_S)


def run_group(cmd, env, timeout):
    """Run cmd in a process group of its own for at most timeout seconds and
    return its exit code. The daemons it spawns join that group, so whatever
    ends the run (a normal exit, a crash, the time limit or a signal to this
    script), every process left in the group is killed and waited for before
    this returns."""
    def terminate(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, terminate)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g}s", file=sys.stderr)
        return 1
    finally:
        kill_group(proc)


def kill_group(proc):
    """Kill every process left in proc's group and wait until none remain."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
