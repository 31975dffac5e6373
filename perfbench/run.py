#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dynamic|ingest|serve|all \
        --seed N --seconds S --trace 0|1 [--scale F]

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build output goes to stderr. The exit
code is non-zero when the build fails or any output check fails.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dynamic", "ingest", "serve")
# The benchmark binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the `adcache` binary and the benchmark in release mode."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        die(f"no Cargo.toml at {ROOT}: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "adcache-cli"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the sources the binaries are built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench/src"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def provenance_env():
    commit = command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout"
    return {
        "PERFBENCH_COMMIT": commit,
        "PERFBENCH_SOURCE_DIGEST": source_digest(),
        "PERFBENCH_RUSTC": command_output(["rustc", "-V"]) or "unknown",
    }


def run_one(workload, rest, env):
    """Runs the benchmark binary; returns (exit code, last stdout line)."""
    release = os.path.join(target_dir(), "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--adcache-bin", os.path.join(release, "adcache"),
        "--work-dir", os.path.join(ROOT, ".perfbench_work"),
    ] + rest
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the benchmark and any server it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    return proc.returncode, lines


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        die("usage: run.py --workload dynamic|ingest|serve|all --seed N --seconds S --trace 0|1")
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if workload not in WORKLOADS + ("all",):
        die(f"unknown workload {workload!r}")

    build()
    env = dict(os.environ, **provenance_env())
    if workload != "all":
        code, lines = run_one(workload, rest, env)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    results, worst = {}, 0
    for w in WORKLOADS:
        code, lines = run_one(w, rest, env)
        print("\n".join(lines[:-1]), flush=True)
        worst = worst or code
        try:
            results[w] = json.loads(lines[-1])
        except (ValueError, IndexError):
            die(f"{w} printed no result")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
