#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark (see README.md in this directory).

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --self-test

Run from the repository root. The first form builds `hostbench` in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`) and runs one workload;
the last line of stdout is the JSON result. Build output goes to stderr. The
second form checks the benchmark itself: every metric of BENCHMARK.json is
printed with its unit on every workload, a forced verification failure is
counted and fails the command, and a tree without the sources fails cleanly.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


def source_id():
    """`git:<commit>` when run in a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("crates", "hostbench/src"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, env=None, capture=False, timeout=None):
    """Runs `cmd` to completion; never leaves it running."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def build(env):
    """Builds the benchmark; returns the binary path, or None on failure."""
    manifest = BENCH_DIR / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        return None
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "hostbench"
    return binary if binary.is_file() else None


def bench_env():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = str((ROOT / target).resolve())
    env["HOSTBENCH_RUSTC"] = rustc_version()
    env["HOSTBENCH_COMMIT"] = source_id()
    return env


def result_of(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary, env):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [str(binary), "--workload", w["name"], "--seed", "0", "--seconds", "1", "--trace", trace]
            code, out = run(cmd, env=env, capture=True, timeout=180)
            res = result_of(out)
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            if code != 0 or not res or not res["correct"] or res["failed"] != 0:
                problems.append(f"{w['name']} trace={trace}: exit {code}, result {res}")
            elif got != want:
                problems.append(f"{w['name']} trace={trace}: metrics differ: {sorted(set(got) ^ set(want))}")
            elif set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace={trace}: result keys {sorted(res)}")
            print(f"self-test: {w['name']} trace={trace}: exit {code}", file=sys.stderr)
        cmd = [str(binary), "--workload", w["name"], "--seconds", "1", "--trace", "0", "--inject-failure"]
        code, out = run(cmd, env=env, capture=True, timeout=180)
        res = result_of(out)
        if code == 0 or not res or res["correct"] or res["failed"] < 1:
            problems.append(f"{w['name']}: forced verification failure not caught (exit {code}, {res})")
        print(f"self-test: {w['name']} forced failure: exit {code}", file=sys.stderr)

    # Only BENCHMARK.json and this directory: the build must fail, no result.
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "target"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    bare_env = dict(env, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH_DIR.name / "run.py"), "--workload", "paper-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=bare_env, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"self-test: FAILED {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    # A terminated wrapper still stops (and waits for) its child: SystemExit
    # unwinds through run()'s cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = bench_env()
    binary = build(env)
    if binary is None:
        print("hostbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test(binary, env)
    code, _ = run([str(binary)] + args, env=env)
    return code


if __name__ == "__main__":
    sys.exit(main())
