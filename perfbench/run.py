#!/usr/bin/env python3
"""Run one workload of the HADAD benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark (sbt, in
perfbench/) together with the repository's program sources; later runs reuse
the build while those sources are unchanged. The last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics. Per-request
rows and samples, spans (with --trace 1) and the result are also written to
perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
STAMP = os.path.join(BENCH, "target", "perfbench-build.json")
WORKLOADS = ("rewrite-catalog", "hybrid-twitter")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark 4 on JDK 17 needs the module opens that spark-class passes.
JVM_OPENS = [
    f"--add-opens={m}=ALL-UNNAMED" for m in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5")
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Hash of everything the build compiles, to decide whether to rebuild."""
    h = hashlib.sha256()
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(BENCH, "src"), os.path.join(ROOT, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        submit = shutil.which("spark-submit")
        if submit:
            env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    # Spark's scratch space stays inside the checkout (spark.local.dir).
    env.pop("SPARK_LOCAL_DIRS", None)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    return env


def run_bounded(cmd, cwd, timeout, env):
    """Run cmd in its own process group; stderr passes through, stdout is
    returned. The whole group is killed if it outlives `timeout`."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=None,
                         stdin=subprocess.DEVNULL, start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    return p.returncode, out


def build(env):
    digest = source_digest()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        cp = stamp.get("classpath", "")
        if stamp.get("digest") == digest and all(os.path.exists(x) for x in cp.split(os.pathsep)):
            return cp, digest
    if not shutil.which("sbt"):
        sys.exit("sbt not found on PATH")
    log("building the benchmark with sbt")
    t0 = time.time()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        BENCH, BUILD_TIMEOUT_S, env)
    lines = [l.strip() for l in out.splitlines() if l.strip()]
    sys.stderr.write(out)
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.exit(f"build failed (sbt exit {code})")
    cp = lines[-1]
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"digest": digest, "classpath": cp}, fh)
    log(f"built in {time.time() - t0:.1f} s")
    return cp, digest


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Rewriter.scala")):
        sys.exit("the repository's program sources (src/main/scala) are missing next to perfbench/")

    env = child_env()
    cp, digest = build(env)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in env else "java"
    cmd = [java, *JVM_OPENS, "-Xms2g", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", OUT, "--sha", f"{git_sha()}/src-{digest[:12]}"]
    try:
        code, out = run_bounded(cmd, ROOT, RUN_TIMEOUT_S, env)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0 or not lines:
        sys.exit(f"benchmark run failed (exit {code})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("malformed result line")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
