#!/usr/bin/env python3
"""Run one REPOSE benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call compiles the program's
sources (src/main/scala) together with the benchmark (perfbench/src) with sbt;
later calls reuse the classes while the sources are unchanged. Every build
output, Spark scratch file and trace is written under .bench_build/ in the
checkout. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "main" / "scala"
WORK = ROOT / ".bench_build"
CLASSES = WORK / "target" / "scala-2.13" / "classes"
STAMP = WORK / "build.stamp"

WORKLOADS = ("porto-hausdorff", "tdrive-hausdorff")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# JPMS opens that spark-submit would add (Spark 4 on JDK 17+).
JAVA_OPENS = [
    f"--add-opens=java.base/{m}=ALL-UNNAMED"
    for m in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["--enable-native-access=ALL-UNNAMED"]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail(2, "no Spark distribution found (set SPARK_HOME)")
    return Path(home)


def fingerprint():
    """Hash of every input of the build, so a changed program is rebuilt."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for top in (PROGRAM, HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(spark):
    fp = fingerprint()
    if STAMP.exists() and STAMP.read_text() == fp and CLASSES.is_dir():
        return
    env = dict(os.environ, SPARK_HOME=str(spark))
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    cmd = [
        "sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
        f"-Dsbt.global.base={WORK / 'sbt-global'}", "compile",
    ]
    print("perfbench: building the program and the benchmark with sbt", file=sys.stderr)
    try:
        done = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if done.returncode != 0:
        fail(3, f"build failed with code {done.returncode}")
    STAMP.write_text(fp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (PROGRAM / "repro" / "core" / "Repose.scala").is_file():
        fail(2, f"program sources not found under {PROGRAM}")
    if shutil.which("java") is None or shutil.which("sbt") is None:
        fail(2, "java and sbt must be on PATH")
    spark = spark_home()
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    t0 = time.monotonic()
    build(spark)
    print(f"perfbench: build step {time.monotonic() - t0:.1f}s", file=sys.stderr)

    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", *JAVA_OPENS,
           f"-Djava.io.tmpdir={WORK / 'tmp'}",
           "-cp", os.pathsep.join([str(CLASSES), str(spark / "jars" / "*")]),
           "repro.perf.Main", "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(WORK)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"benchmark run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
