#!/usr/bin/env python3
"""GEqO benchmark launcher.

Builds the repository's main Scala sources plus the benchmark's own
(perfbench/src) with the Scala compiler shipped beside the project's Spark
jars, then runs one workload in a fixed-heap JVM and relays its output. The
last line of standard output is the result JSON printed by perfbench.Main.

    python3 perfbench/run.py --workload table1-cascade --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. Build outputs go to .bench_build/ there
(or to $CARGO_TARGET_DIR when it is set).
"""
import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# Main sources that need Spark or DuckDB are left out: the benchmark never
# calls them and their jars are not on the benchmark's classpath.
EXCLUDE = re.compile(r"^\s*import\s+(org\.apache\.spark|org\.duckdb|java\.sql)", re.M)
HEAP = "1g"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def scala_version(root):
    path = os.path.join(root, "build.sbt")
    if not os.path.isfile(path):
        die("build.sbt not found; run from the repository root")
    m = re.search(r'scalaVersion\s*:=\s*"([^"]+)"', open(path).read())
    if not m:
        die("no scalaVersion in build.sbt")
    return m.group(1), open(path).read()


def jar_dirs(build_sbt):
    """Directories that may hold the Scala compiler jars: $SPARK_HOME/jars,
    then the unmanagedBase directories that build.sbt declares."""
    dirs = []
    if os.environ.get("SPARK_HOME"):
        dirs.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    dirs += re.findall(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', build_sbt)
    return dirs


def scala_jars(version, build_sbt):
    names = [f"scala-{n}-{version}.jar" for n in ("library", "reflect", "compiler")]
    for d in jar_dirs(build_sbt):
        paths = [os.path.join(d, n) for n in names]
        if all(os.path.isfile(p) for p in paths):
            return paths
    die(f"Scala {version} compiler jars not found")


def sources(root):
    main = os.path.join(root, "src", "main", "scala")
    if not os.path.isdir(main):
        die("src/main/scala not found; run from the repository root")
    out = []
    for base in (main, os.path.join(HERE, "src"), os.path.join(HERE, "test")):
        for d, _, files in os.walk(base):
            for f in files:
                if f.endswith(".scala"):
                    p = os.path.join(d, f)
                    if not EXCLUDE.search(open(p, encoding="utf-8").read()):
                        out.append(p)
    return sorted(out)


def build(root):
    version, build_sbt = scala_version(root)
    lib, reflect, compiler = scala_jars(version, build_sbt)
    srcs = sources(root)
    h = hashlib.sha256(version.encode())
    for p in srcs:
        h.update(os.path.relpath(p, root).encode())
        h.update(open(p, "rb").read())
    digest = h.hexdigest()[:16]
    out_root = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"),
                            "perfbench")
    classes = os.path.join(out_root, f"classes-{digest}")
    if os.path.isdir(classes):
        return classes, lib, out_root
    os.makedirs(out_root, exist_ok=True)
    for old in os.listdir(out_root):
        if old.startswith(("classes-", "build-")):
            shutil.rmtree(os.path.join(out_root, old), ignore_errors=True)
    tmp = tempfile.mkdtemp(prefix="build-", dir=out_root)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join([compiler, lib, reflect]),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    rc = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        die(f"compilation failed (exit {rc})")
    os.rename(tmp, classes)
    return classes, lib, out_root


def run_child(cmd, timeout, stdout=None):
    """Run `cmd`, killing it if it outlives `timeout`; always waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    classes, lib, out_root = build(root)
    jvm = ["java", "-XX:+UseSerialGC", f"-Xms{HEAP}", f"-Xmx{HEAP}",
           "-cp", os.pathsep.join([classes, lib])]
    if args.self_test:
        cmd = jvm + ["perfbench.SelfTest", HERE]
    else:
        cmd = jvm + ["perfbench.Main", "--workload", args.workload,
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--dir", HERE, "--out", out_root]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    rc = run_child(cmd, RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
