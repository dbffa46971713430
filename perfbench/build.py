"""Builds the benchmark from source.

Compiles the program (`src/main/scala`) together with the benchmark's own
sources (`perfbench/scala`) using the Scala compiler shipped in Spark's jar
directory (`$SPARK_HOME/jars`), so no dependency resolution is needed. Classes go to
`.bench_build/perfbench/<hash>/classes`, keyed by a hash of every source file,
so an unchanged tree is compiled once.

    python3 perfbench/build.py        # prints the classes directory
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "scala"]


def spark_jars_dir():
    """`$SPARK_HOME/jars`, else the `jars` of the first `spark-submit` on PATH
    that has them; it must hold Spark and the Scala compiler."""
    homes = [os.environ.get("SPARK_HOME")] + [
        pathlib.Path(d, "spark-submit").resolve().parent.parent
        for d in os.environ.get("PATH", "").split(os.pathsep) if pathlib.Path(d, "spark-submit").is_file()]
    for home in filter(None, homes):
        jars = pathlib.Path(home) / "jars"
        if any(jars.glob("scala-compiler-*.jar")) and any(jars.glob("spark-sql_*.jar")):
            return jars
    raise SystemExit("build: no Spark distribution with a Scala compiler found; set SPARK_HOME")


def spark_jars():
    return sorted(spark_jars_dir().glob("*.jar"))


def sources():
    program = sorted(SOURCE_DIRS[0].rglob("*.scala"))
    if not program:
        raise SystemExit(f"build: no program sources under {SOURCE_DIRS[0]}")
    return program + sorted(SOURCE_DIRS[1].rglob("*.scala"))


def build():
    """Returns the classes directory, compiling first if needed."""
    srcs = sources()
    digest = hashlib.sha256()
    for src in srcs:
        digest.update(str(src.relative_to(ROOT)).encode())
        digest.update(src.read_bytes())
    out = BUILD / digest.hexdigest()[:16]
    classes = out / "classes"
    if (out / "done").exists():
        return classes
    shutil.rmtree(out, ignore_errors=True)
    classes.mkdir(parents=True)
    jars = os.pathsep.join(str(j) for j in spark_jars())
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={out}", "-cp", jars,
           "scala.tools.nsc.Main",
           "-nowarn", "-d", str(classes), "-classpath", jars] + [str(s) for s in srcs]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=800)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"build: scalac exited with {done.returncode}")
    (out / "done").write_text("ok\n")
    return classes


if __name__ == "__main__":
    print(build())
