"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala and jobs/) together with the
benchmark's own sources (perfbench/src) into .bench_build/perfbench/classes,
using the Scala compiler and the jars of the Spark distribution the program
runs on. A stamp of the sources and the JDK skips the compile when nothing
changed.

    python3 perfbench/build.py      # prints the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs", BENCH / "src"]


class BuildError(Exception):
    pass


def spark_home() -> Path:
    """SPARK_HOME, else the distribution that holds spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if home:
        return Path(home)
    submit = shutil.which("spark-submit")
    if not submit:
        raise BuildError("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return Path(os.path.realpath(submit)).parent.parent


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def jars() -> str:
    d = spark_home() / "jars"
    if not any(d.glob("scala-compiler-*.jar")):
        raise BuildError(f"{d} holds no Scala compiler")
    return str(d / "*")


def sources() -> list:
    for d in SOURCE_DIRS[:2]:
        if not d.is_dir():
            raise BuildError(f"program sources missing: {d.relative_to(ROOT)}")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def stamp(files: list) -> str:
    h = hashlib.sha256()
    version = subprocess.run([java(), "-version"], capture_output=True, text=True).stderr
    h.update(version.encode())
    h.update(jars().encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Compile if the sources changed; return the classes directory."""
    files = sources()
    classes = OUT / "classes"
    stamp_file = OUT / "classes.stamp"
    want = stamp(files)
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == want:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    stamp_file.unlink(missing_ok=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", jars(), "scala.tools.nsc.Main",
           "-nowarn", "-usejavacp", "-d", str(classes)] + [str(f) for f in files]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    if done.returncode != 0:
        raise BuildError("scalac failed:\n" + done.stdout[-4000:] + done.stderr[-4000:])
    stamp_file.write_text(want)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
