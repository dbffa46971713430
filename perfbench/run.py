"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--paper]

Builds the program from source on first use (see build.py), then runs the
workload in a fresh JVM that starts Spark and runs one iteration
(records -> PRAUC), as a job running one scenario would.

* Untraced (`--trace 0`): before that JVM, JVMs that only start Spark and
  exit are launched for `--seconds` (at least one). `setup_s` is the median,
  over all of them and that JVM, of the JVM's CPU time from launch to Spark
  being up; the other metrics are those of the iteration.
* Traced (`--trace 1`): the JVM follows its first iteration with a traced
  one and reports the per-layer metrics; `--seconds` is not used.

Prints every metric with its unit, the split sizes and the batch and score
digests, then, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The full result (environment, digests,
per-iteration figures, spans) is written under `.bench_build/perfbench/results/`.
A run must reproduce the batch digests of every earlier run of the workload,
and the score digests and PRAUC of an earlier run of the same seed, with the
same build.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

HEAP = "3g"
# A run must end within 180 s; `--paper` trains 5-15x longer and is not timed.
RUN_TIMEOUT_S = 175
PAPER_TIMEOUT_S = 900
# The module openings Spark's own launcher passes on Java 17.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def launch(classes, args, timeout_s):
    """Runs one benchmark JVM, killing it after `timeout_s`.

    Returns ((CPU, wall) seconds from launch to READY, RESULT payload or
    None with `--setup-only`)."""
    scratch = build.BUILD / "run"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    jars = build.spark_jars_dir()
    log4j = build.ROOT / "perfbench" / "log4j2.properties"
    cmd = (["java", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={scratch / 'tmp'}",
            f"-Dlog4j2.configurationFile={log4j}"] + ADD_OPENS +
           ["-cp", f"{classes}{os.pathsep}{jars / '*'}", "repro.perfbench.Bench", "--dir", str(scratch)] + args)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(scratch / "spark-local"))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                ready_s = (int(line.split()[1]) / 1e9, time.monotonic() - t0)
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready_s is None or (result is None and "--setup-only" not in args):
        raise SystemExit(f"run: benchmark JVM exited with {proc.returncode} without a result")
    return ready_s, result


def check_digests(name, build_id, fingerprint, keys):
    """Compares `fingerprint`'s `keys` with those an earlier run of the same
    build recorded under `name`, or records them. Returns what differs."""
    path = build.BUILD / "results" / f"{name}.digests.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    mine = {k: v for k, v in fingerprint.items() if k in keys}
    earlier = json.loads(path.read_text()) if path.exists() else {}
    if earlier.get("build") != build_id:
        path.write_text(json.dumps({"build": build_id, "fingerprint": mine}))
        return []
    return [f"{k} differs from an earlier run" for k, v in earlier["fingerprint"].items() if mine.get(k) != v]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--paper", action="store_true",
                    help="train with the table benches' epochs at seed 0 and check the PRAUC they give")
    a = ap.parse_args()

    classes = build.build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(a.trace)] + (["--paper"] if a.paper else [])
    deadline = time.monotonic() + (PAPER_TIMEOUT_S if a.paper else RUN_TIMEOUT_S)
    setups = []
    if a.trace == 0:
        start = time.monotonic()
        while not setups or time.monotonic() - start < a.seconds:
            setups.append(launch(classes, ["--setup-only"], max(deadline - time.monotonic(), 1.0))[0])
    ready_s, result = launch(classes, args, max(deadline - time.monotonic(), 1.0))
    setups.append(ready_s)

    # Determinism across runs of one build: every seed and profile of a
    # workload shares its splits, and a seed reproduces its scores.
    fp = result["fingerprint"]
    profile = f"{a.workload}-seed{a.seed}{'-paper' if a.paper else ''}"
    failures = result["failures"] + check_digests(
        a.workload, classes.parent.name, fp, {k for k in fp if k.startswith("batch.")}) + check_digests(
        profile, classes.parent.name, fp, {k for k in fp if not k.startswith("batch.")})
    metrics = result["metrics"]
    if a.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(cpu for cpu, _ in setups), "unit": "s"}
        result["wall"]["setup_s"] = {"value": statistics.median(wall for _, wall in setups), "unit": "s"}
    result.update(build=classes.parent.name, setups=[{"cpu_s": c, "wall_s": w} for c, w in setups],
                  failures=failures)
    (build.BUILD / "results" / f"{profile}-trace{a.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  set-ups {len(setups)}  "
          f"iterations {len(result['iterations'])}")
    print("env " + "  ".join(f"{k}={v}" for k, v in result["env"].items() if k != "jvm_args"))
    print("split sizes (train/support/target/test) " + "/".join(map(str, result["split_sizes"])))
    for k, v in sorted(fp.items()):
        print(f"digest {k} {v}")
    for f in failures:
        print(f"FAILED {f}")
    def show(kind, name, m):
        # a failed method leaves its metrics undefined (null)
        print(f"{kind} {name} = {'undefined' if m['value'] is None else format(m['value'], '.6g')} {m['unit']}")
    for k, v in result["wall"].items():
        show("wall", k, v)
    for k, v in metrics.items():
        show("metric", k, v)
    print(json.dumps({"correct": result["correct"] and not failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
