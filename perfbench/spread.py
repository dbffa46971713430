"""Runs the benchmark on several seeds and reports how steady each metric is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--sets 2]

For every workload and end-to-end metric, prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json. With
`--sets 2` the seeds run twice; the second set's median must be within the
bound of the first's, in either direction, and the runs of the second set
check their digests against the first (see run.py).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--sets", type=int, default=1)
    a = ap.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end"]}

    medians = {}
    for k in range(a.sets):
        for w in a.workloads.split(","):
            values, bad = {}, []
            for s in seeds(a.seeds):
                cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(s),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                lines = out.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if out.returncode == 0 and lines else None
                if res is None or not res["correct"] or res["failed"]:
                    bad.append(s)
                    print("\n".join(line for line in lines if line.startswith("FAILED")), file=sys.stderr)
                    continue
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"set {k + 1}  workload {w}  seeds {a.seeds}  incorrect {bad or 'none'}")
            for name, vs in values.items():
                q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
                bound = specs.get(name, {}).get("bound")
                spread = (q3 - q1) / med if med else float("nan")
                line = f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.3f}"
                if bound is not None:
                    line += f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
                    if (w, name) in medians:
                        # Either set may be the parent's, so a set differing in
                        # either direction by more than the bound fails.
                        m1 = medians[(w, name)]
                        diff = (med - m1) / m1
                        line += f"  vs set 1: {diff:+.3f} {'ok' if abs(diff) <= bound else 'DIFFERS'}"
                medians.setdefault((w, name), med)
                print(line)


if __name__ == "__main__":
    main()
