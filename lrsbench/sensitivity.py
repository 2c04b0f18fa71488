#!/usr/bin/env python3
"""Kernel sensitivity check for the benchmark's per-layer split.

Runs the traced benchmark (`--trace 1`) on `onehop-lossy` and
`grid-dense` with the default kernels and with the slower kernels forced
through the existing knobs (`LRS_GF_KERNEL=swar`,
`LRS_SHA_KERNEL=sequential`). A slower GF(256) kernel must raise
`core.handle_s` and `erasure.decode_call_s` on `onehop-lossy`, where
LR-Seluge decodes every page. It must not raise `grid-dense`'s run time
by more than the `wall_s` bound, because scheme work is a few percent of
that workload. Passing both shows that the per-layer numbers follow the
layers, not the machine.

Run from the repository root:

    python3 lrsbench/sensitivity.py [--seed N]

Writes lrsbench/results/sensitivity.json (machine record, every metric of
every run, verdicts) and exits non-zero if a verdict fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WALL_BOUND = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "wall_s")
# A rise this large is well outside the run-to-run noise of a layer time.
MIN_RISE = 1.10

VARIANTS = [
    ("default", {}),
    ("gf=swar", {"LRS_GF_KERNEL": "swar"}),
    ("sha=sequential", {"LRS_SHA_KERNEL": "sequential"}),
]


def run(workload, seed, env):
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    p = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **env}, capture_output=True, text=True, timeout=600
    )
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    kernels = next(
        (l.split("kernels:", 1)[1].strip() for l in p.stderr.splitlines() if "kernels:" in l), "?"
    )
    if not result["correct"]:
        sys.exit(f"{workload} {env}: incorrect run\n{p.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}, kernels


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    seed = int(sys.argv[sys.argv.index("--seed") + 1]) if "--seed" in sys.argv else 1
    runs = {}
    for workload in ["onehop-lossy", "grid-dense"]:
        for name, env in VARIANTS:
            metrics, kernels = run(workload, seed, env)
            runs[f"{workload}/{name}"] = {"env": env, "kernels": kernels, "metrics": metrics}
            print(f"{workload:14s} {name:15s} [{kernels}] trace.run_s={metrics['trace.run_s']:.3f} "
                  f"core.handle_s={metrics['core.handle_s']:.4f} "
                  f"erasure.decode_call_s={metrics['erasure.decode_call_s']:.4f}")

    def ratio(workload, variant, metric):
        base = runs[f"{workload}/default"]["metrics"][metric]
        return runs[f"{workload}/{variant}"]["metrics"][metric] / base if base else float("nan")

    verdicts = []
    for metric in ["core.handle_s", "erasure.decode_call_s"]:
        r = ratio("onehop-lossy", "gf=swar", metric)
        verdicts.append({"check": f"onehop-lossy {metric} rises under gf=swar", "ratio": r,
                         "pass": r >= MIN_RISE})
    r = ratio("grid-dense", "gf=swar", "trace.run_s")
    verdicts.append({"check": "grid-dense trace.run_s stays within the wall_s bound under gf=swar",
                     "ratio": r, "pass": r <= 1 + WALL_BOUND})
    for v in verdicts:
        print(f"{'PASS' if v['pass'] else 'FAIL'} {v['check']}: x{v['ratio']:.3f}")

    record = {
        "machine": {
            "cores": os.cpu_count(),
            "kernels": runs["onehop-lossy/default"]["kernels"],
            "commit": command_output(["git", "rev-parse", "HEAD"]),
            "rustc": command_output(["rustc", "-V"]),
        },
        "seed": seed,
        "min_rise": MIN_RISE,
        "wall_bound": WALL_BOUND,
        "verdicts": verdicts,
        "runs": runs,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "sensitivity.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0 if all(v["pass"] for v in verdicts) else 1)


if __name__ == "__main__":
    main()
