"""Regenerate EXPERIMENTS.md from the experiment registry.

Usage: python scripts/generate_experiments_md.py [--check]

``--check`` regenerates in memory and diffs against the committed
EXPERIMENTS.md (ignoring wall-time lines), exiting non-zero on drift —
the CI guard that keeps the measured record honest when drivers change.
"""

from __future__ import annotations

import difflib
import io
import re
import sys
import time
from pathlib import Path

from repro.experiments import CAMPAIGNS, run_experiment

#: Per-experiment paper claims, for the paper-vs-measured record.
PAPER_CLAIMS = {
    "fig1": "Launch cost fell $88K/kg (Shuttle, 1981) to $1.4K/kg (Falcon "
            "Heavy) ≈ 63x; LEO satellite count exploded after 2018.",
    "fig2": "Under a micro-SEL the board never reaches the classic 4 A "
            "threshold, while nominal compute crosses it — thresholds "
            "cannot separate the two regimes.",
    "fig5": "99.7 % correlation between current draw and CPU usage across "
            "the 0-4-core x 100 MHz staircase.",
    "table2": "ILD: 0.00 % FN / 0.02 % FP. Random forest: 35.0 % / 62.4 %. "
              "Static 1.75/1.80/1.85 A: 38.2-62.1 % FN, 27.6-40.6 % FP.",
    "fig10": "False negatives fall to zero once the SEL adds ≥ ~0.05 A — "
             "below the smallest measured real SEL (0.07 A).",
    "table3": "Worst-case measurement overhead +72 s/hr; +91 s/hr when a "
              "false-positive reboot fires.",
    "table4": "Protected area: None 0 %, unprotected parallel 3-MR 75 %, "
              "3-MR 100 %, EMR 100 %.",
    "table5": "Optimal replication: key / none / search pattern / match "
              "image / model weights & biases.",
    "fig11": "EMR is 7-77 % slower than unprotected parallel; serial 3-MR "
             "is ~3x (EMR averages 63 % less runtime than 3-MR).",
    "fig12": "3-MR consistently slower than EMR on both frontiers; the "
             "disk frontier is much slower and the gap grows with input.",
    "table6": "Image processing: disk 1.8 vs 0.6 s, alloc 0.7 vs 0.7 s, "
              "compute 2421 vs 987 s, cache clear 22 vs 30 s; EMR total "
              "≈ 41 % of 3-MR; 96 % of runtime is compute.",
    "fig13": "Each workload has a replication sweet spot; 0 % replication "
             "≈ serial 3-MR, 100 % ≈ 3x memory parallel 3-MR.",
    "fig14": "EMR and Radshield use less energy than serial 3-MR "
             "(encryption/packet best; conflict-heavy DNN worst); ILD's "
             "increment over EMR is marginal.",
    "table7": "None: 0/8/9/3 (corrected/no-effect/error/SDC). 3-MR: "
              "3/16/1/0. EMR: 2/17/1/0. EMR+MBU: 2/8/0/0. No SDC under "
              "redundancy; one pointer-corruption segfault each.",
    "table8": "Net line change per workload: 6-9 lines.",
    "hmr_frontier": "Beyond the paper (HMR/Trikarenos direction): "
                    "runtime-switchable redundancy modes trade throughput "
                    "for SDC coverage; blended schedules sit between the "
                    "independent and fully-voted endpoints on both axes.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Regenerated by `python scripts/generate_experiments_md.py`; every block
below comes from the same drivers the benchmarks run
(`pytest benchmarks/ --benchmark-only` prints them too, and persists
copies under `benchmarks/results/`).

Scale note: measured numbers come from the bench-scale defaults
(minutes of simulated telemetry, tens-to-hundreds of datasets), not the
paper's 960-hour / production-size runs. Shapes — who wins, by roughly
what factor, where the crossovers sit — are the reproduction target;
absolute seconds are simulated time on the `repro.sim` machine. See
DESIGN.md §1 for the substitution table and §3 for the per-experiment
index.
"""

FOOTER = """
# Performance engineering (measured)

From `PYTHONPATH=src python scripts/bench_perf.py` on the dev box
(1 CPU; numbers land in `BENCH_perf.json`, and each row is only
reported after the fast path was verified output-identical to the
reference path):

```
kernel / driver                          reference     optimized    speedup
-----------------------------------------+-----------+-----------+--------
AES-256 ECB, 64 KiB                       1065.0 ms      8.4 ms    126.4x
template search, 256x256 map, stride 1    1570.2 ms    491.8 ms      3.2x
Table 7 campaign, 20 runs/scheme             6.84 s      2.91 s      2.3x
```

The Table 7 row compares the seed-style configuration (eagerly zeroed
simulated DRAM, per-dataset golden-output loop, serial) against the
current engine (calloc-backed devices, batched golden outputs,
`--workers 4`); on this 1-CPU host the pool degrades to the serial
path, so the 2.3x is pure kernel/constructor work and multi-core hosts
stack the pool speedup on top. Outcome tables are identical across
before/after and across any `--workers` value (`parallel_equals_serial`
in `BENCH_perf.json`; `pytest -m slow` re-checks it).
"""


def generate() -> str:
    out = io.StringIO()
    out.write(HEADER)
    sections = {"ablation": "Ablations", "extension": "Extensions"}
    for name, factory in CAMPAIGNS.items():
        kind, _, short = name.rpartition(":")
        started = time.time()
        _, result = run_experiment(factory())
        elapsed = time.time() - started
        if not kind:
            out.write(f"\n## {name}\n\n")
            out.write(f"**Paper:** {PAPER_CLAIMS[name]}\n\n")
            out.write("**Measured:**\n\n```\n")
            out.write(result.render())
            out.write("\n```\n")
            out.write(f"*(driver ran in {elapsed:.1f}s wall time)*\n")
            print(f"{name}: {elapsed:.1f}s")
            continue
        if kind in sections:
            out.write(f"\n# {sections.pop(kind)} (beyond the paper)\n")
        out.write(f"\n## {short}\n\n```\n{result.render()}\n```\n")
        print(f"{kind} {short}: done")
    out.write(FOOTER)
    return out.getvalue()


_TIMING = re.compile(r"^\*\(driver ran in \d+\.\d+s wall time\)\*$")


def _comparable(text: str) -> "list[str]":
    """Content lines only: wall-time stamps vary run to run."""
    return [
        line for line in text.splitlines() if not _TIMING.match(line)
    ]


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv
    target = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    fresh = generate()
    if not check:
        target.write_text(fresh)
        print("wrote EXPERIMENTS.md")
        return 0
    committed = target.read_text() if target.exists() else ""
    diff = list(
        difflib.unified_diff(
            _comparable(committed), _comparable(fresh),
            fromfile="EXPERIMENTS.md (committed)",
            tofile="EXPERIMENTS.md (regenerated)",
            lineterm="",
        )
    )
    if diff:
        print("\n".join(diff))
        print(
            "EXPERIMENTS.md has drifted from the drivers; rerun "
            "`python scripts/generate_experiments_md.py` and commit."
        )
        return 1
    print("EXPERIMENTS.md matches the drivers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
