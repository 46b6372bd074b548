"""Regenerate EXPERIMENTS.md from the experiment registry.

Usage: python scripts/generate_experiments_md.py [--check]

Each block is followed by its entry's claim checks (``CLAIMS``), one
``PASS``/``FAIL`` line per check. ``--check`` regenerates in memory and
diffs against the committed EXPERIMENTS.md (ignoring wall-time lines),
exiting non-zero on drift — so a changed number or a check whose status
flips fails CI. Both modes print the tally of passing checks.
"""

from __future__ import annotations

import difflib
import io
import re
import sys
import time
from pathlib import Path

from repro.experiments import CAMPAIGNS, run_experiment


def _cell(table, row, column):
    """``table``'s cell in ``column`` of the row whose first cell is ``row``."""
    return next(r for r in table.rows if r[0] == row)[table.columns.index(column)]


def _pct(cell: str) -> float:
    return float(cell.rstrip("%"))


def _ys(figure, name: str) -> list:
    return figure.series[name][1]


def _per_hr(table, column: str) -> float:
    return float(table.column(column)[0].strip("+ s/hr"))


def _strikes(table) -> int:
    """The injection count in the header ``SDCs / N pipeline strikes``."""
    return int(table.columns[3].split("/")[1].split()[0])


def _importance(table, metric: str) -> float:
    return dict(zip(table.column("Table 1 metric"),
                    table.column("summed importance"))).get(metric, 0.0)


class Claim:
    """One experiment's claim: the paper's text (paper entries only)
    and named checks, each a predicate over the entry's Table or
    Series. A check that raises counts as failing."""

    def __init__(self, paper: str = "", **checks) -> None:
        self.paper = paper
        self.checks = checks

    def statuses(self, name: str, result) -> "list[tuple[str, str]]":
        """``(name.check, "PASS" | "FAIL" | "FAIL (<ExceptionType>)")``
        per check, in declaration order."""
        out = []
        for check, predicate in self.checks.items():
            try:
                status = "PASS" if predicate(result) else "FAIL"
            except Exception as exc:
                status = f"FAIL ({type(exc).__name__})"
            out.append((f"{name}.{check}", status))
        return out


#: experiment id -> its claim; every paper entry has one, with prose.
CLAIMS = {
    "fig1": Claim(
        "Launch cost fell $88K/kg (Shuttle, 1981) to $1.4K/kg (Falcon "
        "Heavy) ≈ 63x; LEO satellite count exploded after 2018.",
        cost_decline_over_50x=lambda f: (
            _ys(f, "cost_per_kg")[0] / _ys(f, "cost_per_kg")[-1] > 50),
    ),
    "fig2": Claim(
        "Under a micro-SEL the board never reaches the classic 4 A "
        "threshold, while nominal compute crosses it — thresholds "
        "cannot separate the two regimes.",
        sel_never_reaches_threshold=lambda f: "never reaches" in f.notes,
    ),
    "fig5": Claim(
        "99.7 % correlation between current draw and CPU usage across "
        "the 0-4-core x 100 MHz staircase.",
        correlation_over_97pct=lambda f: (
            float(f.notes.split("=")[1].split("%")[0]) / 100 > 0.97),
    ),
    "table2": Claim(
        "ILD: 0.00 % FN / 0.02 % FP. Random forest: 35.0 % / 62.4 %. "
        "Static 1.75/1.80/1.85 A: 38.2-62.1 % FN, 27.6-40.6 % FP.",
        ild_misses_no_latchup=lambda t: t.rows[0][1] == "0.0%",
        ild_false_alarms_under_1pct=lambda t: _pct(t.rows[1][1]) < 1.0,
        baselines_miss_latchups=lambda t: (
            min(_pct(cell) for cell in t.rows[0][2:]) > 10.0),
    ),
    "fig10": Claim(
        "False negatives fall to zero once the SEL adds ≥ ~0.05 A — "
        "below the smallest measured real SEL (0.07 A).",
        invisible_at_0_01A=lambda f: (
            dict(zip(*f.series["false_negative_rate"]))[0.01] == 1.0),
        no_misses_from_0_065A=lambda f: all(
            fn == 0.0 for delta, fn in zip(*f.series["false_negative_rate"])
            if delta >= 0.065),
    ),
    "table3": Claim(
        "Worst-case measurement overhead +72 s/hr; +91 s/hr when a "
        "false-positive reboot fires.",
        measurement_50_to_80_s_per_hr=lambda t: (
            50 <= _per_hr(t, "Measurement Overhead") <= 80),
        reboot_at_least_measurement=lambda t: (
            _per_hr(t, "Reboot-Only Overhead")
            >= _per_hr(t, "Measurement Overhead")),
        reboot_at_most_120_s_per_hr=lambda t: (
            _per_hr(t, "Reboot-Only Overhead") <= 120),
    ),
    "table4": Claim(
        "Protected area: None 0 %, unprotected parallel 3-MR 75 %, "
        "3-MR 100 %, EMR 100 %.",
        none_0pct=lambda t: _cell(t, "None", "Relative Area Protected") == "0%",
        unprotected_parallel_75pct=lambda t: _cell(
            t, "Unprotected parallel 3-MR", "Relative Area Protected") == "75%",
        tmr_100pct=lambda t: _cell(t, "3-MR", "Relative Area Protected") == "100%",
        emr_100pct=lambda t: _cell(t, "EMR", "Relative Area Protected") == "100%",
    ),
    "table5": Claim(
        "Optimal replication: key / none / search pattern / match "
        "image / model weights & biases.",
        five_workloads=lambda t: len(t.rows) == 5,
        replication_matches_paper=lambda t: all(
            match == "yes" for match in t.column("Match")),
    ),
    "fig11": Claim(
        "EMR is 7-77 % slower than unprotected parallel; serial 3-MR "
        "is ~3x (EMR averages 63 % less runtime than 3-MR).",
        emr_beats_serial_3mr=lambda f: all(
            e < s for e, s in zip(_ys(f, "EMR"), _ys(f, "serial_3MR"))),
        emr_at_least_0_98x_unprotected=lambda f: all(
            e >= 0.98 for e in _ys(f, "EMR")),
        serial_3mr_2_to_3_5x=lambda f: all(
            2.0 < s < 3.5 for s in _ys(f, "serial_3MR")),
        emr_under_2x=lambda f: max(_ys(f, "EMR")) < 2.0,
    ),
    "fig12": Claim(
        "3-MR consistently slower than EMR on both frontiers; the "
        "disk frontier is much slower and the gap grows with input.",
        tmr_slower_on_dram=lambda f: all(
            s > e for s, e in zip(_ys(f, "3MR (DRAM)"), _ys(f, "EMR (DRAM)"))),
        tmr_slower_on_disk=lambda f: all(
            s > e for s, e in zip(_ys(f, "3MR (disk)"), _ys(f, "EMR (disk)"))),
        disk_slower_than_dram=lambda f: all(
            d > m for d, m in zip(_ys(f, "EMR (disk)"), _ys(f, "EMR (DRAM)"))),
        dram_gap_grows_with_input=lambda f: (
            _ys(f, "3MR (DRAM)")[-1] - _ys(f, "EMR (DRAM)")[-1]
            > _ys(f, "3MR (DRAM)")[0] - _ys(f, "EMR (DRAM)")[0]),
    ),
    "table6": Claim(
        "Image processing: disk 1.8 vs 0.6 s, alloc 0.7 vs 0.7 s, "
        "compute 2421 vs 987 s, cache clear 22 vs 30 s; EMR total "
        "≈ 41 % of 3-MR; 96 % of runtime is compute.",
        tmr_disk_over_2_5x_emr=lambda t: (
            _cell(t, "Disk Read", "3-MR (s)")
            > 2.5 * _cell(t, "Disk Read", "EMR (s)")),
        emr_total_under_0_6_of_tmr=lambda t: (
            _cell(t, "Total Runtime", "EMR (s)")
            / _cell(t, "Total Runtime", "3-MR (s)") < 0.6),
        compute_over_60pct_of_emr=lambda t: (
            _cell(t, "Compute", "EMR (s)")
            / _cell(t, "Total Runtime", "EMR (s)") > 0.6),
    ),
    "fig13": Claim(
        "Each workload has a replication sweet spot; 0 % replication "
        "≈ serial 3-MR, 100 % ≈ 3x memory parallel 3-MR.",
        zero_replication_over_2x_best=lambda f: (
            _ys(f, "encryption.runtime")[0] > 2 * min(_ys(f, "encryption.runtime"))),
        sweet_spot_under_5pct=lambda f: min(
            zip(*f.series["encryption.runtime"]), key=lambda p: p[1])[0] < 5.0,
        full_replication_over_3x_memory=lambda f: (
            _ys(f, "encryption.memory_kib")[-1]
            > 3 * _ys(f, "encryption.memory_kib")[0]),
    ),
    "fig14": Claim(
        "EMR and Radshield use less energy than serial 3-MR "
        "(encryption/packet best; conflict-heavy DNN worst); ILD's "
        "increment over EMR is marginal.",
        emr_below_serial_3mr=lambda f: all(
            e < s for e, s in zip(_ys(f, "EMR"), _ys(f, "serial_3MR"))),
        ild_increment_under_0_08=lambda f: all(
            r - e < 0.08
            for r, e in zip(_ys(f, "Radshield (EMR+ILD)"), _ys(f, "EMR"))),
        radshield_at_least_emr=lambda f: all(
            r >= e for r, e in zip(_ys(f, "Radshield (EMR+ILD)"), _ys(f, "EMR"))),
    ),
    "table7": Claim(
        "None: 0/8/9/3 (corrected/no-effect/error/SDC). 3-MR: "
        "3/16/1/0. EMR: 2/17/1/0. EMR+MBU: 2/8/0/0. No SDC under "
        "redundancy; one pointer-corruption segfault each.",
        unprotected_errs_or_corrupts=lambda t: (
            _cell(t, "None", "SDC") + _cell(t, "None", "Error") > 0),
        unprotected_corrects_nothing=lambda t: _cell(t, "None", "Corrected") == 0,
        redundancy_commits_no_sdc=lambda t: all(
            _cell(t, scheme, "SDC") == 0 for scheme in ("3-MR", "EMR", "EMR + MBU")),
    ),
    "table8": Claim(
        "Net line change per workload: 6-9 lines.",
        five_workloads=lambda t: len(t.rows) == 5,
        net_change_1_to_12_lines=lambda t: all(
            1 <= change <= 12 for change in t.column("Net line change")),
    ),
    "hmr_frontier": Claim(
        "Beyond the paper (HMR/Trikarenos direction): runtime-switchable "
        "redundancy modes trade throughput for SDC coverage; blended "
        "schedules sit between the independent and fully-voted "
        "endpoints on both axes.",
    ),
    "ablation:scheduling_order": Claim(
        rotated_balances_better=lambda t: (
            _cell(t, "rotated", "balance") > _cell(t, "naive", "balance")),
        rotated_runs_faster=lambda t: (
            _cell(t, "rotated", "runtime (s)") < _cell(t, "naive", "runtime (s)")),
    ),
    "ablation:rolling_window": Claim(
        unfiltered_sigma_over_0_08=lambda t: t.column("filtered sigma (A)")[0] > 0.08,
        any_window_under_0_03=lambda t: all(
            s < 0.03 for s in t.column("filtered sigma (A)")[1:]),
    ),
    "ablation:bubble_cadence": Claim(
        overhead_falls_with_pause=lambda t: (
            t.column("overhead %") == sorted(t.column("overhead %"), reverse=True)),
    ),
    "ablation:redundancy_level": Claim(
        two_executors_detect=lambda t: _cell(
            t, 2, "poisoned replica outcome").startswith("detected"),
        three_executors_correct=lambda t: _cell(
            t, 3, "poisoned replica outcome").startswith("corrected"),
        five_executors_correct=lambda t: _cell(
            t, 5, "poisoned replica outcome").startswith("corrected"),
        energy_rises_with_executors=lambda t: (
            t.column("energy (J)") == sorted(t.column("energy (J)"))),
    ),
    "extension:checksum_comparison": Claim(
        checksum_misses_every_pipeline_strike=lambda t: (
            _cell(t, "Checksum", t.columns[3]) == _strikes(t)),
        emr_and_tmr_commit_no_sdc=lambda t: (
            _cell(t, "EMR", t.columns[3]) == 0 and _cell(t, "3-MR", t.columns[3]) == 0),
        tmr_runtime_over_2_5x=lambda t: _cell(t, "3-MR", "Relative runtime") > 2.5,
        emr_runtime_under_1_5x=lambda t: _cell(t, "EMR", "Relative runtime") < 1.5,
    ),
    "extension:physics_rates": Claim(
        mars_1_6_per_day_within_15pct=lambda t: abs(
            float(_cell(t, "mars-surface", "Upsets/day (device)")) - 1.6
        ) <= 0.15 * 1.6,
        deep_space_over_leo_over_mars=lambda t: (
            float(_cell(t, "deep-space", "Upsets/day (device)"))
            > float(_cell(t, "low-earth-orbit", "Upsets/day (device)"))
            > float(_cell(t, "mars-surface", "Upsets/day (device)"))),
        sea_level_under_1e_3=lambda t: (
            float(_cell(t, "sea-level", "Upsets/day (device)")) < 1e-3),
    ),
    "extension:flightsw_ild": Claim(
        ild_misses_no_latchup=lambda t: (
            _cell(t, "False negative rate", "ILD on flight software") == "0.0%"),
        false_alarms_under_1pct=lambda t: _pct(
            _cell(t, "False positive rate", "ILD on flight software")) < 1.0,
    ),
    "extension:feature_selection": Claim(
        compute_signals_over_0_8=lambda t: (
            _importance(t, "instruction_rate") + _importance(t, "bus_cycle_rate")
            + _importance(t, "cpu_freq") > 0.8),
    ),
    "extension:mission_survival": Claim(
        protected_always_survives=lambda t: all(
            v == "yes" for v in t.column("protected survives")),
        protected_commits_no_sdc=lambda t: all(
            v == 0 for v in t.column("protected SDCs")),
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Regenerated by `python scripts/generate_experiments_md.py`; every block
below is one `repro.experiments.CAMPAIGNS` entry run at its registry
defaults. The `PASS`/`FAIL` lines under a block are that entry's claim
checks (`CLAIMS` in the same script), each a bound on the measured
table or figure; `--check` fails when any line, a check's status
included, differs from this file.

Scale note: measured numbers come from the bench-scale defaults
(minutes of simulated telemetry, tens-to-hundreds of datasets), not the
paper's 960-hour / production-size runs. Shapes — who wins, by roughly
what factor, where the crossovers sit — are the reproduction target;
absolute seconds are simulated time on the `repro.sim` machine. See
DESIGN.md §1 for the substitution table and §3 for the per-experiment
index.
"""

FOOTER = """
# Performance

Wall-clock speed is measured apart from these results: kernel and
campaign timings in `BENCH_perf.json` (`scripts/bench_perf.py`), and the
end-to-end workloads, layer by layer, in `perfbench/`.
"""


def generate() -> "tuple[str, list[tuple[str, str]]]":
    """EXPERIMENTS.md's text and every claim check's ``(name, status)``."""
    out = io.StringIO()
    out.write(HEADER)
    statuses = []
    sections = {"ablation": "Ablations", "extension": "Extensions"}
    for name, factory in CAMPAIGNS.items():
        kind, _, short = name.rpartition(":")
        claim = CLAIMS.get(name, Claim())
        started = time.time()
        _, result = run_experiment(factory())
        elapsed = time.time() - started
        if not kind:
            out.write(f"\n## {name}\n\n")
            out.write(f"**Paper:** {claim.paper}\n\n")
            out.write("**Measured:**\n\n```\n")
            out.write(result.render())
            out.write("\n```\n")
            out.write(f"*(driver ran in {elapsed:.1f}s wall time)*\n")
            print(f"{name}: {elapsed:.1f}s")
        else:
            if kind in sections:
                out.write(f"\n# {sections.pop(kind)} (beyond the paper)\n")
            out.write(f"\n## {short}\n\n```\n{result.render()}\n```\n")
            print(f"{kind} {short}: done")
        checked = claim.statuses(name, result)
        if checked:
            out.write("\n")
            out.writelines(f"- {status} `{check}`\n" for check, status in checked)
        statuses += checked
    out.write(FOOTER)
    return out.getvalue(), statuses


def tally(statuses: "list[tuple[str, str]]") -> str:
    """``59/60 claim checks pass; failing: table2.baselines_miss_latchups``."""
    failing = [check for check, status in statuses if status != "PASS"]
    line = f"{len(statuses) - len(failing)}/{len(statuses)} claim checks pass"
    return line + (f"; failing: {', '.join(failing)}" if failing else "")


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
    fresh, statuses = generate()
    print(tally(statuses))
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
