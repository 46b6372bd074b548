"""The anomaly dataset (§5, "Data collection efforts").

"This work marks the start of a multi-year data collection effort. We
aim to provide the academic community with a public dataset of these
errors, along with traces and descriptions of the effects of each
error on the mission."

Each :class:`AnomalyRecord` is one radiation event as a mission log
would capture it: when and what struck, what the fault did, whether
and how Radshield caught it, and what action the spacecraft took.
Records serialize to/from CSV so campaigns can be archived and merged.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import asdict, dataclass, fields

from ..errors import ConfigurationError

#: Allowed values for the categorical columns.
EVENT_TYPES = ("seu", "sel")
ACTIONS = ("none", "power_cycle", "reboot", "outvoted", "ecc_corrected", "lost")


@dataclass(frozen=True)
class AnomalyRecord:
    """One radiation event and its disposition."""

    mission_time_s: float
    event_type: str  # "seu" | "sel"
    detail: str  # target component / delta amps
    detected: bool
    detected_by: str  # "ild", "emr-vote", "ecc", "checksum", ""
    detection_latency_s: float  # -1 when undetected
    outcome: str  # OutcomeClass value or "cleared" / "damage"
    action: str  # one of ACTIONS

    def __post_init__(self) -> None:
        if self.event_type not in EVENT_TYPES:
            raise ConfigurationError(f"bad event_type {self.event_type!r}")
        if self.action not in ACTIONS:
            raise ConfigurationError(f"bad action {self.action!r}")
        if self.mission_time_s < 0:
            raise ConfigurationError("mission_time_s must be >= 0")


_COLUMNS = tuple(f.name for f in fields(AnomalyRecord))


class AnomalyDataset:
    """An append-only log of anomaly records with CSV round-tripping."""

    def __init__(self, records: "list[AnomalyRecord] | None" = None) -> None:
        self.records: "list[AnomalyRecord]" = list(records or [])

    def add(self, record: AnomalyRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=_COLUMNS)
        writer.writeheader()
        for record in self.records:
            writer.writerow(asdict(record))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "AnomalyDataset":
        reader = csv.DictReader(io.StringIO(text))
        records = []
        for row in reader:
            records.append(
                AnomalyRecord(
                    mission_time_s=float(row["mission_time_s"]),
                    event_type=row["event_type"],
                    detail=row["detail"],
                    detected=row["detected"] == "True",
                    detected_by=row["detected_by"],
                    detection_latency_s=float(row["detection_latency_s"]),
                    outcome=row["outcome"],
                    action=row["action"],
                )
            )
        return cls(records)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_type(self, event_type: str) -> "list[AnomalyRecord]":
        return [r for r in self.records if r.event_type == event_type]

    def detection_rate(self, event_type: "str | None" = None) -> float:
        records = self.by_type(event_type) if event_type else self.records
        if not records:
            return 0.0
        return sum(r.detected for r in records) / len(records)

    def outcome_counts(self) -> Counter:
        return Counter(r.outcome for r in self.records)

    def summary(self) -> str:
        seus = self.by_type("seu")
        sels = self.by_type("sel")
        lines = [
            f"{len(self.records)} anomalies: {len(seus)} SEUs, {len(sels)} SELs",
            f"SEU detection rate: {self.detection_rate('seu') * 100:.0f}%",
            f"SEL detection rate: {self.detection_rate('sel') * 100:.0f}%",
        ]
        for outcome, count in sorted(self.outcome_counts().items()):
            lines.append(f"  outcome {outcome}: {count}")
        return "\n".join(lines)
