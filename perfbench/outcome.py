"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    digest: Optional[str] = None
    peak_rss_mb: float = 0.0
    host: Dict[str, object] = field(default_factory=dict)

    def record(self, operation: str, problems: List[str]) -> None:
        """Count one operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{operation}: {p}" for p in problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
