"""SAVAT matrices: storage, statistics, and the paper's validity checks.

A :class:`SavatMatrix` holds every repetition of an N-by-N measurement
campaign and knows how to compute the quantities the paper reports:
per-cell means, the std/mean repeatability ratio (~0.05 in the paper),
the diagonal-minimality check that validates the methodology, and the
A/B-vs-B/A asymmetry that estimates instruction-placement error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class SavatMatrix:
    """Results of a pairwise SAVAT campaign.

    Attributes
    ----------
    events:
        Event names in row/column order (rows = A, columns = B).
    samples_zj:
        Array of shape ``(N, N, repetitions)`` in zeptojoules.
    machine:
        Machine catalog name.
    distance_m:
        Antenna distance of the campaign.
    metadata:
        Free-form campaign metadata (frequency, method, seed, ...).
    """

    events: tuple[str, ...]
    samples_zj: np.ndarray
    machine: str
    distance_m: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        samples = np.asarray(self.samples_zj, dtype=np.float64)
        count = len(self.events)
        if samples.ndim == 2:
            samples = samples[:, :, np.newaxis]
        if samples.shape[:2] != (count, count) or samples.ndim != 3:
            raise ConfigurationError(
                f"samples must have shape ({count}, {count}, R), got {samples.shape}"
            )
        if samples.base is not None:
            # A matrix must own its storage: a view would alias (and
            # keep alive) whatever larger array it was sliced from.
            samples = samples.copy()
        self.samples_zj = samples

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def repetitions(self) -> int:
        """Number of measurement repetitions stored."""
        return self.samples_zj.shape[2]

    def index(self, event: str) -> int:
        """Row/column index of an event name."""
        try:
            return self.events.index(event.upper())
        except ValueError:
            raise ConfigurationError(
                f"event {event!r} not in this matrix; events: {', '.join(self.events)}"
            ) from None

    def mean(self) -> np.ndarray:
        """Per-cell mean over repetitions (the published quantity)."""
        return self.samples_zj.mean(axis=2)

    def std(self) -> np.ndarray:
        """Per-cell standard deviation over repetitions."""
        return self.samples_zj.std(axis=2, ddof=1) if self.repetitions > 1 else np.zeros(
            self.samples_zj.shape[:2]
        )

    def cell(self, event_a: str, event_b: str) -> float:
        """Mean SAVAT (zJ) for one ordered pairing."""
        return float(self.mean()[self.index(event_a), self.index(event_b)])

    def cell_samples(self, event_a: str, event_b: str) -> np.ndarray:
        """All repetition samples (zJ) for one ordered pairing."""
        return self.samples_zj[self.index(event_a), self.index(event_b)]

    # ------------------------------------------------------------------
    # The paper's validity statistics (Section V)
    # ------------------------------------------------------------------
    def std_over_mean(self) -> float:
        """Mean std/mean ratio over all cells — the paper reports ~0.05."""
        mean = self.mean()
        std = self.std()
        valid = mean > 0
        if not np.any(valid) or self.repetitions < 2:
            return 0.0
        return float((std[valid] / mean[valid]).mean())

    def diagonal(self) -> np.ndarray:
        """Mean A/A values — the measurement-error estimate."""
        return np.diag(self.mean())

    def diagonal_minimality(self, tolerance_zj: float = 0.0) -> tuple[int, int]:
        """How often the diagonal is its row's and column's minimum.

        The paper: "each of the diagonal entries in the table is the
        smallest value in its respective row and column (with one
        exception)".  Returns ``(rows_minimal, columns_minimal)``.
        ``tolerance_zj`` forgives near-ties (the paper's own table has a
        few 0.1 zJ display-precision ties).
        """
        mean = self.mean()
        count = len(self.events)
        slack = tolerance_zj + 1e-12
        rows = sum(1 for i in range(count) if mean[i, i] <= mean[i].min() + slack)
        columns = sum(1 for i in range(count) if mean[i, i] <= mean[:, i].min() + slack)
        return rows, columns

    def asymmetry(self) -> float:
        """Mean relative |A/B - B/A| — instruction-placement error."""
        mean = self.mean()
        upper = np.triu_indices(len(self.events), 1)
        denominator = (mean[upper] + mean.T[upper]) / 2.0
        valid = denominator > 0
        if not np.any(valid):
            return 0.0
        numerator = np.abs(mean[upper] - mean.T[upper])
        return float((numerator[valid] / denominator[valid]).mean())

    def symmetrized(self) -> np.ndarray:
        """(M + M.T)/2 of the means."""
        mean = self.mean()
        return (mean + mean.T) / 2.0

    # ------------------------------------------------------------------
    # Comparison against a reference (for EXPERIMENTS.md)
    # ------------------------------------------------------------------
    def shape_agreement(self, reference: np.ndarray) -> dict[str, float]:
        """Shape-fidelity statistics versus a reference matrix (zJ).

        Returns Pearson and Spearman correlations over the off-diagonal
        cells plus the mean relative error — the three numbers
        EXPERIMENTS.md reports per matrix.
        """
        from scipy import stats

        reference = np.asarray(reference, dtype=np.float64)
        mean = self.mean()
        if reference.shape != mean.shape:
            raise ConfigurationError(
                f"reference shape {reference.shape} does not match matrix {mean.shape}"
            )
        upper = np.triu_indices(len(self.events), 1)
        ours = np.concatenate([mean[upper], mean.T[upper]])
        theirs = np.concatenate([reference[upper], reference.T[upper]])
        pearson = float(np.corrcoef(ours, theirs)[0, 1])
        spearman = float(stats.spearmanr(ours, theirs).statistic)
        valid = theirs > 0
        relative_error = float(
            (np.abs(ours[valid] - theirs[valid]) / theirs[valid]).mean()
        )
        return {
            "pearson": pearson,
            "spearman": spearman,
            "mean_relative_error": relative_error,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the full campaign (all repetitions) to JSON."""
        return json.dumps(
            {
                "events": list(self.events),
                "machine": self.machine,
                "distance_m": self.distance_m,
                "metadata": self.metadata,
                "samples_zj": self.samples_zj.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SavatMatrix":
        """Rebuild a campaign from :meth:`to_json` output."""
        payload = json.loads(text)
        return cls(
            events=tuple(payload["events"]),
            samples_zj=np.asarray(payload["samples_zj"], dtype=np.float64),
            machine=payload["machine"],
            distance_m=float(payload["distance_m"]),
            metadata=payload.get("metadata", {}),
        )

    def to_csv(self) -> str:
        """Mean matrix as CSV text (header row/column of event names)."""
        mean = self.mean()
        lines = ["," + ",".join(self.events)]
        for i, name in enumerate(self.events):
            lines.append(name + "," + ",".join(f"{value:.3f}" for value in mean[i]))
        return "\n".join(lines)
