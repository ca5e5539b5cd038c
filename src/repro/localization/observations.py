"""Loss observations: the input to every localization algorithm.

After each 30-second aggregation window a pinger reports, for every probe
path it owns, how many probes were sent and how many were lost.  The
diagnoser merges the reports of all pingers into one observation per probe
matrix row; that merged view is what the localization algorithms consume
(§5.1: data is of the form ``(path, number of losses)`` after pre-processing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..contracts import informational_fields

__all__ = ["PathObservation", "ObservationSet", "LocalizationResult", "merge_observations"]

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class PathObservation:
    """Probe outcome for one probe-matrix path over one aggregation window."""

    path_index: int
    sent: int
    lost: int

    def __post_init__(self) -> None:
        if self.sent < 0 or self.lost < 0:
            raise ValueError("sent and lost must be non-negative")
        if self.lost > self.sent:
            raise ValueError(
                f"path {self.path_index}: lost ({self.lost}) exceeds sent ({self.sent})"
            )

    @property
    def loss_rate(self) -> float:
        """Fraction of probes lost (0.0 when nothing was sent)."""
        return self.lost / self.sent if self.sent else 0.0

    @property
    def is_lossy(self) -> bool:
        return self.lost > 0


class ObservationSet:
    """Per-path observations keyed by probe-matrix path index, stored columnar.

    The representation is three int64 columns -- ``paths`` (sorted, unique),
    ``sent`` and ``lost`` -- so the window close and the diagnoser run as
    array passes: :meth:`from_counters` is one ``flatnonzero`` over the
    aggregator's counter vectors and pre-processing and PLL read the columns
    directly.  :class:`PathObservation` objects exist only for the consumers
    that ask for them, by iterating or calling :meth:`get`.

    :meth:`add` keeps the merge semantics of the small builders (pingers, the
    latency adapter, the snapshot simulator): observations of one path sum.
    Added rows are staged and folded into the columns by the next read.
    """

    def __init__(self, observations: Iterable[PathObservation] = ()):
        self._paths = _EMPTY
        self._sent = _EMPTY
        self._lost = _EMPTY
        self._staged: List[Tuple[int, int, int]] = []
        for obs in observations:
            self.add(obs)

    @classmethod
    def from_counters(cls, sent: Sequence[int], lost: Sequence[int]) -> "ObservationSet":
        """Build an observation set from parallel per-path counter vectors.

        ``sent[i]`` / ``lost[i]`` are the window totals for probe-matrix path
        ``i``; paths with no probes sent are omitted, matching what a pinger
        that never exercised a path would report.  This is how the telemetry
        engine's stream aggregator converts its flat counter arrays back into
        the observation form every localization algorithm consumes.
        """
        if len(sent) != len(lost):
            raise ValueError("sent and lost counter vectors must have equal length")
        sent = np.asarray(sent, dtype=np.int64)
        lost = np.asarray(lost, dtype=np.int64)
        paths = np.flatnonzero(sent)
        return cls.from_columns(paths, sent[paths], lost[paths])

    @classmethod
    def from_columns(cls, paths, sent, lost) -> "ObservationSet":
        """Wrap sorted, unique ``paths`` with their ``sent`` / ``lost`` counts.

        The counts are validated as :class:`PathObservation` would validate
        each row.
        """
        paths = np.asarray(paths, dtype=np.int64)
        sent = np.asarray(sent, dtype=np.int64)
        lost = np.asarray(lost, dtype=np.int64)
        invalid = (sent < 0) | (lost < 0) | (lost > sent)
        if invalid.any():
            row = int(np.argmax(invalid))
            PathObservation(int(paths[row]), int(sent[row]), int(lost[row]))  # raises
        observations = cls()
        observations._paths, observations._sent, observations._lost = paths, sent, lost
        return observations

    def add(self, observation: PathObservation) -> None:
        self._staged.append((observation.path_index, observation.sent, observation.lost))

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns, with staged rows merged in (sums per path)."""
        if self._staged:
            staged = np.asarray(self._staged, dtype=np.int64).reshape(-1, 3)
            self._staged = []
            paths = np.concatenate((self._paths, staged[:, 0]))
            order = np.argsort(paths, kind="stable")
            paths = paths[order]
            first = np.flatnonzero(np.r_[True, paths[1:] != paths[:-1]])
            self._paths = paths[first]
            self._sent = np.add.reduceat(np.concatenate((self._sent, staged[:, 1]))[order], first)
            self._lost = np.add.reduceat(np.concatenate((self._lost, staged[:, 2]))[order], first)
        return self._paths, self._sent, self._lost

    # ------------------------------------------------------------- columns
    @property
    def paths(self) -> np.ndarray:
        """Observed path indices, ascending."""
        return self._columns()[0]

    @property
    def sent(self) -> np.ndarray:
        """Probes sent per observed path (positional over :attr:`paths`)."""
        return self._columns()[1]

    @property
    def lost(self) -> np.ndarray:
        """Probes lost per observed path (positional over :attr:`paths`)."""
        return self._columns()[2]

    # ------------------------------------------------------------- objects
    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        paths, sent, lost = self._columns()
        return map(PathObservation, paths.tolist(), sent.tolist(), lost.tolist())

    def _row(self, path_index: int) -> Optional[int]:
        paths = self.paths
        row = int(np.searchsorted(paths, path_index))
        return row if row < len(paths) and paths[row] == path_index else None

    def __contains__(self, path_index: int) -> bool:
        return self._row(path_index) is not None

    def get(self, path_index: int) -> Optional[PathObservation]:
        row = self._row(path_index)
        if row is None:
            return None
        return PathObservation(int(self._paths[row]), int(self._sent[row]), int(self._lost[row]))

    def path_indices(self) -> List[int]:
        return self.paths.tolist()

    def lossy_paths(self) -> List[int]:
        """Paths with at least one lost probe."""
        paths, _, lost = self._columns()
        return paths[lost > 0].tolist()

    def losses(self) -> Dict[int, int]:
        """Map path index -> number of lost probes (lossy paths only)."""
        paths, _, lost = self._columns()
        lossy = lost > 0
        return dict(zip(paths[lossy].tolist(), lost[lossy].tolist()))

    def total_sent(self) -> int:
        return int(self.sent.sum())

    def total_lost(self) -> int:
        return int(self.lost.sum())

    def restrict(self, path_indices: Iterable[int]) -> "ObservationSet":
        """The subset of observations for the given paths (for decomposition)."""
        paths, sent, lost = self._columns()
        keep = np.isin(paths, np.fromiter(path_indices, dtype=np.int64))
        return ObservationSet.from_columns(paths[keep], sent[keep], lost[keep])


def merge_observations(reports: Iterable[ObservationSet]) -> ObservationSet:
    """Merge the per-pinger reports of one window into a single view.

    Several pingers may probe the same path (each path is distributed to at
    least two pingers for fault tolerance, §3.1); their counts simply add up.
    """
    merged = ObservationSet()
    for report in reports:
        for obs in report:
            merged.add(obs)
    return merged


@informational_fields("elapsed_seconds")
@dataclass
class LocalizationResult:
    """Output of a localization algorithm.

    Attributes
    ----------
    suspected_links:
        Link ids the algorithm blames for the observed losses, most suspicious
        first.
    estimated_loss_rates:
        Link id -> estimated loss rate for the suspected links (when the
        algorithm provides an estimate).
    unexplained_paths:
        Lossy paths that no suspected link explains (normally empty; non-empty
        indicates the observations are inconsistent with any small failure
        set, e.g. because of noise filtered too aggressively).
    elapsed_seconds:
        Wall-clock time spent inside the algorithm (the paper quotes PLL at
        under a second for an 82944-link DCN).
    algorithm:
        Human-readable name of the localizer that produced this result.
    """

    suspected_links: List[int]
    estimated_loss_rates: Dict[int, float]
    unexplained_paths: List[int]
    elapsed_seconds: float
    algorithm: str

    @property
    def num_suspects(self) -> int:
        return len(self.suspected_links)

    def as_set(self) -> frozenset:
        return frozenset(self.suspected_links)
