"""The per-event probe scheduler: the reference the product is held to.

:class:`repro.engine.ProbeScheduler` drains many firings at once, slab by slab
over per-stream arrays, and expands them columnar.
:class:`PerEventProbeScheduler` does the same job the obvious
way -- one self-rescheduling heap event per firing, a scalar round-robin loop
over the pinglist, one :meth:`~repro.simulation.ProbeSimulator.probe_path_batch`
call per row -- so a test that swaps it in with::

    monkeypatch.setattr("repro.engine.engine.ProbeScheduler", PerEventProbeScheduler)

and compares two seeded runs checks the product on every observable: windows,
per-link counters, diagnoses, cost counters, ``events_processed``, the drop
attribution and the state both random generators are left in.

It takes the product's constructor keywords and exposes what
:class:`~repro.engine.TelemetryEngine` reads (``sink``, ``set_pingers``, the
probe counters, ``telemetry()``, ``drain_telemetry()``, ``num_streams``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.probes import PRIORITY_PROBE


class _Stream:
    def __init__(self, pinger, rate: float, start_time: float):
        self.pinger = pinger
        self.entries = list(pinger.pinglist.entries)
        self.config = pinger.probe_config()
        self.rate = rate
        self.carry = 0.0
        self.cursor = 0
        self.sequence = [0] * len(self.entries)  # next probe sequence per entry
        self.last_fired = start_time
        self.handle = None  # the pending firing's EventHandle


class PerEventProbeScheduler:
    def __init__(
        self,
        loop,
        rng: np.random.Generator,
        probes_per_second: Optional[float] = None,
        batch_seconds: float = 1.0,
        jitter_fraction: float = 0.1,
        coalesce_horizon: Optional[float] = None,  # accepted, meaningless here
    ):
        self._loop = loop
        self._rng = rng
        self._rate_override = probes_per_second
        self.batch_seconds = float(batch_seconds)
        self.jitter_fraction = float(jitter_fraction)
        self._streams: Dict[str, _Stream] = {}
        self.sink = None
        self.probes_sent = 0
        self.probes_lost = 0
        self.batches_fired = 0

    def set_pingers(self, pingers) -> None:
        for stream in self._streams.values():
            stream.handle.cancel()  # the previous cycle's streams never fire again
        now = self._loop.clock.now
        self._streams = {}
        for name, pinger in pingers.items():
            if not pinger.pinglist.entries:
                continue
            rate = self._rate_override
            if rate is None:
                rate = pinger.pinglist.probes_per_second
            self._streams[name] = _Stream(pinger, rate, now)
        for stream in self._streams.values():
            self._schedule(stream)

    def _jittered_interval(self) -> float:
        jitter = self.jitter_fraction
        if jitter == 0.0:
            return self.batch_seconds
        return self.batch_seconds * (1.0 + jitter * float(self._rng.uniform(-1.0, 1.0)))

    def _schedule(self, stream: _Stream) -> None:
        def fire() -> None:
            self._fire(stream)
            self._schedule(stream)

        stream.handle = self._loop.schedule_at(
            self._loop.clock.now + self._jittered_interval(), fire, PRIORITY_PROBE
        )

    def _fire(self, stream: _Stream) -> None:
        now = self._loop.clock.now
        budget = stream.carry + stream.rate * (now - stream.last_fired)
        stream.last_fired = now
        probes = int(budget)
        stream.carry = budget - probes
        if probes <= 0:
            return
        self.batches_fired += 1
        num_entries = len(stream.entries)
        # Round-robin from the persistent cursor: the first (probes % n)
        # entries after the cursor get one extra probe.
        base, extra = divmod(probes, num_entries)
        pinger = stream.pinger
        for offset in range(num_entries):
            count = base + (1 if offset < extra else 0)
            if count == 0:
                break
            position = (stream.cursor + offset) % num_entries
            entry = stream.entries[position]
            sent, lost = pinger.simulator.probe_path_batch(
                pinger.simulator._primed_paths[entry.path_index],
                stream.config,
                count,
                stream.sequence[position],
                confirm_losses=pinger.confirm_losses,
            )
            stream.sequence[position] += count
            self.probes_sent += sent
            self.probes_lost += lost
            if self.sink is not None:
                self.sink(
                    np.asarray([entry.path_index]),
                    np.asarray([now]),
                    np.asarray([sent]),
                    np.asarray([lost]),
                )
        stream.cursor = (stream.cursor + extra) % num_entries

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def telemetry(self) -> Dict[str, int]:
        return {
            "probes_sent": self.probes_sent,
            "probes_lost": self.probes_lost,
            "probe_batches_fired": self.batches_fired,
        }

    def drain_telemetry(self) -> Dict[str, int]:
        return {}  # nothing is coalesced
