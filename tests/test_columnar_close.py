"""The columnar window close equals the object form, output for output.

``ObservationSet.from_counters``, ``preprocess_observations``, PLL's step-2
gather and ``Diagnoser.diagnose`` run as array passes over the observation
columns; ``tests/object_close_oracle.py`` keeps the same steps one
:class:`PathObservation` at a time.  Random counter vectors -- with paths
never probed, paths losing every probe, losses under the noise rule and
unhealthy endpoints -- must give the same cleaned observations, the same
localization, the same alerts and the same lossy paths through both.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from object_close_oracle import (
    object_from_counters,
    object_localize,
    object_preprocess,
)
from repro.localization import ObservationSet, PLLLocalizer, preprocess_observations
from repro.monitor import Diagnoser, Watchdog

#: (sent range, lost range) per kind of path; lost never exceeds sent on a
#: probed path, and ``None`` means "up to sent".
_KINDS = {
    "unprobed": ((0, 0), (0, 3)),  # lost without sent: the path is omitted
    "clean": ((1, 500), (0, 0)),
    "noise_ratio": ((2001, 5000), (1, 2)),  # under min_losses and 1e-3
    "noise_few_probes": ((1, 9), (1, 2)),  # under min_losses, no ratio yet
    "ratio_edge": ((-1, 1), (1, 2)),  # sent = 1000 * lost + this: the 1e-3 edge
    "lossy": ((10, 500), (1, None)),
    "total": ((1, 50), (None, None)),  # lost == sent
}


@st.composite
def _path_counts(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    (sent_low, sent_high), (lost_low, lost_high) = _KINDS[kind]
    sent = draw(st.integers(sent_low, sent_high))
    if kind == "total":
        return sent, sent
    if kind == "ratio_edge":
        lost = draw(st.integers(lost_low, lost_high))
        return 1000 * lost + sent, lost
    if kind != "unprobed":
        lost_high = sent if lost_high is None else min(lost_high, sent)
    return sent, draw(st.integers(lost_low, lost_high))


def _window(probe_matrix):
    return st.lists(
        _path_counts(), min_size=probe_matrix.num_paths, max_size=probe_matrix.num_paths
    )


def _columns(observations):
    return [(o.path_index, o.sent, o.lost) for o in observations]


def _diagnose(topology, probe_matrix, unhealthy, window):
    watchdog = Watchdog(topology)
    for server in unhealthy:
        watchdog.mark_server_unhealthy(server)
    return Diagnoser(topology, probe_matrix, watchdog=watchdog).diagnose(window)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_columnar_close_equals_object_form(fattree4, fattree4_probe_matrix, data):
    probe_matrix = fattree4_probe_matrix
    counts = data.draw(_window(probe_matrix))
    # The watchdog's unhealthy set, drawn from the probe paths' endpoints
    # (the ToRs here) and the servers (which no path ends at).
    endpoints = {probe_matrix.path(i).src for i in range(probe_matrix.num_paths)}
    endpoints |= {probe_matrix.path(i).dst for i in range(probe_matrix.num_paths)}
    names = sorted(endpoints) + sorted(node.name for node in fattree4.servers)
    unhealthy = data.draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    sent = [s for s, _ in counts]
    lost = [l for _, l in counts]

    window = ObservationSet.from_counters(sent, lost)
    oracle_window = object_from_counters(sent, lost)
    assert _columns(window) == _columns(oracle_window)

    cleaned = preprocess_observations(probe_matrix, window, unhealthy_servers=unhealthy)
    oracle_cleaned = object_preprocess(probe_matrix, oracle_window, unhealthy_servers=unhealthy)
    assert _columns(cleaned.observations) == _columns(oracle_cleaned.observations)
    assert cleaned.dropped_outlier_paths == oracle_cleaned.dropped_outlier_paths
    assert cleaned.filtered_noise_paths == oracle_cleaned.filtered_noise_paths
    assert cleaned.lossy_paths == oracle_cleaned.lossy_paths

    localizer = PLLLocalizer()
    result = localizer.localize(probe_matrix, cleaned.observations)
    oracle_result = object_localize(localizer, probe_matrix, oracle_cleaned.observations)
    assert result.suspected_links == oracle_result.suspected_links
    assert result.estimated_loss_rates == oracle_result.estimated_loss_rates
    assert result.unexplained_paths == oracle_result.unexplained_paths

    report = _diagnose(fattree4, probe_matrix, unhealthy, window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.monitor.diagnoser.preprocess_observations", object_preprocess)
        patch.setattr(PLLLocalizer, "localize", object_localize)
        oracle_report = _diagnose(fattree4, probe_matrix, unhealthy, oracle_window)
    assert report.suspected_links == oracle_report.suspected_links == result.suspected_links
    assert report.localization.estimated_loss_rates == oracle_report.localization.estimated_loss_rates
    assert report.alerts == oracle_report.alerts
    assert report.lossy_paths == oracle_report.lossy_paths
    assert report.probes_analyzed == oracle_report.probes_analyzed


def test_the_property_reaches_every_branch(fattree4, fattree4_probe_matrix):
    """One hand-built window through both forms: dropped, filtered, lossy,
    omitted and suspected paths all occur, so the property's draws can too."""
    probe_matrix = fattree4_probe_matrix
    num_paths = probe_matrix.num_paths
    sent = [100] * num_paths
    lost = [0] * num_paths
    sent[0], lost[0] = 0, 2  # omitted
    sent[1], lost[1] = 3000, 1  # noise
    lossy_link = sorted(probe_matrix.links_on(5))[0]
    for path in probe_matrix.paths_through(lossy_link):
        lost[path] = 40
    unhealthy = [probe_matrix.path(2).src]
    window = ObservationSet.from_counters(sent, lost)
    cleaned = preprocess_observations(probe_matrix, window, unhealthy_servers=unhealthy)
    oracle_cleaned = object_preprocess(
        probe_matrix, object_from_counters(sent, lost), unhealthy_servers=unhealthy
    )
    assert 0 not in window and len(window) == num_paths - 1
    assert 2 in cleaned.dropped_outlier_paths
    assert cleaned.filtered_noise_paths == oracle_cleaned.filtered_noise_paths
    assert 1 in cleaned.filtered_noise_paths or 1 in cleaned.dropped_outlier_paths
    assert cleaned.lossy_paths == oracle_cleaned.lossy_paths != []
    report = _diagnose(fattree4, probe_matrix, unhealthy, window)
    assert lossy_link in report.suspected_links
    assert report.alerts and report.alerts[0].estimated_loss_rate == pytest.approx(0.4)
