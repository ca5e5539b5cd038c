"""Pinglists: the controller -> pinger work orders (§6.1).

A pinglist tells one pinger which probe paths it owns during the current
cycle, plus the probing configuration (packet interval, ports, DSCP values).
The paper serialises pinglists as XML files fetched over HTTP; this module
keeps that wire format (via :mod:`xml.etree.ElementTree`) so the hand-off is
observable and testable, even though in-process the objects are passed
directly.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["PinglistEntry", "Pinglist"]


@dataclass(frozen=True)
class PinglistEntry:
    """One probe path assigned to a pinger.

    Attributes
    ----------
    path_index:
        Row of the probe matrix this entry exercises (the diagnoser aggregates
        reports by this index).
    target_server:
        The responder to address probes to.
    waypoint:
        The pinned core/intermediate switch used for IP-in-IP encapsulation.
    node_walk:
        The switch-level walk, recorded for operator debugging.
    """

    path_index: int
    target_server: str
    waypoint: str
    node_walk: Tuple[str, ...]


@dataclass
class Pinglist:
    """Everything a pinger needs for one probing cycle."""

    version: int
    pinger_server: str
    entries: List[PinglistEntry] = field(default_factory=list)
    intra_rack_targets: Tuple[str, ...] = ()
    probes_per_second: float = 10.0
    source_port_range: Tuple[int, int] = (33434, 33449)
    destination_port: int = 53535
    dscp_values: Tuple[int, ...] = (0,)
    cycle_seconds: float = 600.0
    report_interval_seconds: float = 30.0

    @property
    def num_paths(self) -> int:
        return len(self.entries)

    def path_indices(self) -> List[int]:
        return [entry.path_index for entry in self.entries]

    # ------------------------------------------------------------------- XML
    def to_xml(self) -> str:
        """Serialize to the XML wire format fetched by pingers over HTTP."""
        root = ElementTree.Element(
            "pinglist",
            attrib={
                "version": str(self.version),
                "pinger": self.pinger_server,
                "probes_per_second": str(self.probes_per_second),
                "cycle_seconds": str(self.cycle_seconds),
                "report_interval_seconds": str(self.report_interval_seconds),
                "destination_port": str(self.destination_port),
                "source_port_low": str(self.source_port_range[0]),
                "source_port_high": str(self.source_port_range[1]),
                "dscp": ",".join(str(d) for d in self.dscp_values),
            },
        )
        for entry in self.entries:
            ElementTree.SubElement(
                root,
                "probe",
                attrib={
                    "path_index": str(entry.path_index),
                    "target": entry.target_server,
                    "waypoint": entry.waypoint,
                    "walk": ">".join(entry.node_walk),
                },
            )
        for target in self.intra_rack_targets:
            ElementTree.SubElement(root, "intra_rack", attrib={"target": target})
        return ElementTree.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, payload: str) -> "Pinglist":
        """Parse the XML wire format; a port range that runs backwards or a
        probe rate or report interval that is not positive is a ``ValueError``."""
        root = ElementTree.fromstring(payload)
        if root.tag != "pinglist":
            raise ValueError(f"expected <pinglist> root element, got <{root.tag}>")
        dscp = tuple(int(v) for v in root.attrib.get("dscp", "0").split(",") if v)
        pinglist = cls(
            version=int(root.attrib["version"]),
            pinger_server=root.attrib["pinger"],
            probes_per_second=float(root.attrib.get("probes_per_second", 10.0)),
            cycle_seconds=float(root.attrib.get("cycle_seconds", 600.0)),
            report_interval_seconds=float(root.attrib.get("report_interval_seconds", 30.0)),
            destination_port=int(root.attrib.get("destination_port", 53535)),
            source_port_range=(
                int(root.attrib.get("source_port_low", 33434)),
                int(root.attrib.get("source_port_high", 33449)),
            ),
            dscp_values=dscp or (0,),
        )
        low, high = pinglist.source_port_range
        if low > high:
            raise ValueError(f"source_port_low {low} exceeds source_port_high {high}")
        if pinglist.probes_per_second <= 0:
            raise ValueError("probes_per_second must be positive")
        if pinglist.report_interval_seconds <= 0:
            raise ValueError("report_interval_seconds must be positive")
        for element in root.findall("probe"):
            pinglist.entries.append(
                PinglistEntry(
                    path_index=int(element.attrib["path_index"]),
                    target_server=element.attrib["target"],
                    waypoint=element.attrib.get("waypoint", ""),
                    node_walk=tuple(element.attrib.get("walk", "").split(">")),
                )
            )
        pinglist.intra_rack_targets = tuple(
            element.attrib["target"] for element in root.findall("intra_rack")
        )
        return pinglist
