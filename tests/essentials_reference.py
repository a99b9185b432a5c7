"""
The ``essentials`` subcommand's output built the plain way, used only by
the tests.

It annotates the family's ``to_json`` dict entry by entry and prints it
with ``json.dumps``, or prints each entry's keys and values as
key=value pairs; ``cli`` formats the same values from one template per
entry, and is checked byte for byte against this.
"""

from __future__ import annotations

import json

from positroids import diagram, essential
from positroids.core import BoundedAffinePermutation


def annotated_family_json(
    family: essential.RankedEssentialFamily,
    with_excess: bool, with_core: bool, with_connected: bool,
) -> dict:
    """The family's JSON, with excess, core membership and connectedness
    added to each entry in that order, as the flags ask."""
    out = family.to_json()
    if with_excess or with_core:
        for entry_json, value in zip(out["sets"], essential.excess(family)):
            if with_excess:
                entry_json["excess"] = value
            if with_core:  # the core is the entries of positive excess
                entry_json["core"] = value > 0
    if with_connected:
        for entry_json, connected in zip(out["sets"], essential.connected_flags(family)):
            entry_json["connected"] = connected
    return out


def essentials_output(
    p: BoundedAffinePermutation, fmt: str, with_excess: bool, with_core: bool,
    with_connected: bool, with_diagram: bool,
) -> str:
    """Everything ``essentials`` prints for the permutation."""
    family = diagram.ranked_essential_family(p)
    out = annotated_family_json(family, with_excess, with_core, with_connected)
    if fmt == "json":
        lines = [json.dumps(out)]
    else:
        lines = [" ".join(f"{key}={value}" for key, value in entry.items())
                 for entry in out["sets"]]
    if with_diagram:
        lines.append(diagram.render(p))
    return "".join([line + "\n" for line in lines])
