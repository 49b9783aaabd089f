"""Table 1 — classification of LCG edge labels (§4.2).

For an edge ``F_k -> F_g`` of array ``X`` the label is a function of

* the attribute pair ``(attr_k, attr_g)`` (R, W, R/W, P),
* whether phase ``F_k`` has parallel-iteration overlapping storage
  (``∃ Δs``), and
* whether the balanced locality condition holds.

Labels: ``L`` — locality exploitable; ``C`` — communication required;
``D`` — the phases are *un-coupled* (one side privatizable; D edges are
first recorded, then removed from the graph).

The table is transcribed verbatim from the paper; rows the paper omits
(pairs starting with ``P`` toward ``R``) are un-coupled by Theorem 2's
cases 2–3 and therefore ``D``.  For every ``L`` entry the paper
additionally assumes the intra-phase locality condition of ``F_k`` —
callers must check that separately (``repro.locality.inter`` does).
"""

from __future__ import annotations

__all__ = ["EDGE_LABEL_TABLE", "classify_edge", "ATTRIBUTES"]

ATTRIBUTES = ("R", "W", "R/W", "P")

# (attr_k, attr_g) -> (label overl+bal, overl+nonbal, nonoverl+bal, nonoverl+nonbal)
EDGE_LABEL_TABLE = {
    ("R", "R"):     ("L", "C", "L", "C"),
    ("R", "W"):     ("L", "C", "L", "C"),
    ("R", "R/W"):   ("L", "C", "L", "C"),
    ("R", "P"):     ("D", "D", "D", "D"),
    ("W", "R"):     ("C", "C", "L", "C"),
    ("W", "W"):     ("C", "C", "L", "C"),
    ("W", "R/W"):   ("C", "C", "L", "C"),
    ("W", "P"):     ("C", "C", "D", "D"),
    ("R/W", "R"):   ("L", "C", "L", "C"),
    ("R/W", "W"):   ("L", "C", "L", "C"),
    ("R/W", "R/W"): ("L", "C", "L", "C"),
    ("R/W", "P"):   ("D", "D", "D", "D"),
    ("P", "R"):     ("D", "D", "D", "D"),  # omitted in the paper's table;
    ("P", "W"):     ("D", "D", "D", "D"),  # un-coupled by Theorem 2 case 2
    ("P", "R/W"):   ("D", "D", "D", "D"),
    ("P", "P"):     ("D", "D", "D", "D"),
}


def classify_edge(
    attr_k: str,
    attr_g: str,
    overlap_k: bool,
    balanced: bool,
) -> str:
    """Look up the edge label for one attribute/overlap/balanced triple."""
    try:
        row = EDGE_LABEL_TABLE[(attr_k, attr_g)]
    except KeyError:
        raise KeyError(f"unknown attribute pair ({attr_k!r}, {attr_g!r})")
    if overlap_k:
        return row[0] if balanced else row[1]
    return row[2] if balanced else row[3]
