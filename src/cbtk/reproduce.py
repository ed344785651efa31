"""Manifest of known example values, recomputed from scratch.

Every row pairs a value computed by the toolkit with the expected constant;
the reproduce command and the acceptance suite both consume this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .bounds import best_threshold, bound_symmetric
from .lpp import AciParams, c_sequence, lpp_multiplicity, phi_sum


@dataclass(frozen=True)
class ManifestRow:
    name: str
    computed: Any
    expected: Any

    @property
    def ok(self) -> bool:
        return self.computed == self.expected

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "computed": self.computed,
                "expected": self.expected, "ok": self.ok}


def manifest_rows() -> list[ManifestRow]:
    rows = [
        ManifestRow("c(4,4,4;4)", list(c_sequence((4, 4, 4), 4)), [1, 3, 4]),
        ManifestRow("c(3,3,3;3)", list(c_sequence((3, 3, 3), 3)), [1, 2, 3]),
    ]
    # three degree-D surfaces in P^3 cut by another degree-D surface
    for D in range(2, 7):
        r = best_threshold(AciParams((D, D, D), D))
        rows.append(ManifestRow(f"threshold({D},{D},{D};{D})",
                                r.threshold, D**3 - D**2 + D + 1))
    # four cubics in P^4
    r = best_threshold(AciParams((3, 3, 3, 3), 3))
    rows.append(ManifestRow("threshold(3,3,3,3;3)", r.threshold, 70))
    rows.append(ManifestRow("selected(3,3,3,3;3)", r.selected_tag, "symmetric"))
    rows.append(ManifestRow("egh(3,3,3,3;3)+1", r.egh_conjectural + 1, 64))
    # the (4,4,4,10;4) showcase: sharpened vs plain vs conjectural threshold
    p = AciParams((4, 4, 4, 10), 4)
    r = best_threshold(p)
    rows.append(ManifestRow("threshold(4,4,4,10;4)", r.threshold, 532))
    rows.append(ManifestRow("selected(4,4,4,10;4)", r.selected_tag, "delta2"))
    rows.append(ManifestRow("phi-route delta(4,4,4,10;4)", bound_symmetric(p) + 1, 612))
    rows.append(ManifestRow("egh(4,4,4,10;4)+1",
                            lpp_multiplicity((4, 4, 4, 10), 4) + 1, 521))
    # cubic hypersurface through a complete intersection of 2n cubics in P^{2n}
    for n in (2, 3, 4):
        d = (3,) * (2 * n)
        r = best_threshold(AciParams(d, 3))
        rows.append(ManifestRow(f"threshold(cubics, P^{2 * n})",
                                r.threshold, 3 ** (2 * n) - (6 * n * n - 8 * n + 3)))
        rows.append(ManifestRow(f"phi sum(cubics, P^{2 * n})",
                                phi_sum(d, 4, 2 * n + 1),
                                3 * n * n - 4 * n + 1))
    # n quadrics in P^n
    for n in range(3, 9):
        for D in range(1, n):
            r = best_threshold(AciParams((2,) * n, D))
            rows.append(ManifestRow(f"threshold(quadrics, n={n}, D={D})",
                                    r.threshold, 2**n - (3 * (n - D)**2 + 1) // 4))
    return rows
