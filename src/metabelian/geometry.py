"""Geometric constants of the tameness datum and the tameness check.

Support vectors of the datum's ring elements (torsion coordinates dropped)
form a finite family of finite sets in R^k.  The constants are

    C = inf over unit directions of max-min inner product,
    D = max-min support norm,
    r0 = D^2 / (2C),  eps(r) = C - D^2 / (2r),
    R = 2k * max(D^2/2C, D, D^2/(4kC - 4))  (undefined when 4kC - 4 <= 0).

Rank one is evaluated exactly on the two directions; higher rank is sampled
on direction grids with a Lipschitz-corrected lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import TamenessViolation
from .presentation import Presentation, TamenessDatum


def support_vectors(datum: TamenessDatum, free_positions) -> list[list[tuple]]:
    """One finite vector set per datum element, free coordinates only."""
    family = []
    for lam in datum.all_elements():
        vecs = {tuple(exps[i] for i in free_positions)
                for exps, _ in lam.as_dict()}
        family.append(sorted(vecs))
    return family


@dataclass(frozen=True)
class GeometryReport:
    C: float
    D: float
    r0: float
    R: Optional[float]
    epsilon: Callable[[float], float]
    k: int
    method: str

    def to_json(self) -> dict:
        return {
            "C": _fmt(self.C),
            "D": _fmt(self.D),
            "r0": _fmt(self.r0),
            "R": _fmt(self.R) if self.R is not None else "undefined",
            "k": self.k,
            "method": self.method,
        }


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _dot(u, y) -> float:
    return sum(a * b for a, b in zip(u, y))


def _f_value(u, family) -> float:
    return max(min(_dot(u, y) for y in vecs) for vecs in family)


def _directions(k: int, n: int):
    if k == 1:
        return [(1.0,), (-1.0,)]
    if k == 2:
        return [(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
                for j in range(n)]
    if k == 3:
        # Fibonacci sphere
        phi = (1 + math.sqrt(5)) / 2
        out = []
        for j in range(n):
            z = 1 - 2 * (j + 0.5) / n
            r = math.sqrt(max(0.0, 1 - z * z))
            theta = 2 * math.pi * j / phi
            out.append((r * math.cos(theta), r * math.sin(theta), z))
        return out
    # quasi-random but deterministic for higher rank
    import random

    rng = random.Random(20240801 + k)
    out = []
    for _ in range(n):
        v = [rng.gauss(0, 1) for _ in range(k)]
        norm = math.sqrt(sum(x * x for x in v)) or 1.0
        out.append(tuple(x / norm for x in v))
    return out


def _mesh_radius(k: int, n: int) -> float:
    if k == 2:
        return 2 * math.sin(math.pi / (2 * n))
    if k == 3:
        return 3.1 / math.sqrt(n)
    return 4.0 / n ** (1.0 / max(1, k - 1))


def geometry_constants(datum: TamenessDatum, k: int,
                       free_positions=None) -> GeometryReport:
    """Compute the report; raises TamenessViolation on a bad direction.

    ``free_positions`` selects the infinite-order coordinates of the datum's
    exponent vectors; by default the first ``k`` positions are taken.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if not datum.all_elements():
        raise TamenessViolation("empty tameness datum", direction=None)
    if free_positions is None:
        free_positions = tuple(range(k))
    family = support_vectors(datum, free_positions)
    D = max(min(math.sqrt(_dot(y, y)) for y in vecs) for vecs in family)

    if k == 1:
        values = []
        for u in _directions(1, 2):
            v = _f_value(u, family)
            if v <= 0:
                raise TamenessViolation(
                    f"direction {u} has max-min inner product {v} <= 0",
                    direction=u)
            values.append(v)
        C = min(values)
        method = "exact"
    else:
        lipschitz = max(max(math.sqrt(_dot(y, y)) for y in vecs)
                        for vecs in family) or 1.0
        n = 64
        prev = None
        C = 0.0
        while True:
            worst = None
            low = None
            for u in _directions(k, n):
                v = _f_value(u, family)
                if worst is None or v < worst[0]:
                    worst = (v, u)
                cand = v - lipschitz * _mesh_radius(k, n)
                low = cand if low is None else min(low, cand)
            if worst[0] <= 0:
                raise TamenessViolation(
                    f"direction {worst[1]} has max-min inner product "
                    f"{worst[0]} <= 0", direction=worst[1])
            C = low
            settled = prev is not None and abs(C - prev) <= 0.01 * max(abs(C), 1e-12)
            if settled or n >= 1 << 16:
                break
            prev = C
            n *= 2
        method = f"sampled({n})"
        if C <= 0:
            # fall back to the raw sampled minimum as an uncertified estimate
            C = worst[0]
            method = f"sampled({n},uncorrected)"

    r0 = D * D / (2 * C)
    denom = 4 * k * C - 4
    R = None if denom <= 0 else 2 * k * max(D * D / (2 * C), D, D * D / denom)

    def epsilon(r: float) -> float:
        return C - D * D / (2 * r)

    return GeometryReport(C=C, D=D, r0=r0, R=R, epsilon=epsilon, k=k,
                          method=method)


def tameness_check(datum: TamenessDatum, k: int, free_positions=None):
    """``(verdict, info)``: exact on the two directions for k = 1, sampled on
    4096 directions for k >= 2; ``info`` gives the number of directions and
    the least max-min inner product over them."""
    if free_positions is None:
        free_positions = tuple(range(k))
    if not datum.all_elements():
        return False, {"directions": 0, "min_value": None}
    family = support_vectors(datum, free_positions)
    n = 2 if k == 1 else 4096
    low = min(_f_value(u, family) for u in _directions(k, n))
    return low > 0, {"directions": n, "min_value": low}


def presentation_constants(p: Presentation) -> GeometryReport:
    """Constants of a presentation's tameness datum over its free generators."""
    if p.tameness is None:
        raise TamenessViolation("presentation has no tameness datum")
    k = p.free_rank
    free_positions = tuple(i for i, d in enumerate(p.torsion_orders) if d == 0)
    return geometry_constants(p.tameness, k, free_positions)
