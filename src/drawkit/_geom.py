"""Exact plane geometry used by the drawing generators.

Point sets arrive here on integers: `generators.PointSet` scales its
rational points to one integer grid, so orientation and intersection queries
are a few int products, decisions and never estimates.
"""

from __future__ import annotations

from functools import cmp_to_key

Point = tuple[int, int]


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of the triangle p, q, r (+1 = counter-clockwise)."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the open segments ab and cd share exactly one interior point."""
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def _half(d: Point) -> int:
    # 0 = strictly upper half plane plus the positive x-axis, 1 = the rest.
    if d[1] > 0 or (d[1] == 0 and d[0] > 0):
        return 0
    return 1


def clockwise_order(center: Point, others: list[tuple[int, Point]]) -> list[int]:
    """Labels of `others` in clockwise circular order around `center`.

    The starting element is an arbitrary but deterministic choice; callers
    treat the result as a cyclic sequence.  Requires general position (no two
    other points on a common ray from the center).
    """

    def cmp(a, b):
        da = (a[1][0] - center[0], a[1][1] - center[1])
        db = (b[1][0] - center[0], b[1][1] - center[1])
        ha, hb = _half(da), _half(db)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = da[0] * db[1] - da[1] * db[0]
        if cross == 0:
            raise ValueError("collinear directions in clockwise_order")
        # counter-clockwise-before means clockwise-after
        return -1 if cross < 0 else 1

    return [label for label, _ in sorted(others, key=cmp_to_key(cmp))]
