"""Right-continuous non-increasing step functions with compact support.

The home of the singular-value function: value ``values[i]`` is taken on
``[edges[i], edges[i+1])`` with ``edges[0] == 0``, and the function is 0
from ``edges[-1]`` on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class StepFunction:
    edges: np.ndarray  # shape (m+1,), strictly increasing, edges[0] == 0
    values: np.ndarray  # shape (m,), non-increasing, >= 0

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or values.ndim != 1 or edges.size != values.size + 1:
            raise InvalidInputError("edges must have one more entry than values")
        # subtract as np.diff does, so infinite edges get the same verdict
        if edges.size and (edges[0] != 0.0
                           or (edges[1:] - edges[:-1] <= 0).any()):
            raise InvalidInputError("edges must start at 0 and strictly increase")
        if (values < 0).any() or (values[1:] - values[:-1] > 0).any():
            raise InvalidInputError("values must be non-negative and non-increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        edges.setflags(write=False)
        values.setflags(write=False)

    @classmethod
    def from_levels(cls, levels, widths) -> "StepFunction":
        """Build from per-level (value, width) pairs already sorted descending.

        Zero-valued levels are dropped; equal adjacent values are merged.
        The edges are the running sums of the kept widths, so a merged run
        ends where the running sum through its last level does.
        """
        levels = np.asarray(levels, dtype=float)
        widths = np.asarray(widths, dtype=float)
        keep = (levels > 0.0) & (widths > 0.0)
        levels, ends = levels[keep], np.cumsum(widths[keep])
        # kept levels are positive, so the 0 sentinel closes the last run
        last = levels != np.concatenate([levels[1:], [0.0]])
        return cls(np.concatenate([[0.0], ends[last]]), levels[last])

    @property
    def support_end(self) -> float:
        return float(self.edges[-1])

    def __call__(self, t: float) -> float:
        if not (t >= 0):
            raise InvalidInputError("t must be >= 0")
        if self.values.size == 0 or t >= self.edges[-1]:
            return 0.0
        # right-continuous: t == edges[i] picks the value on [edges[i], edges[i+1])
        i = int(np.searchsorted(self.edges, t, side="right")) - 1
        return float(self.values[i])

    def integral(self, s):
        """Exact value of the running integral over [0, s], at every point
        of s when s is an array."""
        s = np.asarray(s, dtype=float)
        if not np.all(s >= 0):
            raise InvalidInputError("s must be >= 0")
        upper = np.minimum(self.edges[1:], s[..., None])
        lengths = np.clip(upper - self.edges[:-1], 0.0, None)
        out = np.dot(lengths, self.values)
        return out if s.ndim else float(out)

    def to_csv(self) -> str:
        """CSV listing of the breakpoints, header ``t,value``.

        Each row gives the value taken from that t on; the final row marks
        the end of support with value 0.
        """
        buf = io.StringIO()
        buf.write("t,value\n")
        for t, v in zip(self.edges[:-1], self.values):
            buf.write(f"{float(t)!r},{float(v)!r}\n")
        buf.write(f"{self.support_end!r},0.0\n")
        return buf.getvalue()


def integral_dominates(big: StepFunction, small: StepFunction, slack: float) -> bool:
    """True iff the running integral of `small` never exceeds that of `big`.

    Both running integrals are concave piecewise-linear and constant past
    the last breakpoint, so checking the union of breakpoints plus a point
    past both supports is exact.
    """
    points = np.unique(np.concatenate([big.edges, small.edges]))
    end = max(big.support_end, small.support_end) + 1.0
    points = np.append(points, end)
    return bool(np.all(small.integral(points) <= big.integral(points) + slack))
