"""Time series of spectral fields with discrete-in-time norms.

This module is the single home of the time rule: every time integral in
the package is the composite trapezoid rule on the sample grid, either as
the L^r-in-time norm (lr_time_norm) or as a running integral
(cumulative_trapezoid).  A trajectory may carry named accumulators
integrated alongside the state by the same scheme.  Coupled equations are
integrated as one system, which gives one trajectory per component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .besov import besov_value


def lr_time_norm(times, r, *series) -> float:
    """(int sum_i v_i(t)^r dt)^(1/r) over the sample grid, trapezoid in time."""
    rf = float(r)
    integrand = sum(np.asarray(v, dtype=float) ** rf for v in series)
    return float(np.trapezoid(integrand, times) ** (1.0 / rf))


def cumulative_trapezoid(times, values) -> np.ndarray:
    """Running trapezoid integral of sampled values, starting from 0 at times[0]."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))])


@dataclass
class Trajectory:
    times: np.ndarray
    fields: list
    derivs: list
    acc: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.fields) != self.times.size:
            raise ValueError("times and fields must align")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")

    def series(self, fn) -> np.ndarray:
        return np.array([fn(u) for u in self.fields], dtype=float)

    def besov_series(self, s, p, q) -> np.ndarray:
        return self.series(lambda u: besov_value(u, s, p, q))

    def deriv_besov_series(self, s, p, q) -> np.ndarray:
        return np.array([besov_value(d, s, p, q) for d in self.derivs], dtype=float)

    def w1r_norm(self, params) -> float:
        """Discrete graph norm: (int ||u||^r_{B^{-s+2}_{p,q}} + int ||u'||^r_{B^{-s}_{p,q}})^(1/r)."""
        return lr_time_norm(self.times, params.r,
                            self.besov_series(-params.s + 2, params.p, params.q),
                            self.deriv_besov_series(-params.s, params.p, params.q))

    def to_csv(self, path, besov_specs=(), extra_columns=None, *, meta: dict) -> None:
        """Write (t, L2, H1, configured Besov norms, accumulators, extras) as CSV.

        Floats are written with 17 significant digits so identical runs give
        byte-identical artifacts.
        """
        cols = {"t": self.times,
                "l2": self.series(lambda u: u.l2_norm()),
                "h1": self.series(lambda u: u.h_norm(1.0))}
        for spec in besov_specs:
            s, p, q = spec
            cols[f"besov_{s}_{p}_{q}"] = self.besov_series(s, p, q)
        for name, arr in self.acc.items():
            cols[f"acc_{name}"] = arr
        if extra_columns:
            cols.update(extra_columns)
        names = list(cols)
        lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
        lines.append(",".join(names))
        data = np.column_stack([np.asarray(cols[c], dtype=float) for c in names])
        for row in data:
            lines.append(",".join(f"{v:.17g}" for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
