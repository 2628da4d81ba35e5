"""Central-finite-difference verification of analytic gradients.

``gradient_check(f, *inputs)`` calls ``f`` with one float64 Tensor per
input array, once without and once with gradients (the two outputs must
be equal bit for bit: f is deterministic and records nothing that
changes its value), reduces the output to a scalar through a fixed
random projection, backpropagates once, and compares every input's
gradient against central differences of that scalar. How it compares
depends only on the inputs' total value count:

* at most ``EXHAUSTIVE_MAX`` values (64): coordinate by coordinate,
  two forwards per coordinate at ``step``. A coordinate where the
  one-sided differences disagree (a kink such as relu at exactly 0, whose
  derivative we define as 0) is flagged rather than failed.
* more: the analytic directional derivative <grad, v> against the central
  difference along each of ``DIRECTIONS`` (6) seeded standard-normal
  directions v over all inputs at once, at the fixed step
  ``DIRECTION_STEP`` (1e-7). Even that step crosses relu kinks: 5 and 6
  of the 20 instances of the two model cases have a direction off by more
  than 1e-4 there. So where <grad, v> and the difference disagree by more
  than ``tol``, the step shrinks tenfold, at most twice, until they
  agree. A direction still off at 1e-9 is flagged when its one-sided
  slopes there split by at least half the error (as a kink at the point
  itself splits them) and fails otherwise: a smooth f with a wrong
  gradient stays off at every step, and curvature splits those slopes by
  under 1e-5 relative at 1e-9 (by up to 1e-3 at 1e-7 along a direction
  over the model's 52k values, so no split test is made there).

The suite in ``gradcheck_suite.py`` beside this file states which of
its cases fall on which side.

Flags are reported, not failed, but a check all of whose coordinates or
directions are flagged checked nothing and fails. Indices of flagged
coordinates run over the inputs' values in order, input after input.

Runs in 64-bit mode only: float32 finite differences would drown in
rounding noise at the tolerances used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from voxseg.autodiff import GraphError, Tensor, backward, mul, reduce_sum, tensor

EXHAUSTIVE_MAX = 64  # inputs' total value count checked coordinate by coordinate
DIRECTIONS = 6  # directions checked above it
DIRECTION_STEP = 1e-7


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    n_checked: int  # coordinates, or directions when ``by_direction``
    by_direction: bool = False
    flagged: list = field(default_factory=list)  # kink coordinates or directions, excluded
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return (not self.failures and self.max_rel_error <= self.tol
                and len(self.flagged) < self.n_checked)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def gradient_check(f, *inputs, tol=1e-4, step=1e-5, seed=0):
    """Compare analytic and central-difference gradients of ``f`` at
    ``inputs``.

    f maps one Tensor per input to a Tensor; each input is a float64
    Tensor or array. Returns a GradCheckReport; ``passed`` means the max
    relative error over the smooth coordinates or directions is <= tol,
    no genuine mismatch was found and not everything was flagged.
    """
    arrays = [np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
              for x in inputs]
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    if not np.all(np.isfinite(flat)):
        raise GraphError("gradient_check: non-finite input")
    # views of ``flat``: the coordinate loop perturbs them in place
    ends = np.cumsum([a.size for a in arrays])[:-1]
    shapes = [a.shape for a in arrays]

    def unflat(values):
        return [part.reshape(s) for part, s in zip(np.split(values, ends), shapes)]

    views = unflat(flat)

    def call(values, requires_grad=False):
        ts = [tensor(v, requires_grad=requires_grad, dtype=np.float64) for v in values]
        return f(*ts), ts

    probe = call([v.copy() for v in views])[0]
    out, ts = call([v.copy() for v in views], requires_grad=True)
    if probe.data.shape != out.data.shape or not np.array_equal(probe.data, out.data):
        raise GraphError("gradient_check: f is not deterministic")

    rng = np.random.default_rng(seed)
    proj = rng.standard_normal(probe.data.shape)
    backward(reduce_sum(mul(out, tensor(proj, dtype=np.float64))))
    analytic = np.concatenate([
        (t.grad if t.grad is not None else np.zeros(t.shape)).reshape(-1) for t in ts
    ])

    def value(values):
        return float((call(values)[0].data * proj).sum())

    if flat.size > EXHAUSTIVE_MAX:
        return _check_directions(lambda shift: value(unflat(flat + shift)), flat.size,
                                 analytic, rng, tol)

    max_err = 0.0
    base = None
    flagged, failures = [], []
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = value(views)
        flat[i] = orig - step
        f_minus = value(views)
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)

        err = _rel(analytic[i], numeric)
        if err > tol:
            # distinguish a kink from a wrong derivative: one-sided slopes
            # agree at smooth points and split at subgradient points
            if base is None:
                base = value(views)
            if _rel((f_plus - base) / step, (base - f_minus) / step) > 10.0 * tol:
                flagged.append(i)
                continue
            failures.append((i, float(analytic[i]), float(numeric)))
        max_err = max(max_err, err)

    return GradCheckReport(float(max_err), tol, flat.size, False, flagged, failures)


def _check_directions(at, n, analytic, rng, tol):
    """The directional half of ``gradient_check``: ``at(shift)`` is the
    projected scalar at the inputs' n values moved by ``shift``."""
    max_err = 0.0
    base = None
    flagged, failures = [], []
    for j in range(DIRECTIONS):
        v = rng.standard_normal(n)
        directional = float(analytic @ v)
        # a kink crossed within the larger step no longer counts at the smaller
        for step in (DIRECTION_STEP, DIRECTION_STEP / 10, DIRECTION_STEP / 100):
            plus, minus = at(step * v), at(-step * v)
            numeric = (plus - minus) / (2.0 * step)
            err = _rel(directional, numeric)
            if err <= tol:
                break
        if err > tol:
            if base is None:
                base = at(0.0)
            if _rel((plus - base) / step, (base - minus) / step) >= err / 2:
                flagged.append(j)
                continue
            failures.append((j, directional, float(numeric)))
        max_err = max(max_err, err)

    return GradCheckReport(float(max_err), tol, DIRECTIONS, True, flagged, failures)
