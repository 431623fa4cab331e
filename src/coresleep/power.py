"""CMOS core power model.

Evaluates dynamic and static (leakage) power as functions of supply voltage
and clock frequency, inverts the monotone frequency-voltage relation, and
derives the speed that minimizes energy per cycle together with the
break-even sleep threshold.

All functions are pure; a :class:`PowerParams` instance fully determines the
model.  Technology constants are loaded from a flat ``name = value`` text
file, see :func:`load_power_params`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from importlib import resources


class PowerModelError(ValueError):
    """Raised for out-of-range inputs or inconsistent technology constants."""


# Relative slack used on range checks so values produced by the numeric
# inversion itself are never rejected at the interval endpoints.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class PowerParams:
    """Technology constants of one core.

    ``v_bs`` is a fixed operating point; it is never scheduled.
    """

    c_eff: float
    l_g: float
    l_d: float
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float
    vth1: float
    epsilon: float
    i_j: float
    v_bs: float
    vdd_min: float
    vdd_max: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise PowerModelError(f"{f.name} must be finite")
        for name in ("c_eff", "l_d", "k6", "epsilon"):
            if getattr(self, name) <= 0:
                raise PowerModelError(f"{name} must be positive")
        if self.l_g < 0:
            raise PowerModelError("l_g must be nonnegative")
        if not (0 < self.vdd_min < self.vdd_max):
            raise PowerModelError("need 0 < vdd_min < vdd_max")
        # The frequency map must be defined and positive over the whole
        # voltage range; with k1 > -1 it is then strictly increasing.
        if self.k1 <= -1:
            raise PowerModelError("k1 must exceed -1 for a monotone frequency map")
        if self._overdrive(self.vdd_min) <= 0:
            raise PowerModelError(
                "effective (vdd - vth) is not positive at vdd_min; "
                "constants are invalid for this voltage range"
            )

    def _overdrive(self, vdd: float) -> float:
        # vdd - vth with vth = vth1 - k1*vdd - k2*v_bs
        return vdd - self.vth1 + self.k1 * vdd + self.k2 * self.v_bs


_CONSTANT_KEYS = tuple(f.name for f in fields(PowerParams))


def load_power_params(path) -> PowerParams:
    """Load constants from a flat key-value file (``name = value``, ``#`` comments)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PowerModelError(f"{path}:{lineno}: expected 'name = value'")
            name, _, text = line.partition("=")
            name = name.strip().lower()
            if name not in _CONSTANT_KEYS:
                raise PowerModelError(f"{path}:{lineno}: unknown constant {name!r}")
            if name in values:
                raise PowerModelError(f"{path}:{lineno}: duplicate constant {name!r}")
            try:
                values[name] = float(text.strip())
            except ValueError as exc:
                raise PowerModelError(f"{path}:{lineno}: bad value for {name!r}") from exc
    missing = [k for k in _CONSTANT_KEYS if k not in values]
    if missing:
        raise PowerModelError(f"{path}: missing constants: {', '.join(missing)}")
    return PowerParams(**values)


def default_power_params() -> PowerParams:
    """The calibrated 70nm constants shipped with the package."""
    ref = resources.files("coresleep").joinpath("data/cmos70nm.conf")
    with resources.as_file(ref) as path:
        return load_power_params(path)


def frequency_of_vdd(params: PowerParams, vdd: float) -> float:
    """Clock frequency (Hz) reached at supply voltage ``vdd``."""
    lo, hi = params.vdd_min, params.vdd_max
    slack = _REL_EPS * (hi - lo)
    if not (lo - slack <= vdd <= hi + slack):
        raise PowerModelError(f"vdd={vdd} outside [{lo}, {hi}]")
    overdrive = params._overdrive(vdd)
    if overdrive <= 0:
        raise PowerModelError(f"effective (vdd - vth) <= 0 at vdd={vdd}")
    return overdrive ** params.epsilon / (params.l_d * params.k6)


def vdd_of_frequency(params: PowerParams, f: float) -> float:
    """Invert the frequency map by bisection.

    The result ``v`` satisfies ``|frequency_of_vdd(v) - f| / f_max <= 1e-9``.
    """
    f_min = frequency_of_vdd(params, params.vdd_min)
    f_max = frequency_of_vdd(params, params.vdd_max)
    slack = _REL_EPS * f_max
    if not (f_min - slack <= f <= f_max + slack):
        raise PowerModelError(f"f={f} outside [{f_min}, {f_max}]")
    if f >= f_max:
        return params.vdd_max
    if f <= f_min:
        return params.vdd_min
    lo, hi = params.vdd_min, params.vdd_max
    tol = 1e-9 * f_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = frequency_of_vdd(params, mid)
        if abs(fm - f) <= tol:
            return mid
        if fm < f:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dynamic_power(params: PowerParams, vdd: float, f: float) -> float:
    """Switching power c_eff * vdd^2 * f (W)."""
    if vdd < 0 or f < 0:
        raise PowerModelError("vdd and f must be nonnegative")
    return params.c_eff * vdd * vdd * f


def static_power(params: PowerParams, vdd: float) -> float:
    """Leakage power from subthreshold and junction currents (W)."""
    lo, hi = params.vdd_min, params.vdd_max
    slack = _REL_EPS * (hi - lo)
    if not (lo - slack <= vdd <= hi + slack):
        raise PowerModelError(f"vdd={vdd} outside [{lo}, {hi}]")
    i_subn = params.k3 * math.exp(params.k4 * vdd) * math.exp(params.k5 * params.v_bs)
    return params.l_g * (vdd * i_subn + abs(params.v_bs) * params.i_j)


@dataclass(frozen=True)
class DerivedSpeeds:
    """Frequency landmarks derived from :class:`PowerParams`."""

    f_max: float
    f_min: float
    f_cri: float

    @property
    def critical_scale(self) -> float:
        return self.f_cri / self.f_max

    @property
    def min_scale(self) -> float:
        return self.f_min / self.f_max


def _total_power(params: PowerParams, f_max: float, s: float) -> float:
    f = s * f_max
    vdd = vdd_of_frequency(params, f)
    return dynamic_power(params, vdd, f) + static_power(params, vdd)


def total_power_at_speed(params: PowerParams, derived: DerivedSpeeds, s: float) -> float:
    """Active power (W) at normalized speed ``s``, f = s * f_max.

    ``s`` must lie in [f_min/f_max, 1]; the global speed controller clamps
    before calling.
    """
    s_min = derived.min_scale
    if not (s_min - _REL_EPS <= s <= 1.0 + _REL_EPS):
        raise PowerModelError(f"speed {s} outside [{s_min}, 1]")
    return _total_power(params, derived.f_max, min(max(s, s_min), 1.0))


def critical_speed(params: PowerParams, derived: DerivedSpeeds) -> float:
    """Normalized speed minimizing energy per cycle, P(s) / (s * f_max).

    Found by golden-section search to 1e-4 in s.  Below this speed the
    leakage term makes each cycle more expensive, so the controller never
    scales under it when sleep is on the table.
    """
    f_max = derived.f_max
    a, b = derived.min_scale, 1.0

    def energy_per_cycle(s: float) -> float:
        return _total_power(params, f_max, s) / (s * f_max)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    ec, ed = energy_per_cycle(c), energy_per_cycle(d)
    while b - a > 1e-4:
        if ec < ed:
            b, d, ed = d, c, ec
            c = b - invphi * (b - a)
            ec = energy_per_cycle(c)
        else:
            a, c, ec = c, d, ed
            d = a + invphi * (b - a)
            ed = energy_per_cycle(d)
    return 0.5 * (a + b)


def derive_speeds(params: PowerParams) -> DerivedSpeeds:
    """Compute f_max, f_min and the critical frequency for ``params``."""
    f_max = frequency_of_vdd(params, params.vdd_max)
    f_min = frequency_of_vdd(params, params.vdd_min)
    partial = DerivedSpeeds(f_max=f_max, f_min=f_min, f_cri=f_min)
    s_cri = critical_speed(params, partial)
    return DerivedSpeeds(f_max=f_max, f_min=f_min, f_cri=s_cri * f_max)


def sleep_threshold(params: PowerParams, derived: DerivedSpeeds, e_sw: float) -> float:
    """Break-even idle length (s): switching overhead over idle power.

    Idle power is the active power at minimum speed; sleeping pays off only
    for idle intervals at least this long.
    """
    if e_sw < 0:
        raise PowerModelError("e_sw must be nonnegative")
    p_idle = total_power_at_speed(params, derived, derived.min_scale)
    return e_sw / p_idle


class PowerTable:
    """Sampled power-vs-speed curve for the simulator inner loop.

    Linear interpolation over a dense grid; error is orders of magnitude
    below the energy tolerances used anywhere in the experiments.  Keeps the
    speeds it was built from as ``derived``.
    """

    def __init__(self, params: PowerParams, derived: DerivedSpeeds, points: int = 4096):
        self.derived = derived
        s_min = derived.min_scale
        step = (1.0 - s_min) / points
        self._grid = [s_min + i * step for i in range(points + 1)]
        self._grid[-1] = 1.0
        self._power = [total_power_at_speed(params, derived, s) for s in self._grid]

    def power(self, s: float) -> float:
        grid = self._grid
        if s <= grid[0]:
            return self._power[0]
        if s >= 1.0:
            return self._power[-1]
        i = bisect_right(grid, s)
        s0, s1 = grid[i - 1], grid[i]
        p0, p1 = self._power[i - 1], self._power[i]
        return p0 + (p1 - p0) * (s - s0) / (s1 - s0)
