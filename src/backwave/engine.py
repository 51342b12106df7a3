"""Per-mode radial evolution of u = r * field, backward in time.

The physical field phi is expanded in real spherical harmonics; each mode
satisfies the 1+1 dimensional equation

    d_t^2 u = d_r^2 u - l(l+1) u / r^2 - r S_lm(t, r),

which is the mode reduction of box phi = S with box = -d_t^2 + Lap.  The
u = r phi substitution removes the first-order 2/r term and makes the
angular potential explicit.  Integration is method-of-lines RK4 with
second-order centered differences in r; sources are evaluated analytically
at the RK substage times, so the overall observed order is 2, limited by
space.

Boundaries: u(0) = 0 holds for every mode (u ~ r^(l+1) near the origin and
the interior stencil at j = 1 only reaches the j = 0 value, so the parity
ghost reduces to this Dirichlet condition); the outer boundary is trivial
Dirichlet justified by finite-speed containment, which is monitored: a
solve aborts once |u| on the last four grid points exceeds BREACH_TOL = 1e-9
times the largest |u| seen so far.

On request (``record_every_step``) a solve also keeps the state of every
field after every step; the identity audit, the weighted space-time
instance and the origin decay check of ``functionals`` read that record.

Several fields can be co-evolved as one system so that coupled sources
(e.g. a quadratic coupling to another field's time derivative) see exact
substage values.

RK4 asks for the source four times per step, at two new distinct times (k2
and k3 share t - dt/2; k4's time is the next step's k1's), so a costly
state-independent source keeps its own per-time memo, as the radiation
residual does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ModeKey = Tuple[int, int]

RK4_IMAG_LIMIT = 2.7  # safe fraction of the 2*sqrt(2) imaginary-axis bound
BREACH_TOL = 1e-9     # edge/scale ratio of |u| that aborts a solve


class EngineError(RuntimeError):
    pass


class ContainmentError(EngineError):
    """Support reached the outer boundary during a backward solve."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j h, j = 0..J."""

    h: float
    J: int

    def __post_init__(self):
        if self.h <= 0 or self.J < 8:
            raise EngineError("radial grid needs h > 0 and at least 8 cells")

    @property
    def r(self) -> np.ndarray:
        return np.arange(self.J + 1) * self.h

    @property
    def r_max(self) -> float:
        return self.J * self.h

    @staticmethod
    def for_run(h: float, T: float, t0: float) -> "RadialGrid":
        """Grid reaching past the support's reach 2T + (T - t0), plus 12 cells."""
        J = int(math.ceil((2.0 * T + (T - t0)) / h)) + 12
        return RadialGrid(h=h, J=J)


class FieldState:
    """One time slice of one field: per-mode u = r*phi and v = d_t u."""

    def __init__(self, t: float, grid: RadialGrid, modes: Sequence[ModeKey],
                 u: np.ndarray = None, v: np.ndarray = None):
        self.t = float(t)
        self.grid = grid
        self.modes = tuple(modes)
        n = len(self.modes)
        shape = (n, grid.J + 1)
        self.u = np.zeros(shape) if u is None else np.asarray(u, dtype=float).reshape(shape).copy()
        self.v = np.zeros(shape) if v is None else np.asarray(v, dtype=float).reshape(shape).copy()
        self.u[:, 0] = 0.0
        self.v[:, 0] = 0.0
        self.u[:, -1] = 0.0
        self.v[:, -1] = 0.0

    @property
    def ell(self) -> np.ndarray:
        return np.array([l for (l, _m) in self.modes], dtype=float)

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.grid, self.modes, self.u, self.v)


@dataclass
class ConeSpec:
    """Outgoing cone t - r = t2 - R; flux weighted by <t+r>^2s / <t-r>^2s."""

    s: float
    R: float
    t2: float

    def name(self) -> str:
        return f"s{self.s:g}_R{self.R:g}"


@dataclass
class Trajectory:
    grid: RadialGrid
    record_times: List[float]
    states: Dict[str, List[FieldState]]
    cone_history: Dict[str, List[float]] = dc_field(default_factory=dict)
    dense: Dict[str, List[FieldState]] = dc_field(default_factory=dict)  # every step, in march order
    dt_max: float = 0.0
    steps: int = 0

    def field_states(self, name: str = None) -> List[FieldState]:
        if name is None:
            name = next(iter(self.states))
        return self.states[name]

    def state_at(self, t: float, name: str = None) -> FieldState:
        for st in self.field_states(name):
            if abs(st.t - t) < 1e-9:
                return st
        raise EngineError(f"no recorded state at t={t}")


def stable_dt(h: float, l_max: int, cfl: float) -> float:
    """Time step respecting both the advective CFL and the RK4 bound for the
    stiff angular potential at r = h."""
    return min(cfl * h, RK4_IMAG_LIMIT * h / math.sqrt(4.0 + l_max * (l_max + 1.0)))


def cone_foot(foot: float, h: float, *rows: np.ndarray):
    """Per-mode arrays of shape (n_modes, J+1) linearly interpolated to r = foot.

    Returns ``(lam, values)``, one interpolated column per array.  The cell
    index is clamped to J-1, so a foot in the last cell [(J-1)h, Jh)
    interpolates within it and 0 <= lam < 1 on [0, Jh).
    """
    j = min(int(foot / h), rows[0].shape[-1] - 2)
    lam = foot / h - j
    return lam, [(1.0 - lam) * a[:, j] + lam * a[:, j + 1] for a in rows]


def conformal_flux_at(t: float, foot: float, s: float, h: float,
                      u: np.ndarray, lu: np.ndarray, ll1: np.ndarray) -> float:
    """Flux integrand of the conformal identity at r = foot, summed over modes:
    <t+r>^2s |L(r phi)|^2 + <t-r>^2s |slashed-nabla(r phi)|^2 per unit solid
    angle and time, from u = r phi and lu = L u."""
    _lam, (u_f, lu_f) = cone_foot(foot, h, u, lu)
    fp = (1.0 + (t + foot) ** 2) ** s
    fm = (1.0 + (t - foot) ** 2) ** s
    return float(np.sum(fp * lu_f**2 + fm * ll1 * u_f**2 / foot**2))


def acceleration(u: np.ndarray, s: Optional[np.ndarray], pot: np.ndarray,
                 rint: np.ndarray, h: float) -> np.ndarray:
    """d_t v = d_r^2 u - l(l+1) u / r^2 - r S per mode, zero at both ends;
    ``pot`` is l(l+1)/r^2 and ``rint`` r on the interior points, ``s`` the
    source rows (None for none)."""
    acc = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (h * h) - pot * u[:, 1:-1]
    if s is not None:
        acc = acc - rint[None, :] * s[:, 1:-1]
    dv = np.zeros_like(u)
    dv[:, 1:-1] = acc
    return dv


def _null_derivative(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """b + d_r a per mode (L a when b = d_t a), one-sided at r = 0."""
    ar = np.empty_like(a)
    ar[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * h)
    ar[:, 0] = a[:, 1] / h
    ar[:, -1] = 0.0
    return b + ar


def solve_backward_system(
    fields: Dict[str, FieldState],
    source: Optional[Callable],
    T: float,
    t0: float,
    record_times: Sequence[float],
    cfl: float = 0.5,
    cone_specs: Sequence[ConeSpec] = (),
    record_every_step: bool = False,
) -> Trajectory:
    """March the coupled per-mode system from t = T down to t = t0.

    ``source(t, views)`` returns a dict mapping field names to S arrays of
    shape (n_modes, J+1), the right-hand side of box phi = S; omitted fields
    get zero source.  ``views[name]`` has the stage's t, grid, modes, u and
    v.  Record times are hit exactly (segment-wise uniform dt below the
    stability limit).  Cone fluxes are accumulated per step by
    linear interpolation to the cone foot.  ``record_every_step`` keeps
    every field's state after every step in ``Trajectory.dense``.
    """
    names = list(fields)
    if not names:
        raise EngineError("no fields to evolve")
    grid = fields[names[0]].grid
    for st in fields.values():
        if st.grid != grid:
            raise EngineError("all fields must share one radial grid")
        if abs(st.t - T) > 1e-12:
            raise EngineError("field data must be given at t = T")
    if not T > t0:
        raise EngineError("need T > t0")
    h = grid.h
    r = grid.r
    rint = r[1:-1]
    l_max = max(int(max((l for (l, _m) in st.modes), default=0)) for st in fields.values())
    dt_cap = stable_dt(h, l_max, cfl)

    times = sorted({float(t) for t in record_times} | {float(T), float(t0)}, reverse=True)
    if times[0] > T + 1e-12 or times[-1] < t0 - 1e-12:
        raise EngineError("record times must lie inside [t0, T]")

    u = {n: fields[n].u.copy() for n in names}
    v = {n: fields[n].v.copy() for n in names}
    ll1 = {n: fields[n].ell * (fields[n].ell + 1.0) for n in names}
    pot = {n: np.outer(ll1[n], 1.0 / rint**2) for n in names}
    modes = {n: fields[n].modes for n in names}

    def rhs(t, uu, vv):
        src = source(t, {n: SimpleNamespace(t=t, grid=grid, modes=modes[n], u=uu[n], v=vv[n])
                         for n in names}) if source else {}
        return dict(vv), {n: acceleration(uu[n], src.get(n), pot[n], rint, h) for n in names}

    def stage(t, c, ku, kv):
        """RK4 stage: the right-hand side at t - c after a step of c along (ku, kv)."""
        return rhs(t - c, {n: u[n] - c * ku[n] for n in names},
                   {n: v[n] - c * kv[n] for n in names})

    # accumulators
    cone_vals = {c.name(): 0.0 for c in cone_specs}
    cone_prev = {c.name(): None for c in cone_specs}
    first = names[0]      # the field whose cone fluxes are accumulated
    dense: Dict[str, List[FieldState]] = {n: [] for n in names} if record_every_step else {}

    recorded: Dict[str, List[FieldState]] = {n: [] for n in names}
    scale_seen = max(max(float(np.max(np.abs(u[n]))) for n in names), 1e-30)

    def cone_integrand(c: ConeSpec, t, uu, vv):
        foot = c.R - (c.t2 - t)
        if foot <= h or foot >= grid.r_max - h:
            return None
        un = uu[first]
        return conformal_flux_at(t, foot, c.s, h, un, _null_derivative(un, vv[first], h),
                                 ll1[first])

    def take_accumulations(t, uu, vv):
        nonlocal scale_seen
        for c in cone_specs:
            val = cone_integrand(c, t, uu, vv)
            key = c.name()
            if val is not None and cone_prev[key] is not None:
                cone_vals[key] += 0.5 * (val + cone_prev[key][1]) * (cone_prev[key][0] - t)
            cone_prev[key] = (t, val) if val is not None else None
        for n in dense:
            dense[n].append(FieldState(t, grid, modes[n], uu[n], vv[n]))
        # containment monitor
        for n in names:
            edge = float(np.max(np.abs(uu[n][:, -4:])))
            scale_seen = max(scale_seen, float(np.max(np.abs(uu[n]))))
            if edge > BREACH_TOL * scale_seen:
                raise ContainmentError(
                    f"support reached outer boundary at t={t:.6g} in field {n!r} "
                    f"(|u| = {edge:.3e}, scale {scale_seen:.3e}); enlarge r_max"
                )

    t_now = float(T)
    step_count = 0
    dt_used = 0.0
    cone_hist = {c.name(): [] for c in cone_specs}
    take_accumulations(t_now, u, v)
    for n in names:
        recorded[n].append(FieldState(t_now, grid, modes[n], u[n], v[n]))
    for key in cone_hist:
        cone_hist[key].append(cone_vals[key])

    for t_next in times[1:]:
        span = t_now - t_next
        n_steps = max(int(math.ceil(span / dt_cap - 1e-12)), 1)
        dt = span / n_steps
        dt_used = max(dt_used, dt)
        for _ in range(n_steps):
            k1u, k1v = rhs(t_now, u, v)
            k2u, k2v = stage(t_now, 0.5 * dt, k1u, k1v)
            k3u, k3v = stage(t_now, 0.5 * dt, k2u, k2v)
            k4u, k4v = stage(t_now, dt, k3u, k3v)
            for n in names:
                u[n] = u[n] - (dt / 6.0) * (k1u[n] + 2.0 * k2u[n] + 2.0 * k3u[n] + k4u[n])
                v[n] = v[n] - (dt / 6.0) * (k1v[n] + 2.0 * k2v[n] + 2.0 * k3v[n] + k4v[n])
                u[n][:, 0] = 0.0
                u[n][:, -1] = 0.0
                v[n][:, 0] = 0.0
                v[n][:, -1] = 0.0
            t_now -= dt
            step_count += 1
            take_accumulations(t_now, u, v)
        t_now = t_next  # kill accumulated roundoff in t
        for n in names:
            recorded[n].append(FieldState(t_now, grid, modes[n], u[n], v[n]))
        for key in cone_hist:
            cone_hist[key].append(cone_vals[key])

    return Trajectory(
        grid=grid,
        record_times=times,
        states=recorded,
        cone_history=cone_hist,
        dense=dense,
        dt_max=dt_used,
        steps=step_count,
    )


def solve_backward(data_at_T: FieldState, source, T: float, t0: float,
                   record_times: Sequence[float], **kwargs) -> Trajectory:
    """Single-field convenience wrapper around :func:`solve_backward_system`.

    ``source(t, view)`` returns an (n_modes, J+1) array or None.
    """
    wrapped = None
    if source is not None:
        def wrapped(t, views):  # noqa: E306
            s = source(t, views["phi"])
            return {} if s is None else {"phi": s}
    return solve_backward_system({"phi": data_at_T}, wrapped, T, t0, record_times, **kwargs)


# ---------------------------------------------------------------------------
# discrete wave operator and convergence utilities
# ---------------------------------------------------------------------------

def discrete_box_triplet(u_prev: np.ndarray, u_mid: np.ndarray, u_next: np.ndarray,
                         dt: float, grid: RadialGrid, ell: int) -> np.ndarray:
    """Second-order centered (-d_t^2 + d_r^2 - l(l+1)/r^2) u at interior points.

    Arguments are u rows at times t-dt, t, t+dt.  Returns the residual on
    j = 1..J-1; for u = r*phi with box phi = S this converges to r*S at
    O(h^2 + dt^2).
    """
    h = grid.h
    rint = grid.r[1:-1]
    utt = (u_next[1:-1] - 2.0 * u_mid[1:-1] + u_prev[1:-1]) / (dt * dt)
    urr = (u_mid[2:] - 2.0 * u_mid[1:-1] + u_mid[:-2]) / (h * h)
    return -utt + urr - ell * (ell + 1.0) * u_mid[1:-1] / rint**2


def discrete_box_field(u_of_t: Callable[[float], np.ndarray], t: float, dt: float,
                       grid: RadialGrid, ell: int) -> np.ndarray:
    """Discrete box of an analytically sampled u(t, r)."""
    return discrete_box_triplet(u_of_t(t - dt), u_of_t(t), u_of_t(t + dt), dt, grid, ell)


def convergence_order(errors: Sequence[float]) -> float:
    """Observed order from errors at h, h/2, h/4, ...; warns if non-monotone."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise EngineError("need at least two error levels")
    if any(e <= 0 for e in errors):
        raise EngineError("errors must be positive")
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    if any(o <= 0 for o in orders):
        warnings.warn("non-monotone refinement errors; order estimate is best-effort")
    return orders[-1] if len(orders) == 1 else sum(orders) / len(orders)
