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
solve aborts once a field's |u| on the last four grid points exceeds
BREACH_TOL = 1e-9 times the largest |u| of that field seen so far.

The engine only marches and keeps the states at the record times; an
optional ``on_step`` observer (cone fluxes, per-step states: see
``functionals``) sees every field at t = T and after every step.  Every
slice the march hands out (a source's stage views, an observer's step
views, the recorded states) is a :class:`FieldState` on the field's rows of
the march's own arrays, not a copy: the march never writes an array after
handing it out, and zeroes the data's ends once, on its own stacked copy.

Several fields can be co-evolved as one system so that coupled sources
(e.g. a quadratic coupling to another field's time derivative) see exact
substage values, and so that uncoupled fields with a common source (the
horizons of a T -> infinity study) share its rows.  The march stacks the
fields' modes into one u and one v array, a row slice per field: each RK4
stage is one stencil pass over the stack, then each field's source rows
are subtracted from its own slice.  A field joins at its own data time, T
or a record time; the fields are stacked in order of entry, so the active
rows are a prefix of the stack, and below its data time a field steps
with the floats of its own solve from there.

RK4 asks for the source four times per step, at two new distinct times (k2
and k3 share t - dt/2; k4's time is the next step's k1's).  These are the
stage times of the :class:`StepSchedule` the march steps with and the stage
views carry.  A costly state-independent source evaluates them in blocks of
BLOCK_TIMES through :func:`stage_rows`, which keeps each block, a
:class:`StageBlock` with what its sources share, in the schedule until the
march leaves it, as the radiation residual and the weak-null strata do.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ModeKey = Tuple[int, int]

RK4_IMAG_LIMIT = 2.7  # safe fraction of the 2*sqrt(2) imaginary-axis bound
BREACH_TOL = 1e-9     # edge/scale ratio of |u| that aborts a solve
# stage times per block of forcing rows (see stage_rows); 128-time blocks
# raised a homogeneous run's peak RSS by 18%
BLOCK_TIMES = 16


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


def radial_deriv(arr: np.ndarray, ell: np.ndarray, h: float) -> np.ndarray:
    """Centered d_r of per-mode rows on the grid, 0 at r_max; at r = 0 the
    parity limit u_1/h for l = 0 and 0 for l > 0."""
    out = np.empty_like(arr)
    out[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / (2.0 * h)
    out[:, -1] = 0.0
    out[:, 0] = np.where(ell == 0, arr[:, 1] / h, 0.0)
    return out


class FieldState:
    """One time slice of one field: per-mode u = r*phi and v = d_t u, (n_modes,
    J+1) each, the caller's own arrays as given (zeros when not given), never
    written.  The derived arrays (``ur``, ``u_over_r``) are computed on each
    access and never kept: a kept state holds only u and v."""

    def __init__(self, t: float, grid: RadialGrid, modes: Sequence[ModeKey],
                 u: np.ndarray = None, v: np.ndarray = None):
        self.t = float(t)
        self.grid = grid
        self.modes = tuple(modes)
        shape = (len(self.modes), grid.J + 1)
        self.u = np.zeros(shape) if u is None else u
        self.v = np.zeros(shape) if v is None else v

    @property
    def r(self) -> np.ndarray:
        return self.grid.r

    @property
    def ell(self) -> np.ndarray:
        return np.array([l for (l, _m) in self.modes], dtype=float)

    @property
    def ll1(self) -> np.ndarray:     # l(l+1)
        ell = self.ell
        return ell * (ell + 1.0)

    @property
    def ur(self) -> np.ndarray:      # d_r u
        return radial_deriv(self.u, self.ell, self.grid.h)

    @property
    def u_over_r(self) -> np.ndarray:
        out = np.empty_like(self.u)
        out[:, 1:] = self.u[:, 1:] / self.r[1:]
        out[:, 0] = np.where(self.ell == 0, self.u[:, 1] / self.grid.h, 0.0)
        return out


class StepSchedule:
    """Steps from T = times[0] down to t0 = times[-1] (descending), dt uniform
    and <= dt_cap between consecutive times.  ``stage_times``: the distinct
    RK4 stage times (t, t - dt/2, t - dt per step) in march order, the floats
    the source gets."""

    def __init__(self, times: Sequence[float], dt_cap: float):
        self.times, self.dt_cap = tuple(times), dt_cap
        self._block = (0, None)   # start, block: none yet
        self.stage_times = tuple(dict.fromkeys(
            s for t, dt, _end in self.steps() for s in (t, t - 0.5 * dt, t - dt)))
        self._index = {s: i for i, s in enumerate(self.stage_times)}

    def steps(self):
        """(t, dt, end) per step in march order; ``end`` is the record time a
        segment's last step lands on (t snaps to it), else None."""
        t = self.times[0]
        for t_next in self.times[1:]:
            n = max(int(math.ceil((t - t_next) / self.dt_cap - 1e-12)), 1)
            dt = (t - t_next) / n
            for i in range(n):
                yield t, dt, (t_next if i == n - 1 else None)
                t -= dt
            t = t_next


class StageBlock:
    """Stage times ``ts`` at the radii ``r`` (the caller's array, unwritten while
    kept); ``share(key, build)`` is build(block), built once per block and key."""

    def __init__(self, ts: np.ndarray, r: np.ndarray):
        self.ts, self.r, self._kept = ts, r, {}

    def share(self, key, build: Callable[["StageBlock"], object]):
        return self._kept[key] if key in self._kept else self._kept.setdefault(key, build(self))


def stage_rows(schedule: Optional[StepSchedule], key, t: float, r: np.ndarray,
               rows_at: Callable[[StageBlock], np.ndarray]) -> np.ndarray:
    """``rows_at(block)[k]`` for t = block.ts[k]: a forcing's rows at radii ``r``,
    on the block t alone without a schedule (the caller's own row), else on the
    schedule's kept block if it holds t, or on t and up to BLOCK_TIMES - 1 later
    stage times kept in its place; each key's rows built once per block, read-only.
    Radii other than the first block's array (by identity) and off-schedule times raise."""
    if schedule is None:
        return rows_at(StageBlock(np.array([t]), r))[0]
    i = schedule._index.get(t)
    if i is None:
        raise EngineError(f"t = {t!r} is not a stage time of this schedule")
    start, block = schedule._block
    if block is not None and block.r is not r:
        raise EngineError("a schedule serves the one radii array its blocks were built on")
    if block is None or not 0 <= i - start < block.ts.size:
        block = schedule._block = None   # drop the old block first: peak RSS
        start, block = schedule._block = (
            i, StageBlock(np.array(schedule.stage_times[i:i + BLOCK_TIMES]), r))
    rows = block.share(key, rows_at)
    rows.flags.writeable = False
    return rows[i - start]


@dataclass
class Trajectory:
    grid: RadialGrid
    record_times: List[float]
    states: Dict[str, List[FieldState]]
    dt_max: float
    steps: int

    def field_states(self, name: str = None) -> List[FieldState]:
        if name is None:
            name = next(iter(self.states))
        return self.states[name]

    def state_at(self, t: float, name: str) -> FieldState:
        for st in self.field_states(name):
            if abs(st.t - t) < 1e-9:
                return st
        raise EngineError(f"no recorded state at t={t}")


def stable_dt(h: float, l_max: int, cfl: float) -> float:
    """Time step respecting both the advective CFL and the RK4 bound for the
    stiff angular potential at r = h."""
    return min(cfl * h, RK4_IMAG_LIMIT * h / math.sqrt(4.0 + l_max * (l_max + 1.0)))


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


def solve_backward_system(
    fields: Dict[str, FieldState],
    source: Optional[Callable],
    T: float,
    t0: float,
    record_times: Sequence[float],
    cfl: float,
    on_step: Optional[Callable] = None,
) -> Trajectory:
    """March the coupled per-mode system from t = T down to t = t0.

    Each field joins the march at its own data time ``st.t``, which must be
    T or one of the record times: from there down it steps, is recorded and
    is watched for containment (against its own largest |u|) as its own
    solve from that time would be (bit for bit, when all fields share one
    l_max).  The fields are stacked
    in order of entry (fields entering together in the given order), so the
    active rows are a prefix of the stack; a field not yet active is neither
    marched nor shown to ``source`` or ``on_step``.

    ``source(t, views)`` returns a dict mapping field names to S arrays of
    shape (n_modes, J+1), the right-hand side of box phi = S; omitted fields
    get zero source.  ``views[name]`` is an active field's
    :class:`FieldState` at the stage, on its rows of the march's stacked
    arrays, with the march's :class:`StepSchedule` as its ``schedule``
    attribute.  Record times are hit exactly; steps are at most
    ``stable_dt(h, l_max, cfl)`` long, l_max over all fields and ``cfl``
    being the run's (no default: every solve of a run steps by one rule).
    ``on_step(t, views)``, when given, is called with states of the same
    kind (without ``schedule``) at t = T and after every step, in march
    order; t is the step's own time, before a segment end snaps it to the
    record time, and a field is in the views from the step that lands on
    its data time.  Views and recorded states hold the march's own arrays,
    which the engine never writes after handing them out and no caller may
    write at all.
    """
    if not fields:
        raise EngineError("no fields to evolve")
    if not T > t0:
        raise EngineError("need T > t0")
    times = sorted({float(t) for t in record_times} | {float(T), float(t0)}, reverse=True)
    if times[0] > T + 1e-12 or times[-1] < t0 - 1e-12:
        raise EngineError("record times must lie inside [t0, T]")
    grid = next(iter(fields.values())).grid
    entry = {}   # field -> the time in times it joins at
    for n, st in fields.items():
        if st.grid != grid:
            raise EngineError("all fields must share one radial grid")
        entry[n] = next((t for t in times if abs(st.t - t) <= 1e-12), None)
        if entry[n] is None:
            raise EngineError(f"field {n!r}: data at t = {st.t} is neither T nor a record time")
    if times[0] not in entry.values():
        raise EngineError("no field has its data at t = T")
    names = sorted(fields, key=entry.get, reverse=True)
    h = grid.h
    rint = grid.r[1:-1]
    stops = np.cumsum([len(fields[n].modes) for n in names])
    rows = {n: slice(stop - len(fields[n].modes), stop) for n, stop in zip(names, stops)}
    ell = np.concatenate([fields[n].ell for n in names])
    dt_cap = stable_dt(h, int(max(ell, default=0)), cfl)

    pot = np.outer(ell * (ell + 1.0), 1.0 / rint**2)
    schedule = StepSchedule(times, dt_cap)
    active: List[str] = []
    u = v = np.zeros((0, grid.J + 1))
    scale_seen: Dict[str, float] = {}

    def views(t, uu, vv):
        return {n: FieldState(t, grid, fields[n].modes, uu[rows[n]], vv[rows[n]])
                for n in active}

    def rhs(t, uu, vv):
        """(d_t u, d_t v) of the active stack at the stage (t, uu, vv)."""
        dv = acceleration(uu, None, pot[:len(uu)], rint, h)
        if source:
            stage = views(t, uu, vv)
            for view in stage.values():
                view.schedule = schedule
            for n, s in source(t, stage).items():
                dv[rows[n], 1:-1] -= rint[None, :] * s[:, 1:-1]
        return vv, dv

    def join(t):
        """Stack the fields whose data time is t below the active rows."""
        nonlocal u, v
        new = [n for n in names if entry[n] == t]
        if new:
            active.extend(new)
            u = np.concatenate([u, *(fields[n].u for n in new)])
            v = np.concatenate([v, *(fields[n].v for n in new)])
            u[:, 0] = u[:, -1] = v[:, 0] = v[:, -1] = 0.0

    recorded: Dict[str, List[FieldState]] = {n: [] for n in fields}

    def after_step(t, record):
        """The observer, the containment monitor, then the states at the
        record time ``record`` (None: none)."""
        if on_step is not None:
            on_step(t, views(t, u, v))
        for n in active:
            edge = float(np.max(np.abs(u[rows[n], -4:])))
            scale_seen[n] = max(scale_seen.get(n, 1e-30), float(np.max(np.abs(u[rows[n]]))))
            if edge > BREACH_TOL * scale_seen[n]:
                raise ContainmentError(
                    f"support reached outer boundary at t={t:.6g} in field {n!r} "
                    f"(|u| = {edge:.3e}, scale {scale_seen[n]:.3e}); enlarge r_max"
                )
        if record is not None:
            for n, st in views(record, u, v).items():
                recorded[n].append(st)

    join(times[0])
    after_step(times[0], times[0])
    steps = list(schedule.steps())
    for t_now, dt, end in steps:
        k1u, k1v = rhs(t_now, u, v)
        k2u, k2v = rhs(t_now - 0.5 * dt, u - 0.5 * dt * k1u, v - 0.5 * dt * k1v)
        k3u, k3v = rhs(t_now - 0.5 * dt, u - 0.5 * dt * k2u, v - 0.5 * dt * k2v)
        k4u, k4v = rhs(t_now - dt, u - dt * k3u, v - dt * k3v)
        u = u - (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v - (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u[:, 0] = u[:, -1] = v[:, 0] = v[:, -1] = 0.0
        join(end)
        after_step(t_now - dt, end)

    return Trajectory(grid=grid, record_times=times, states=recorded,
                      dt_max=max(dt for _t, dt, _end in steps), steps=len(steps))


def solve_backward(data_at_T: FieldState, source, T: float, t0: float,
                   record_times: Sequence[float], cfl: float, **kwargs) -> Trajectory:
    """Single-field convenience wrapper around :func:`solve_backward_system`.

    ``source(t, view)`` returns an (n_modes, J+1) array; ``cfl`` is the
    run's, as there.
    """
    wrapped = None
    if source is not None:
        def wrapped(t, views):  # noqa: E306
            return {"phi": source(t, views["phi"])}
    return solve_backward_system({"phi": data_at_T}, wrapped, T, t0, record_times, cfl, **kwargs)


# ---------------------------------------------------------------------------
# discrete wave operator and convergence utilities
# ---------------------------------------------------------------------------

def discrete_box_field(u_of_t: Callable[[float], np.ndarray], t: float, dt: float,
                       grid: RadialGrid, ell: int) -> np.ndarray:
    """Second-order centered (-d_t^2 + d_r^2 - l(l+1)/r^2) u at interior points
    of an analytically sampled u(t, r), from its rows at t - dt, t, t + dt.

    Returns the residual on j = 1..J-1; for u = r*phi with box phi = S this
    converges to r*S at O(h^2 + dt^2).
    """
    u_prev, u_mid, u_next = u_of_t(t - dt), u_of_t(t), u_of_t(t + dt)
    h = grid.h
    rint = grid.r[1:-1]
    utt = (u_next[1:-1] - 2.0 * u_mid[1:-1] + u_prev[1:-1]) / (dt * dt)
    urr = (u_mid[2:] - 2.0 * u_mid[1:-1] + u_mid[:-2]) / (h * h)
    return -utt + urr - ell * (ell + 1.0) * u_mid[1:-1] / rint**2


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
