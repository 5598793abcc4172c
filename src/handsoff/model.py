"""Problem data, control/trajectory containers, and support-measure costs.

A steering task is a linear time-invariant plant ``zdot = F z + G u`` on a
fixed horizon [a, b] with fixed endpoints ``z(a) = A``, ``z(b) = B`` and a
compact admissible input set U (a per-channel box or a Euclidean ball, in
both cases with 0 strictly interior). Controls are represented piecewise
constant: ordered breakpoints plus one input vector per segment, each
segment right-open.

A problem owns the two exponential kernels every computation on it uses,
``costate_flow`` = exp(F^T t) and ``zoh_flow`` = exp of the ZOH block of
(F, G), each built on first use and kept for the problem's life.

The hands-off objective is the support measure of the control: the total
time during which the input is not (numerically) the zero vector. The
identity ``support + time_at_zero = b - a`` ties it to the equivalent
indicator-integral form and is asserted by the test suite to 1e-12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import ExpKernel, zoh_block

#: Magnitude below which a control sample counts as "off", in the
#: Hamiltonian's zero bonus and by default in the support measure.
#: Solver and LP outputs carry roundoff, so exact-zero tests would
#: misclassify; :func:`l0_cost` and :func:`zero_time` take an override.
ZERO_TOL = 1e-9

#: Slack of the admissible-set and horizon checks.
_ADMIT_TOL = 1e-9


class ValidationError(ValueError):
    """A problem or control violates a structural invariant.

    ``field`` names the offending entry so CLI error messages can point
    at the file location.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Box:
    """Per-channel box of admissible inputs, lower_i < 0 < upper_i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _readonly(np.atleast_1d(np.asarray(self.lower, dtype=float)))
        upper = _readonly(np.atleast_1d(np.asarray(self.upper, dtype=float)))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValidationError("U", "box lower/upper must be equal-length vectors")
        if not np.all((-np.inf < lower) & (lower < 0)):
            raise ValidationError("U.lower", "must be finite, with 0 strictly interior (lower_i < 0)")
        if not np.all((0 < upper) & (upper < np.inf)):
            raise ValidationError("U.upper", "must be finite, with 0 strictly interior (upper_i > 0)")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, v: np.ndarray) -> np.ndarray:
        """Membership of inputs of shape (..., m), one verdict per input."""
        v = np.asarray(v, dtype=float)
        return np.all((v >= self.lower - _ADMIT_TOL) & (v <= self.upper + _ADMIT_TOL), axis=-1)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of admissible inputs, centered at 0."""

    radius: float

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValidationError("U.radius", f"radius must be positive and finite, got {self.radius}")

    def contains(self, v: np.ndarray) -> np.ndarray:
        """Membership of inputs of shape (..., m), one verdict per input."""
        return np.linalg.norm(np.asarray(v, dtype=float), axis=-1) <= self.radius + _ADMIT_TOL


AdmissibleSet = Box | Ball


@dataclass(frozen=True)
class Problem:
    """LTI steering task: zdot = F z + G u, z(a) = A, z(b) = B, u(t) in U."""

    F: np.ndarray
    G: np.ndarray
    a: float
    b: float
    A: np.ndarray
    B: np.ndarray
    U: AdmissibleSet

    def __post_init__(self):
        f = np.asarray(self.F, dtype=float)
        g = np.asarray(self.G, dtype=float)
        if g.ndim == 1:
            g = g[:, None]
        va = np.atleast_1d(np.asarray(self.A, dtype=float))
        vb = np.atleast_1d(np.asarray(self.B, dtype=float))
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValidationError("F", f"must be square, got shape {f.shape}")
        d = f.shape[0]
        if g.shape[0] != d:
            raise ValidationError("G", f"has {g.shape[0]} rows, expected {d}")
        if g.shape[1] == 0:
            raise ValidationError("G", "has no columns; a steering task needs at least one input channel")
        if va.shape != (d,):
            raise ValidationError("A", f"must be a {d}-vector, got shape {va.shape}")
        if vb.shape != (d,):
            raise ValidationError("B", f"must be a {d}-vector, got shape {vb.shape}")
        for name, value in (("F", f), ("G", g), ("a", self.a), ("b", self.b), ("A", va), ("B", vb)):
            if not np.isfinite(value).all():
                raise ValidationError(name, "entries must be finite")
        if not self.b > self.a:
            raise ValidationError("b", f"horizon must satisfy b > a, got a={self.a}, b={self.b}")
        if isinstance(self.U, Box) and self.U.dim != g.shape[1]:
            raise ValidationError("U", f"box dimension {self.U.dim} != input dimension {g.shape[1]}")
        object.__setattr__(self, "F", _readonly(f))
        object.__setattr__(self, "G", _readonly(g))
        object.__setattr__(self, "A", _readonly(va))
        object.__setattr__(self, "B", _readonly(vb))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def d(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.G.shape[1]

    @property
    def horizon(self) -> float:
        return self.b - self.a

    # The arrays are read-only and the dataclass frozen, so each kernel is
    # built on first use and serves the problem for its whole life.
    @cached_property
    def costate_flow(self) -> ExpKernel:
        """exp(F^T t): the costate is p(t) = costate_flow(b - t) @ p_hat."""
        return ExpKernel(self.F.T)

    @cached_property
    def zoh_flow(self) -> ExpKernel:
        """exp of the ZOH block (:func:`handsoff.linalg.zoh_block`): exp(F t)
        top left, int_0^t exp(F s) ds @ G top right."""
        return ExpKernel(zoh_block(self.F, self.G))

    def validate_control(self, u: "PiecewiseConstantControl") -> None:
        """Check that a control matches this problem's horizon, input
        dimension, and admissible set."""
        if u.m != self.m:
            raise ValidationError("values", f"control has {u.m} channels, plant expects {self.m}")
        if abs(u.a - self.a) > _ADMIT_TOL or abs(u.b - self.b) > _ADMIT_TOL:
            raise ValidationError(
                "breakpoints", f"control spans [{u.a}, {u.b}], problem horizon is [{self.a}, {self.b}]"
            )
        inside = self.U.contains(u.values)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValidationError("values", f"segment {k} value {u.values[k]} outside the admissible set")


@dataclass(frozen=True)
class PiecewiseConstantControl:
    """Right-open piecewise-constant control on [breakpoints[0], breakpoints[-1]].

    ``values[k]`` is the input on [breakpoints[k], breakpoints[k+1]);
    the final instant takes the last segment's value.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.size < 2:
            raise ValidationError("breakpoints", "need at least two breakpoints")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("breakpoints", "breakpoints must be strictly increasing")
        if v.shape[0] != t.size - 1:
            raise ValidationError(
                "values", f"{v.shape[0]} segment values for {t.size - 1} segments"
            )
        object.__setattr__(self, "breakpoints", _readonly(t))
        object.__setattr__(self, "values", _readonly(v))

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Inputs in effect at a time or an array of times (right-limit
        convention: a breakpoint takes the segment it starts, b the last)."""
        idx = np.searchsorted(self.breakpoints, np.asarray(times, float), side="right") - 1
        idx = np.clip(idx, 0, self.values.shape[0] - 1)
        return self.values[idx]


@dataclass(frozen=True)
class Trajectory:
    """Sampled state/control path: grid times, states, and inputs in effect."""

    grid: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        z = np.asarray(self.states, dtype=float)
        u = np.asarray(self.controls, dtype=float)
        if z.shape[0] != g.size or u.shape[0] != g.size:
            raise ValidationError("grid", "states/controls must have one row per grid point")
        object.__setattr__(self, "grid", _readonly(g))
        object.__setattr__(self, "states", _readonly(z))
        object.__setattr__(self, "controls", _readonly(u))


def _off_mask(values: np.ndarray, zero_tol: float) -> np.ndarray:
    """True for inputs (..., m) that are (numerically) the zero vector: the
    one zero-input rule of the support measure and the Hamiltonian."""
    return np.all(np.abs(values) <= zero_tol, axis=-1)


def l0_cost(u: PiecewiseConstantControl, zero_tol: float = ZERO_TOL) -> float:
    """Support measure of a control: total length of its "on" segments.

    A segment is "off" iff every component has magnitude <= zero_tol.
    """
    on = ~_off_mask(u.values, zero_tol)
    return float(np.sum(u.segment_lengths[on]))


def zero_time(u: PiecewiseConstantControl, zero_tol: float = ZERO_TOL) -> float:
    """Total time the control is (numerically) the zero vector; the
    complement of :func:`l0_cost` on the horizon."""
    off = _off_mask(u.values, zero_tol)
    return float(np.sum(u.segment_lengths[off]))


def l1_cost(u: PiecewiseConstantControl) -> float:
    """Integral of the 1-norm of the control over the horizon."""
    return float(np.sum(u.segment_lengths * np.abs(u.values).sum(axis=1)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PROBLEM_KEYS = ("F", "G", "a", "b", "A", "B", "U")


def problem_from_dict(data: dict) -> Problem:
    """Build a validated Problem from parsed JSON data."""
    for key in _PROBLEM_KEYS:
        if key not in data:
            raise ValidationError(key, "missing required key")
    u_spec = data["U"]
    if not isinstance(u_spec, dict) or "kind" not in u_spec:
        raise ValidationError("U", "must be an object with a 'kind' key")
    kind = u_spec["kind"]
    if kind == "box":
        if "lower" not in u_spec or "upper" not in u_spec:
            raise ValidationError("U", "box requires 'lower' and 'upper'")
        admissible: AdmissibleSet = Box(np.asarray(u_spec["lower"]), np.asarray(u_spec["upper"]))
    elif kind == "ball":
        if "radius" not in u_spec:
            raise ValidationError("U.radius", "ball requires 'radius'")
        admissible = Ball(float(u_spec["radius"]))
    else:
        raise ValidationError("U.kind", f"unknown admissible-set kind {kind!r}")
    return Problem(
        F=np.asarray(data["F"], dtype=float),
        G=np.asarray(data["G"], dtype=float),
        a=float(data["a"]),
        b=float(data["b"]),
        A=np.asarray(data["A"], dtype=float),
        B=np.asarray(data["B"], dtype=float),
        U=admissible,
    )


def problem_to_dict(prob: Problem) -> dict:
    if isinstance(prob.U, Box):
        u_spec = {"kind": "box", "lower": prob.U.lower.tolist(), "upper": prob.U.upper.tolist()}
    else:
        u_spec = {"kind": "ball", "radius": prob.U.radius}
    return {
        "F": prob.F.tolist(),
        "G": prob.G.tolist(),
        "a": prob.a,
        "b": prob.b,
        "A": prob.A.tolist(),
        "B": prob.B.tolist(),
        "U": u_spec,
    }


def load_problem(path: str | Path) -> Problem:
    """Load and validate a problem JSON file.

    Raises :class:`ValidationError` naming the offending field, or
    ``json.JSONDecodeError`` on malformed input.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("<root>", "problem file must contain a JSON object")
    try:
        return problem_from_dict(data)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError("<file>", f"non-numeric or malformed entry: {exc}") from exc


def save_problem(prob: Problem, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(prob), fh, indent=2)
        fh.write("\n")


def write_csv(path: str | Path, header: list[str], table: np.ndarray) -> None:
    """Write a header line and one line per table row, every value with 17
    significant digits (so a load round-trip reproduces the exact doubles),
    in one format operation for the whole table."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = "".join([row] * table.shape[0]) % tuple(table.ravel().tolist())
    Path(path).write_text(",".join(header) + "\n" + body, encoding="utf-8")


def save_control(u: PiecewiseConstantControl, path: str | Path) -> None:
    """Write a control as segment CSV: t_start, t_end, u_1..u_m (see
    :func:`write_csv`)."""
    header = ["t_start", "t_end"] + [f"u_{i + 1}" for i in range(u.m)]
    write_csv(path, header, np.column_stack([u.breakpoints[:-1], u.breakpoints[1:], u.values]))


def load_control(path: str | Path) -> PiecewiseConstantControl:
    """Read a segment CSV written by :func:`save_control`.

    Segments must tile an interval: each row's t_start equals the previous
    row's t_end.
    """
    text = Path(path).read_text(encoding="utf-8").strip()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("file", "control CSV has no segments")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "t_start" or header[1] != "t_end":
        raise ValidationError("header", f"unexpected control CSV header {lines[0]!r}")
    m = len(header) - 2
    starts, ends, values = [], [], []
    for i, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        if len(cells) != m + 2:
            raise ValidationError("row", f"expected {m + 2} cells, got {len(cells)}: {ln!r}")
        try:
            start, end, *value = (float(c) for c in cells)
        except ValueError:
            raise ValidationError("row", f"segment row {i} has a non-numeric cell: {ln!r}") from None
        starts.append(start)
        ends.append(end)
        values.append(value)
    breakpoints = [starts[0]]
    for k in range(len(starts)):
        if k > 0 and starts[k] != ends[k - 1]:
            raise ValidationError("t_start", f"segment {k} does not start where segment {k - 1} ends")
        breakpoints.append(ends[k])
    return PiecewiseConstantControl(np.asarray(breakpoints), np.asarray(values))
