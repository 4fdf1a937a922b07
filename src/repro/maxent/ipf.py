"""Iterative proportional fitting of the factored maxent model.

One sweep applies, for every constraint, the exact multiplicative update
that makes the model satisfy that constraint while leaving its factored
form intact:

- a first-order margin scales each value slice by ``target / current``
  (classic IPF; total mass is preserved because targets sum to 1), and a
  subset margin does the same over its whole marginal table;
- a cell constraint scales the cell slice by ``p / s`` and the complement
  by ``(1 - p) / (1 - s)`` — the IPF step for the binary partition
  {cell, complement}, which is the cell's indicator feature plus
  normalization.

Factor bookkeeping keeps the paper's ``a`` values exact: every slice scaling
multiplies the corresponding ``a`` factor, and complement scalings are
absorbed into ``a0``.  This converges to the same fixed point as the paper's
Gauss–Seidel scheme (:mod:`repro.maxent.gevarter`); the tests assert so.

A :class:`FitPlan` lays the constraint set out over the joint tensor once
per fit, and the sweep keeps three invariants:

- **Lean passes.**  The working tensor is allocated once and scaled in
  place.  Each attribute's margin is read through a ``(pre, card, post)``
  view of it, so a margin is one two-axis reduction, and every cell's
  slicer is precomputed.
- **Cell updates preserve mass; the rescale is deferred.**  A cell update
  moves mass between the cell and its complement but keeps the total at
  1, so the complement factor ``(1 - p) / (1 - s)`` folds into one scalar.
  The cell sweep touches only each cell's slice and rescales the whole
  tensor once, at the end of the sweep.
- **A full check confirms convergence.**  The sweep measures every
  constraint's pre-update violation as it visits it.  Only when the
  sweep's maximum of those falls below ``tol`` does the fit run the full
  post-sweep check (:func:`max_violation`), and it stops only when that
  check passes too, so a result's ``max_violation`` is always a real
  post-sweep measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel

_CELL_TARGET_CEILING = 1.0 - 1e-12


@dataclass
class FitResult:
    """Outcome of an iterative fit.

    Attributes
    ----------
    model:
        The fitted model (normalized).
    converged:
        True if the max constraint violation dropped below tolerance.
    sweeps:
        Number of full sweeps performed.
    max_violation:
        Maximum absolute constraint violation of the returned model,
        measured by a full check after the last sweep.
    checks:
        Number of full convergence checks run.  IPF runs one only when a
        sweep's in-sweep maximum falls below tolerance; the Gevarter
        solver checks after every sweep and the dual solver at every
        objective evaluation.
    history:
        One max violation per sweep.  For IPF each entry is the sweep's
        in-sweep maximum (the largest pre-update violation measured as
        the sweep visited each constraint), except on sweeps that ran the
        full convergence check, which record that check's value.
    trace:
        Optional per-sweep snapshots of all named ``a`` values (Table-2
        style); empty unless tracing was requested.
    """

    model: MaxEntModel
    converged: bool
    sweeps: int
    max_violation: float
    checks: int = 0
    history: list[float] = field(default_factory=list)
    trace: list[dict[str, float]] = field(default_factory=list)


def warm_start_model(
    constraints: ConstraintSet, previous: MaxEntModel
) -> MaxEntModel:
    """Initial model for re-fitting ``constraints`` from an earlier fit.

    Keeps the previous margin factors and every cell/table factor that is
    backed by a constraint in the new set, and *drops* the rest.  The drop
    matters: the iterative solvers only update factors their constraints
    name, so a leftover factor from a constraint that is no longer imposed
    would survive the fit untouched and pull the fixed point away from the
    constraint set's maximum-entropy solution (IPF converges to the
    I-projection of its *starting* distribution).  Restricted this way, the
    warm start changes only the convergence speed, never the answer —
    which is what makes the incremental ``update()`` path equivalent to a
    cold refit.
    """
    model = previous.copy()
    keys = constraints.cell_keys()
    model.cell_factors = {
        key: factor
        for key, factor in model.cell_factors.items()
        if key in keys
    }
    subsets = set(constraints.subset_margins)
    model.table_factors = {
        names: array
        for names, array in model.table_factors.items()
        if names in subsets
    }
    return model


def fit_ipf(
    constraints: ConstraintSet,
    initial: MaxEntModel | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 500,
    record_trace: bool = False,
    require_convergence: bool = True,
) -> FitResult:
    """Fit the maxent model satisfying ``constraints`` by IPF sweeps.

    Parameters
    ----------
    constraints:
        Complete constraint set (every attribute must have a margin).
    initial:
        Warm-start model; defaults to the all-ones factor model.  Warm
        starts make the discovery loop's repeated refits cheap, mirroring
        the paper's "starting with the last previously calculated a values".
        When re-fitting after the constraint *set* changed (not just its
        targets), build the initial model with :func:`warm_start_model` so
        stale factors cannot shift the fixed point.
    tol:
        Convergence threshold on the max absolute constraint violation.
    max_sweeps:
        Sweep budget.
    record_trace:
        If True, snapshot all ``a`` values after every sweep.
    require_convergence:
        If True (default) raise :class:`ConvergenceError` when the budget is
        exhausted; otherwise return the best-effort result.
    """
    constraints.validate_complete()
    schema = constraints.schema
    for cell in constraints.cells:
        if cell.probability >= _CELL_TARGET_CEILING:
            raise ConstraintError(
                f"cell constraint {cell.key} has target ~1; degenerate "
                f"constraints must be expressed through margins"
            )

    model = initial.copy() if initial is not None else MaxEntModel(schema)
    for cell in constraints.cells:
        model.cell_factors.setdefault(cell.key, 1.0)
    for names, target in constraints.subset_margins.items():
        if names not in model.table_factors:
            model.table_factors[names] = np.ones(target.shape)

    # The working tensor is allocated once; every subsequent scaling is an
    # in-place multiply on it or on a view of it.
    tensor = model.unnormalized()
    tensor *= model.a0
    total = tensor.sum()
    if total <= 0:
        raise ConstraintError("initial model has zero total mass")
    model.a0 /= total
    tensor /= total

    plan = FitPlan(constraints)
    views = plan.margin_views(tensor)

    history: list[float] = []
    trace: list[dict[str, float]] = []
    converged = False
    checked = False
    sweeps = 0
    checks = 0
    for sweeps in range(1, max_sweeps + 1):
        swept = _margin_sweep(plan, views, model)
        swept = max(swept, _subset_margin_sweep(tensor, plan, model))
        swept = max(swept, _cell_sweep(tensor, plan, model))
        checked = swept < tol
        if checked:
            checks += 1
            violation = max_violation(tensor, plan)
        else:
            violation = swept
        history.append(violation)
        if record_trace:
            trace.append(model.a_values())
        if checked and violation < tol:
            converged = True
            break
    if not checked:
        # The budget ran out on a sweep that ran no full check: measure
        # the state being returned.
        checks += 1
        violation = max_violation(tensor, plan)

    if not converged and require_convergence:
        raise ConvergenceError(
            f"IPF did not converge in {max_sweeps} sweeps "
            f"(max violation {violation:.3g}, tol {tol:.3g})"
        )
    model.normalize()
    return FitResult(
        model=model,
        converged=converged,
        sweeps=sweeps,
        max_violation=violation,
        checks=checks,
        history=history,
        trace=trace,
    )


def cell_slicer(schema, names, values) -> tuple:
    """Index selecting one marginal cell's slice of the joint tensor."""
    slicer: list[slice | int] = [slice(None)] * len(schema)
    for name, value in zip(names, values):
        slicer[schema.axis(name)] = value
    return tuple(slicer)


class FitPlan:
    """A constraint set laid out over the joint tensor, built once per fit.

    - ``margins``: ``(name, target, (pre, card, post))`` per attribute.
      Reshaping the C-ordered joint to that shape puts the attribute on
      axis 1, so its margin is ``sum(axis=(0, 2))``.
    - ``subsets``: ``(names, target, other_axes, broadcast_shape)`` per
      subset margin.
    - ``cells``: ``(key, slicer, probability)`` per cell constraint.
    """

    def __init__(self, constraints: ConstraintSet):
        schema = constraints.schema
        shape = schema.shape
        self.margins = []
        for axis, attribute in enumerate(schema):
            pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
            self.margins.append(
                (
                    attribute.name,
                    constraints.margin(attribute.name),
                    (pre, attribute.cardinality, post),
                )
            )
        self.subsets = []
        for names, target in constraints.subset_margins.items():
            axes = schema.axes(names)
            other_axes = tuple(a for a in range(len(shape)) if a not in axes)
            broadcast = tuple(n if a in axes else 1 for a, n in enumerate(shape))
            self.subsets.append((names, target, other_axes, broadcast))
        self.cells = [
            (
                cell.key,
                cell_slicer(schema, cell.attributes, cell.values),
                cell.probability,
            )
            for cell in constraints.cells
        ]

    def margin_views(self, tensor: np.ndarray) -> list[np.ndarray]:
        """One 3-D view per attribute of the C-contiguous ``tensor``."""
        return [tensor.reshape(shape) for _, _, shape in self.margins]


def max_violation(tensor: np.ndarray, plan: FitPlan) -> float:
    """Max absolute violation of ``plan``'s constraints by ``tensor``.

    ``tensor`` is the joint with its normalization applied; its distance
    from total mass 1 counts as a violation too.
    """
    total = float(tensor.sum())
    worst = abs(total - 1.0)
    for _, target, shape in plan.margins:
        current = tensor.reshape(shape).sum(axis=(0, 2)) / total
        worst = max(worst, float(np.abs(current - target).max()))
    for _, target, other_axes, _ in plan.subsets:
        current = tensor.sum(axis=other_axes) / total
        worst = max(worst, float(np.abs(current - target).max()))
    for _, slicer, probability in plan.cells:
        share = float(tensor[slicer].sum()) / total
        worst = max(worst, abs(share - probability))
    return worst


def _ratio(current: np.ndarray, target: np.ndarray):
    """``target / current`` with 0 where the model has no mass.

    Returns ``(ratio, conflict)``; ``conflict`` is the flat index of the
    first entry with a positive target on zero mass (a structural
    conflict), else None.
    """
    if current.min() > 0:
        return target / current, None
    positive = current > 0
    ratio = np.zeros_like(current)
    ratio[positive] = target[positive] / current[positive]
    infeasible = (~positive) & (target > 0)
    if infeasible.any():
        return ratio, int(np.flatnonzero(infeasible)[0])
    return ratio, None


def _margin_sweep(plan, views, model) -> float:
    """One in-place pass over the first-order margins.

    Returns the largest pre-update violation it measured.
    """
    worst = 0.0
    for (name, target, _), view in zip(plan.margins, views):
        current = view.sum(axis=(0, 2))
        worst = max(worst, float(np.abs(current - target).max()))
        ratio, conflict = _ratio(current, target)
        if conflict is not None:
            raise ConstraintError(
                f"margin target P({name}={conflict}) > 0 but the "
                f"model assigns it zero mass (structural conflict)"
            )
        view *= ratio[:, None]
        model.margin_factors[name] *= ratio
    return worst


def _subset_margin_sweep(tensor, plan, model) -> float:
    """One in-place pass over the subset margins; returns its max violation."""
    worst = 0.0
    for names, target, other_axes, broadcast in plan.subsets:
        current = tensor.sum(axis=other_axes)
        worst = max(worst, float(np.abs(current - target).max()))
        ratio, conflict = _ratio(current, target)
        if conflict is not None:
            raise ConstraintError(
                f"subset margin for {names} puts mass on a cell the model "
                f"assigns zero (structural conflict)"
            )
        tensor *= ratio.reshape(broadcast)
        model.table_factors[names] = model.table_factors[names] * ratio
    return worst


def _cell_sweep(tensor, plan, model) -> float:
    """One pass over the cells with the complement rescale deferred.

    The stored tensor times ``scale`` is the model: each update scales
    only the cell's slice by ``ratio_in / ratio_out`` and folds
    ``ratio_out`` into ``scale``, which is applied once at the end.
    Returns the largest pre-update violation it measured.
    """
    worst = 0.0
    scale = 1.0
    for key, slicer, target in plan.cells:
        share = scale * float(tensor[slicer].sum())
        worst = max(worst, abs(share - target))
        if target == 0.0:
            if share > 0.0:
                tensor[slicer] = 0.0
                model.cell_factors[key] = 0.0
                rescale = 1.0 / (1.0 - share)
                scale *= rescale
                model.a0 *= rescale
            continue
        if share <= 0.0:
            raise ConstraintError(
                f"cell target {key} = {target} > 0 but the model "
                f"assigns it zero mass (structural conflict)"
            )
        ratio_in = target / share
        ratio_out = (1.0 - target) / (1.0 - share)
        tensor[slicer] *= ratio_in / ratio_out
        model.cell_factors[key] *= ratio_in / ratio_out
        model.a0 *= ratio_out
        scale *= ratio_out
    if scale != 1.0:
        tensor *= scale
    return worst
