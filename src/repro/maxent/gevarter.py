"""The paper's sequential Gauss–Seidel solver for the ``a`` values.

Equations 75-87 solve the constraint equations one scalar at a time, each
``a`` from its own constraint equation holding all the others at their most
recent values, in a fixed published order; Table 2 tabulates the resulting
iteration for the smoking example's first cell constraint.

This module reproduces that scheme generically:

- cell-constraint factors are visited first (the paper starts with ``b``,
  the factor of the new cell constraint, Eq 75);
- then every value of every first-order margin is solved individually
  (Eqs 76-86);
- the normalization factor ``a0`` is solved last from Eq 87.

Each scalar update sets its ``a`` so its own constraint equation holds
exactly given the other factors.  The fixed point is the same maxent
distribution :func:`repro.maxent.ipf.fit_ipf` converges to (the constraint
system has a unique positive solution); the tests assert agreement.

Unlike the IPF path this recomputes dense sums on every scalar update, which
is what makes the per-iteration trace match the paper's table row for row in
spirit — fidelity over speed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import FitPlan, FitResult, max_violation
from repro.maxent.model import MaxEntModel


def fit_gevarter(
    constraints: ConstraintSet,
    initial: MaxEntModel | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 500,
    record_trace: bool = True,
    require_convergence: bool = True,
) -> FitResult:
    """Fit the maxent model with the paper's sequential scalar updates.

    Parameters mirror :func:`repro.maxent.ipf.fit_ipf`.  ``record_trace``
    defaults to True here because the trace *is* the point of this solver
    (Table 2); each trace row is the full named ``a``-value snapshot after
    one sweep.

    When no ``initial`` model is given the solver starts from the
    first-order solution ``a_i = p_i`` (the paper's Eq 60 starting point:
    "Initially, the a values are calculated from the first-order
    probabilities").  When warm-starting across a *changed* constraint set
    (Figure 4's "last previously calculated a values"), build the initial
    model with :func:`repro.maxent.ipf.warm_start_model` — factors with no
    matching constraint are never re-solved here, so leftovers would
    distort the fixed point.
    """
    constraints.validate_complete()
    if constraints.subset_margins:
        raise ConstraintError(
            "the Gevarter solver implements the paper's single-cell "
            "constraint equations; whole-subset marginal constraints are "
            "the log-linear extension — fit them with fit_ipf"
        )
    schema = constraints.schema

    if initial is not None:
        model = initial.copy()
    else:
        model = MaxEntModel.independent(
            schema,
            {name: constraints.margin(name) for name in schema.names},
        )
    for cell in constraints.cells:
        model.cell_factors.setdefault(cell.key, 1.0)

    plan = FitPlan(constraints)

    history: list[float] = []
    trace: list[dict[str, float]] = []
    if record_trace:
        trace.append(model.a_values())

    converged = False
    sweeps = 0
    violation = np.inf
    for sweeps in range(1, max_sweeps + 1):
        # Cell factors first (the paper's Eq 75 solves b before the rest).
        for cell, (_, slicer, _) in zip(constraints.cells, plan.cells):
            _solve_cell_factor(model, cell, slicer)
        # Then each first-order a, value by value (Eqs 76-86).
        for attribute in schema:
            target = constraints.margin(attribute.name)
            for value in range(attribute.cardinality):
                _solve_margin_factor(model, attribute.name, value, target[value])
        # Finally a0 from the normalization equation (Eq 87).
        tensor = model.unnormalized()
        total = tensor.sum()
        if total <= 0:
            raise ConstraintError("model lost all mass during fitting")
        model.a0 = 1.0 / total
        tensor *= model.a0

        violation = max_violation(tensor, plan)
        history.append(violation)
        if record_trace:
            trace.append(model.a_values())
        if violation < tol:
            converged = True
            break

    if not converged and require_convergence:
        raise ConvergenceError(
            f"Gevarter iteration did not converge in {max_sweeps} sweeps "
            f"(max violation {violation:.3g}, tol {tol:.3g})"
        )
    model.normalize()
    return FitResult(
        model=model,
        converged=converged,
        sweeps=sweeps,
        max_violation=float(violation),
        checks=sweeps,
        history=history,
        trace=trace,
    )


def _solve_cell_factor(model: MaxEntModel, cell, slicer) -> None:
    """Set the cell's ``a`` so ``a0 * a * S = p`` holds (Eq 72's pattern).

    ``S`` is the sum of all other factors over the constrained slice, i.e.
    the slice mass with this factor divided out.
    """
    tensor = model.unnormalized()
    total = tensor.sum()
    if total <= 0:
        raise ConstraintError("model lost all mass during fitting")
    if cell.probability == 0.0:
        # a = p*rest / ((1-p)*base) is 0 whatever the slice's mass, which
        # may already be 0 under an enclosing zero-target cell.
        model.cell_factors[cell.key] = 0.0
        return
    current_factor = model.cell_factors[cell.key]
    slice_mass = float(tensor[slicer].sum())
    rest_mass = float(total - slice_mass)
    if current_factor == 0.0:
        raise ConstraintError(
            f"cell factor for {cell.key} collapsed to zero but target is "
            f"{cell.probability}"
        )
    base = slice_mass / current_factor
    if base <= 0:
        raise ConstraintError(
            f"cell target {cell.key} = {cell.probability} > 0 but the model "
            f"assigns the cell zero structural mass"
        )
    # p = a*base / (a*base + rest)  =>  a = p*rest / ((1-p)*base).
    p = cell.probability
    model.cell_factors[cell.key] = (p * rest_mass) / ((1.0 - p) * base)


def _solve_margin_factor(
    model: MaxEntModel, name: str, value: int, target: float
) -> None:
    """Set one margin scalar ``a_i`` from its own constraint equation."""
    schema = model.schema
    axis = schema.axis(name)
    tensor = model.unnormalized()
    other_axes = tuple(a for a in range(len(schema)) if a != axis)
    slice_masses = tensor.sum(axis=other_axes)
    current_factor = float(model.margin_factors[name][value])
    slice_mass = float(slice_masses[value])
    rest_mass = float(slice_masses.sum() - slice_mass)
    if current_factor == 0.0:
        if target == 0.0:
            return
        raise ConstraintError(
            f"margin factor a^{name}_{value + 1} collapsed to zero but "
            f"target is {target}"
        )
    base = slice_mass / current_factor
    if target == 0.0:
        model.margin_factors[name][value] = 0.0
        return
    if base <= 0:
        raise ConstraintError(
            f"margin target P({name}={value}) = {target} > 0 but the model "
            f"assigns the value zero structural mass"
        )
    if rest_mass <= 0:
        # Degenerate attribute: this value carries all mass; any positive
        # factor satisfies p = 1. Keep it unchanged.
        return
    model.margin_factors[name][value] = (target * rest_mass) / (
        (1.0 - target) * base
    )
