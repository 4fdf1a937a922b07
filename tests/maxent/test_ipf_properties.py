"""Property tests of the IPF sweep against the paper's solver.

Every problem is feasible by construction: a random joint over a random
schema (2-5 attributes, 2-3 values each) supplies the margins, 1-4 cell
targets of order 2 up to the full joint, and any subset margin.  Half
the problems zero one constrained cell of the joint first, so zero-target
cells are drawn too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.schema import Attribute, Schema
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.gevarter import fit_gevarter
from repro.maxent.ipf import FitPlan, cell_slicer, fit_ipf

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TOL = 1e-10
BUDGET = 20_000


@st.composite
def problems(draw, subset_margins=False):
    """A feasible constraint set drawn from a random joint."""
    cards = draw(st.lists(st.integers(2, 3), min_size=2, max_size=5))
    schema = Schema(
        [
            Attribute(f"X{i}", tuple(f"v{v}" for v in range(card)))
            for i, card in enumerate(cards)
        ]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Half uniform, so no cell is near zero by chance: near-zero optima
    # make IPF converge sublinearly, which is slow, not wrong.
    cells = schema.num_cells
    weights = rng.dirichlet(np.ones(cells)) + 1.0 / cells
    joint = (weights / weights.sum()).reshape(schema.shape)

    keys = {}
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.integers(2, len(cards)))
        axes = sorted(draw(st.permutations(range(len(cards))))[:order])
        names = tuple(schema.names[a] for a in axes)
        values = tuple(draw(st.integers(0, cards[a] - 1)) for a in axes)
        keys[(names, values)] = None
    keys = list(keys)
    if draw(st.booleans()):
        joint[cell_slicer(schema, *keys[0])] = 0.0
        joint /= joint.sum()

    constraints = ConstraintSet(schema)
    for axis, name in enumerate(schema.names):
        other = tuple(a for a in range(len(cards)) if a != axis)
        constraints.set_margin(name, joint.sum(axis=other))
    for names, values in keys:
        target = float(joint[cell_slicer(schema, names, values)].sum())
        constraints.add_cell(CellConstraint(names, values, target))
    if subset_margins:
        axes = sorted(draw(st.permutations(range(len(cards))))[:2])
        other = tuple(a for a in range(len(cards)) if a not in axes)
        constraints.set_subset_margin(
            [schema.names[a] for a in axes], joint.sum(axis=other)
        )
    return constraints


def recomputed_violation(model, constraints) -> float:
    """Max constraint violation of a fitted model, from its dense joint."""
    joint = model.joint()
    schema = constraints.schema
    worst = abs(float(joint.sum()) - 1.0)
    for name in schema.names:
        current = model.marginal([name])
        worst = max(worst, np.abs(current - constraints.margin(name)).max())
    for names, target in constraints.subset_margins.items():
        worst = max(worst, np.abs(model.marginal(names) - target).max())
    for cell in constraints.cells:
        share = joint[cell_slicer(schema, cell.attributes, cell.values)].sum()
        worst = max(worst, abs(float(share) - cell.probability))
    return float(worst)


class TestAgainstGevarter:
    @SETTINGS
    @given(problems())
    def test_marginals_match_paper_solver(self, constraints):
        ipf = fit_ipf(constraints, tol=1e-12, max_sweeps=BUDGET)
        paper = fit_gevarter(
            constraints, tol=1e-12, max_sweeps=BUDGET, record_trace=False
        )
        for name in constraints.schema.names:
            assert np.allclose(
                ipf.model.marginal([name]),
                paper.model.marginal([name]),
                rtol=0.0,
                atol=1e-8,
            )
        for cell in constraints.cells:
            ours = ipf.model.marginal(cell.attributes)[cell.values]
            theirs = paper.model.marginal(cell.attributes)[cell.values]
            assert ours == pytest.approx(theirs, abs=1e-8)
        assert np.allclose(
            ipf.model.joint(), paper.model.joint(), rtol=0.0, atol=1e-8
        )


class TestReportedViolation:
    @SETTINGS
    @given(problems())
    def test_cells_only(self, constraints):
        self._check(constraints)

    @SETTINGS
    @given(problems(subset_margins=True))
    def test_with_subset_margin(self, constraints):
        self._check(constraints)

    @staticmethod
    def _check(constraints):
        fit = fit_ipf(constraints, tol=TOL, max_sweeps=BUDGET)
        assert fit.converged
        recomputed = recomputed_violation(fit.model, constraints)
        assert fit.max_violation == pytest.approx(recomputed, abs=1e-13)
        assert fit.max_violation < TOL
        assert recomputed < TOL
        assert fit.history[-1] == fit.max_violation
        assert 1 <= fit.checks <= fit.sweeps

    @SETTINGS
    @given(problems(subset_margins=True))
    def test_warm_start_from_converged_stops_after_one_sweep(
        self, constraints
    ):
        cold = fit_ipf(constraints, tol=1e-13, max_sweeps=BUDGET)
        warm = fit_ipf(constraints, initial=cold.model, tol=TOL)
        assert warm.converged
        assert warm.sweeps == 1
        assert warm.checks == 1


class TestPlan:
    @SETTINGS
    @given(problems(subset_margins=True))
    def test_margin_views_share_memory_with_tensor(self, constraints):
        schema = constraints.schema
        plan = FitPlan(constraints)
        tensor = np.random.default_rng(0).random(schema.shape)
        views = plan.margin_views(tensor)
        for axis, view in enumerate(views):
            assert np.shares_memory(view, tensor)
            other = tuple(a for a in range(len(schema)) if a != axis)
            assert np.allclose(
                view.sum(axis=(0, 2)), tensor.sum(axis=other)
            )
        # A write through a view lands in the tensor.
        before = tensor.sum()
        views[-1] *= 2.0
        assert tensor.sum() == pytest.approx(2.0 * before)
