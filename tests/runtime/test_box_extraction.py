"""Extraction over the bounding box, and which accesses share their
statement's placement.

`MappedProgram.comm_batches` evaluates every affine form of a statement
(schedule, placement, access owner maps) in one broadcast over
`Domain.box` and masks polyhedral domains with their half-space system;
no point matrix is built.  The result must equal the point-matrix
oracle ``mat @ point_matrix.T + off`` on rectangular, triangular, 0-D,
empty and negative-bound domains.

An access whose composed owner map ``(M_x F, M_x c + a_x)`` equals its
statement's ``(M_s, a_s)`` reuses the statement's array.  For the
accesses the heuristic marks ``local`` the linear part always matches
(step 1 zeroes ``M_x F - M_s``); whether their events are local on the
virtual grid depends on the offsets alone.
"""

import numpy as np
import pytest

from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import Domain
from repro.ir.loopnest import Bound, LoopDim
from repro.runtime import count_nonlocal_virtual
from repro.runtime.mapping import _box_affine, _box_inside

from pricing_cells import compile_cells


def _loop(var, lo, hi):
    return LoopDim(var=var, lower=Bound.of(lo), upper=Bound.of(hi))


def _tri_loop(var, lo_var, hi, const=0):
    """``for var = lo_var + const..hi``."""
    return LoopDim(
        var=var,
        lower=Bound(const=const, coeffs=((lo_var, 1),)),
        upper=Bound.of(hi),
    )


PARAMS = {"N": 5, "M": 3}

DOMAINS = {
    "rectangular": [_loop("i", 0, "N"), _loop("j", 1, "M")],
    "triangular": [_loop("i", 0, "N"), _tri_loop("j", "i", "N")],
    "tetrahedral": [
        _loop("i", 1, "N"), _tri_loop("j", "i", "N"), _tri_loop("k", "j", "M"),
    ],
    "zero_depth": [],
    "empty_dimension": [_loop("i", 0, "N"), _loop("j", 3, 1)],
    "empty_inner_of_triangle": [_loop("i", 0, 2), _tri_loop("j", "i", 1, 5)],
    "negative_bounds": [_loop("i", -4, -1), _loop("j", -3, 2)],
    "negative_triangle": [_loop("i", -4, 1), _tri_loop("j", "i", 0, -2)],
}


class TestBoxAffine:
    @pytest.mark.parametrize("name", sorted(DOMAINS))
    @pytest.mark.parametrize("rows", [1, 4])
    def test_matches_point_matrix_oracle(self, name, rows):
        dom = Domain.from_loops(DOMAINS[name])
        rng = np.random.default_rng([rows, len(name)])
        mat = rng.integers(-7, 8, size=(rows, dom.dim), dtype=np.int64)
        off = rng.integers(-20, 21, size=rows, dtype=np.int64)
        pts = dom.point_matrix(PARAMS)
        want = mat @ pts.T + off[:, None]

        box = dom.box(PARAMS)
        got = _box_affine(box, mat, off)
        keep = _box_inside(dom, box, PARAMS)
        assert (keep is None) == dom.is_rectangular
        if keep is not None:
            got = got[:, keep]
        assert got.dtype == np.int64
        assert got.shape == want.shape == (rows, pts.shape[0])
        assert np.array_equal(got, want)

    def test_zero_depth_is_one_point(self):
        got = _box_affine([], np.empty((2, 0), dtype=np.int64), np.array([3, -1]))
        assert got.tolist() == [[3], [-1]]

    def test_empty_dimension_is_no_point(self):
        mat = np.ones((3, 2), dtype=np.int64)
        got = _box_affine([(0, 4), (2, 1)], mat, np.zeros(3, dtype=np.int64))
        assert got.shape == (3, 0)


def _owner_maps(program):
    """Per access label: ``(linear_match, offset_match)`` of its
    composed owner map against its statement's placement."""
    al = program.mapping.alignment
    out = {}
    for stmt in al.nest.statements:
        m_s = al.allocation_of_stmt(stmt.name)
        a_s = al.offset_of_stmt(stmt.name)
        for acc in stmt.accesses:
            m_x = al.allocation_of_array(acc.array)
            a_x = al.offset_of_array(acc.array)
            label = acc.label or f"{stmt.name}:{acc.array}"
            out[label] = (m_x @ acc.F == m_s, m_x @ acc.c + a_x == a_s)
    return out


CORPORA = (
    corpus()
    + triangular_corpus()
    + generate_workloads(7, 20)
    + generate_triangular_workloads(7, 20)
)


class TestStatementPlacementShared:
    @pytest.mark.parametrize("workload", CORPORA, ids=lambda w: w.name)
    def test_local_labels_nonlocal_only_by_offsets(self, workload):
        """A ``local`` label always has ``M_x F == M_s``; it has zero
        non-local virtual events exactly when its offsets match too,
        and only then does its batch share the statement's array (a
        label of any class shares exactly when its whole owner map
        matches)."""
        ((program, _, _),) = compile_cells(workload, 2, [("cm5", (4, 4))])
        local = program.mapping.alignment.local_labels
        nonlocal_events = count_nonlocal_virtual(program)
        maps = _owner_maps(program)
        for batch in program.comm_batches():
            if batch.n == 0:
                continue
            label = batch.access_label
            linear, offsets = maps[label]
            shared = batch.sender_virtual is batch.receiver_virtual
            assert shared == (linear and offsets), label
            if shared:
                assert batch.sender is batch.receiver
                assert batch.locality_masks()[0].all()
                assert not batch.locality_masks()[2].any()
            if label in local:
                assert linear, label
                assert (nonlocal_events.get(label, 0) == 0) == offsets, label

    def test_known_offset_residuals(self):
        """The local labels with non-local events in these corpora are
        exactly those with unequal offsets: adi F3/F4/F7/F8 and
        tri-7-3 F3."""
        found = set()
        for workload in CORPORA:
            ((program, _, _),) = compile_cells(workload, 2, [("cm5", (4, 4))])
            local = program.mapping.alignment.local_labels
            for label, n in count_nonlocal_virtual(program).items():
                if label in local:
                    assert not _owner_maps(program)[label][1]
                    found.add((workload.name, label))
        assert found == {
            ("adi", "F3"), ("adi", "F4"), ("adi", "F7"), ("adi", "F8"),
            ("tri-7-3", "F3"),
        }
