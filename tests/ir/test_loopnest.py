"""Tests for the loop-nest IR: accesses, bounds, builder, domains."""

import pytest

from repro.ir import (
    AccessKind,
    AffineAccess,
    Bound,
    LoopDim,
    LoopNest,
    NestBuilder,
    Statement,
    read,
    write,
)
from repro.linalg import IntMat


class TestBound:
    def test_constant(self):
        assert Bound.of(5).evaluate({}) == 5

    def test_parameter(self):
        assert Bound.of("N").evaluate({"N": 10}) == 10

    def test_sum(self):
        b = Bound.of("N") + "M" + 1
        assert b.evaluate({"N": 3, "M": 4}) == 8

    def test_unbound_raises(self):
        with pytest.raises(KeyError):
            Bound.of("N").evaluate({})

    def test_describe(self):
        assert "N" in (Bound.of("N") + 1).describe()

    def test_reject_bad_type(self):
        with pytest.raises(TypeError):
            Bound.of(3.5)


class TestAffineAccess:
    def test_default_offset_zero(self):
        a = read("a", [[1, 0], [0, 1]])
        assert a.c == IntMat.zeros(2, 1)

    def test_apply(self):
        a = read("a", [[1, 1], [0, 1]], c=[0, 1])
        assert a.apply((2, 3)) == (5, 4)

    def test_apply_wrong_length(self):
        a = read("a", [[1, 0]])
        with pytest.raises(ValueError):
            a.apply((1, 2, 3))

    def test_shapes(self):
        a = write("b", [[1, 0], [0, 1], [1, 1]])
        assert a.array_dim == 3
        assert a.depth == 2
        assert a.rank == 2
        assert a.is_full_rank

    def test_rank_deficient(self):
        a = read("a", [[1, 1, 0], [1, 1, 0]])
        assert a.rank == 1
        assert not a.is_full_rank

    def test_offset_shape_mismatch(self):
        with pytest.raises(ValueError):
            AffineAccess(array="a", F=IntMat([[1, 0]]), c=IntMat.col([1, 2]))

    def test_kind(self):
        assert read("a", [[1]]).kind is AccessKind.READ
        assert write("a", [[1]]).kind is AccessKind.WRITE


class TestStatementAndNest:
    def _stmt(self):
        return Statement(
            name="S",
            loops=[
                LoopDim("i", Bound.of(0), Bound.of(2)),
                LoopDim("j", Bound.of(0), Bound.of(1)),
            ],
            accesses=[read("a", [[1, 0], [0, 1]])],
        )

    def test_depth_and_names(self):
        s = self._stmt()
        assert s.depth == 2
        assert s.index_names == ("i", "j")

    def test_domain(self):
        s = self._stmt()
        pts = list(s.iteration_domain({}))
        assert len(pts) == 6
        assert (0, 0) in pts and (2, 1) in pts

    def test_domain_size(self):
        assert self._stmt().domain_size({}) == 6

    def test_access_depth_validation(self):
        s = Statement(
            name="S",
            loops=[LoopDim("i", Bound.of(0), Bound.of(1))],
            accesses=[read("a", [[1, 0], [0, 1]])],
        )
        with pytest.raises(ValueError):
            s.validate()

    def test_nest_rejects_undeclared_array(self):
        nest = LoopNest(name="t")
        with pytest.raises(ValueError):
            nest.add_statement(self._stmt())

    def test_nest_rejects_dim_mismatch(self):
        nest = LoopNest(name="t")
        nest.declare_array("a", 3)
        with pytest.raises(ValueError):
            nest.add_statement(self._stmt())

    def test_nest_lookup(self):
        nest = LoopNest(name="t")
        nest.declare_array("a", 2)
        s = nest.add_statement(self._stmt())
        assert nest.statement("S") is s
        with pytest.raises(KeyError):
            nest.statement("missing")

    def test_duplicate_rejected(self):
        nest = LoopNest(name="t")
        nest.declare_array("a", 2)
        nest.add_statement(self._stmt())
        with pytest.raises(ValueError):
            nest.add_statement(self._stmt())
        with pytest.raises(ValueError):
            nest.declare_array("a", 2)


class TestBuilder:
    def test_build_round_trip(self):
        b = NestBuilder("ex")
        b.array("a", 2).array("b", 2)
        b.statement(
            "S1",
            [("i", 0, "N"), ("j", 0, "M")],
            writes=[("b", [[1, 0], [0, 1]], [0, 1])],
            reads=[("a", [[0, 1], [1, 0]])],
        )
        nest = b.build()
        s = nest.statement("S1")
        assert s.depth == 2
        assert len(s.writes()) == 1
        assert len(s.reads()) == 1
        assert s.writes()[0].c == IntMat.col([0, 1])

    def test_labels_assigned(self):
        b = NestBuilder("ex")
        b.array("a", 1)
        b.statement("S", [("i", 0, 3)], reads=[("a", [[1]])])
        acc = b.build().statement("S").reads()[0]
        assert acc.label is not None

    def test_duplicate_label_in_statement_rejected(self):
        b = NestBuilder("ex")
        b.array("a", 1).array("b", 1)
        with pytest.raises(ValueError, match="duplicate access label 'X'"):
            b.statement(
                "S",
                [("i", 0, 3)],
                writes=[("a", [[1]], [0], "X")],
                reads=[("b", [[1]], [0], "X")],
            )

    def test_duplicate_label_across_statements_rejected(self):
        b = NestBuilder("ex")
        b.array("a", 1).array("b", 1)
        b.statement("S1", [("i", 0, 3)], reads=[("a", [[1]], [0], "X")])
        with pytest.raises(ValueError, match="duplicate access label 'X'"):
            b.statement("S2", [("i", 0, 3)], reads=[("b", [[1]], [0], "X")])
        # the rejected statement was not added
        assert [s.name for s in b.build().statements] == ["S1"]

    def test_duplicate_default_label_rejected(self):
        """Unlabelled accesses are named ``stmt:array`` — two reads of
        one array in one statement need explicit labels."""
        nest = LoopNest(name="t")
        nest.declare_array("a", 1)
        loops = [LoopDim("i", Bound.of(0), Bound.of(3))]
        stmt = Statement(
            name="S",
            loops=loops,
            accesses=[
                read("a", [[1]]),
                read("a", [[1]], [1]),
            ],
        )
        with pytest.raises(ValueError, match="duplicate access label 'S:a'"):
            nest.add_statement(stmt)

    def test_describe(self):
        b = NestBuilder("ex")
        b.array("a", 1)
        b.statement("S", [("i", 0, 3)], reads=[("a", [[1]], [2], "Fx")])
        text = b.build().describe()
        assert "Fx" in text and "array a" in text
