"""Property tests: Fiber <-> FlatArena round trips.

The flat structure-of-arrays storage is only trustworthy if it is a
lossless re-encoding of the boxed fibertree: coordinates, payloads, and
the partition ``coord_range`` annotations must all survive a round trip,
and structurally invalid arenas (duplicate coordinates within a fiber)
must be rejected just as :class:`Fiber` rejects them.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.fibertree import (
    Fiber,
    FlatArena,
    FlatFiberView,
    Tensor,
    arena_from_fiber,
    arena_from_scipy,
    arena_from_tensor,
    arena_to_scipy,
    tensor_from_arena,
    tensor_from_dense,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def tensors(draw, max_depth=3):
    depth = draw(st.integers(1, max_depth))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(depth))
    n_points = draw(st.integers(0, 20))
    points = {}
    for _ in range(n_points):
        point = tuple(draw(st.integers(0, s - 1)) for s in shape)
        points[point] = draw(
            st.floats(0.5, 9.5, allow_nan=False, allow_infinity=False)
        )
    ranks = [f"R{i}" for i in range(depth)]
    return Tensor.from_coo("T", ranks, points.items(), shape=list(shape))


def all_fibers(fiber):
    """Yield every fiber of a tree, top-down."""
    yield fiber
    for p in fiber.payloads:
        if isinstance(p, Fiber):
            yield from all_fibers(p)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@settings(max_examples=50)
@given(t=tensors())
def test_tensor_roundtrip_preserves_everything(t):
    arena = arena_from_tensor(t)
    arena.validate()
    assert arena.nnz == t.nnz
    back = tensor_from_arena(arena, t.name, t.rank_ids, t.shape)
    assert back == t
    assert back.points() == t.points()
    # coord_range is compared level by level, not just through __eq__
    # (Fiber.__eq__ ignores coord_range).
    for a, b in zip(all_fibers(t.root), all_fibers(back.root)):
        assert a.coords == b.coords
        assert a.coord_range == b.coord_range


@settings(max_examples=30)
@given(t=tensors(max_depth=2), size=st.integers(1, 5))
def test_split_coord_ranges_survive_roundtrip(t, size):
    """Occupancy splits record partition windows; arenas must keep them."""
    split = t.partition_uniform_occupancy(t.rank_ids[0], [size])
    arena = arena_from_tensor(split)
    back = tensor_from_arena(arena, split.name, split.rank_ids, split.shape)
    for a, b in zip(all_fibers(split.root), all_fibers(back.root)):
        assert a.coords == b.coords
        assert a.payloads == b.payloads or all(
            isinstance(p, Fiber) for p in a.payloads
        )
        assert a.coord_range == b.coord_range


@settings(max_examples=30)
@given(t=tensors(max_depth=2), step=st.integers(1, 5))
def test_shape_split_ranges_survive_roundtrip(t, step):
    split = t.partition_uniform_shape(t.rank_ids[0], [step])
    arena = arena_from_tensor(split)
    back = tensor_from_arena(arena, split.name, split.rank_ids, split.shape)
    for a, b in zip(all_fibers(split.root), all_fibers(back.root)):
        assert a.coord_range == b.coord_range


@settings(max_examples=30)
@given(t=tensors(max_depth=2))
def test_flattened_tuple_coords_roundtrip(t):
    if t.num_ranks < 2:
        return
    flat = t.flatten_ranks(t.rank_ids[:2])
    arena = arena_from_tensor(flat)
    arena.validate()
    back = tensor_from_arena(arena, flat.name, flat.rank_ids, flat.shape)
    assert back.points() == flat.points()


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
@settings(max_examples=30)
@given(t=tensors())
def test_flat_view_walks_like_the_fiber(t):
    arena = arena_from_tensor(t)
    view = arena.root_view()

    def walk(fiber, v):
        assert len(fiber) == len(v)
        assert fiber.coords == v.coords
        assert fiber.coord_range == v.coord_range
        for (c1, p1), (c2, p2) in zip(fiber, v):
            assert c1 == c2
            if isinstance(p1, Fiber):
                assert isinstance(p2, FlatFiberView)
                assert v.get_payload(c1) is not None
                walk(p1, p2)
            else:
                assert p1 == p2
                assert v.get_payload(c1) == p1

    walk(t.root, view)
    assert view.to_fiber() == t.root


# ----------------------------------------------------------------------
# Rejection of malformed arenas
# ----------------------------------------------------------------------
def test_duplicate_coordinates_rejected():
    arena = arena_from_tensor(
        tensor_from_dense("A", ["K"], np.array([1.0, 2.0, 3.0]))
    )
    arena.coords[0][1] = arena.coords[0][0]  # forge a duplicate in one fiber
    with pytest.raises(ValueError, match="strictly increasing"):
        arena.validate()
    with pytest.raises(ValueError):
        arena.to_fiber()


def test_unsorted_coordinates_rejected():
    arena = arena_from_tensor(
        tensor_from_dense("A", ["K"], np.array([1.0, 2.0, 3.0]))
    )
    arena.coords[0][0], arena.coords[0][2] = \
        arena.coords[0][2], arena.coords[0][0]
    with pytest.raises(ValueError, match="strictly increasing"):
        arena.validate()


def test_misaligned_segments_rejected():
    arena = arena_from_tensor(tensor_from_dense("A", ["K", "M"], np.eye(3)))
    arena.segs[1][-1] = arena.segs[1][-1] + 1
    with pytest.raises(ValueError):
        arena.validate()


def test_too_shallow_and_too_deep_trees_rejected():
    t = tensor_from_dense("A", ["K", "M"], np.eye(3))
    with pytest.raises(TypeError):
        arena_from_fiber(t.root, 3)  # deeper than the tree
    with pytest.raises(TypeError):
        arena_from_fiber(t.root, 1)  # shallower than the tree


def test_empty_tensor_roundtrip():
    t = Tensor.empty("Z", ["M", "N"], shape=[4, 5])
    arena = arena_from_tensor(t)
    arena.validate()
    assert arena.nnz == 0
    back = tensor_from_arena(arena, "Z", ["M", "N"], [4, 5])
    assert back.points() == {}


# ----------------------------------------------------------------------
# scipy bridges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("density", [0.0, 0.2, 0.9])
def test_scipy_roundtrip(density):
    rng = np.random.default_rng(3)
    dense = (rng.random((13, 9)) < density) * rng.integers(
        1, 9, (13, 9)
    ).astype(float)
    m = sp.csr_matrix(dense)
    arena = arena_from_scipy(m)
    arena.validate()
    assert arena.nnz == m.nnz
    back = arena_to_scipy(arena, m.shape)
    assert (back != m).nnz == 0
    # And it matches the boxed ingestion path exactly.
    t = tensor_from_dense("A", ["R", "C"], dense)
    assert tensor_from_arena(arena, "A", ["R", "C"]).points() == t.points()


def test_scipy_rejects_non_matrix_arena():
    t = tensor_from_dense("A", ["K"], np.ones(3))
    with pytest.raises(ValueError):
        arena_to_scipy(arena_from_tensor(t))


# ----------------------------------------------------------------------
# NumPy-native buffers
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(t=tensors())
def test_numpy_buffers_and_scalar_views_agree(t):
    """Array-backed storage and the memoized list views are the same
    data: identical coordinates (as Python ints), segments, and values,
    and to_fiber()/to_tensor() rebuild the exact boxed tree."""
    arena = arena_from_tensor(t)
    coords_l, segs_l, vals_l = arena.scalar_buffers()
    for d in range(arena.depth):
        assert [int(c) for c in arena.coords[d]] == coords_l[d]
        assert [int(s) for s in arena.segs[d]] == segs_l[d]
        assert all(type(c) is int for c in coords_l[d])
        np_level = arena.np_coords(d)
        if np_level is not None:
            assert np_level.dtype == np.int64
            assert np_level.tolist() == coords_l[d]
    assert list(arena.vals) == vals_l
    if arena.np_vals() is not None:
        assert arena.np_vals().dtype == np.float64
        assert all(type(v) is float for v in vals_l)
    assert arena.scalar_buffers() is arena.scalar_buffers()  # memoized
    back = tensor_from_arena(arena, t.name, t.rank_ids, t.shape)
    assert back.points() == t.points()


@settings(max_examples=30)
@given(t=tensors(max_depth=2))
def test_list_backed_and_array_backed_arenas_run_identical_kernels(t):
    """A hand-built list-backed arena and the numpy-backed arena must
    produce identical to_fiber() trees and identical kernel counters
    through the counted arena kernels."""
    from repro.model import CompiledBackend, CompileCache
    from repro.spec import load_spec

    if t.num_ranks != 2:
        return
    numpy_arena = arena_from_tensor(t)
    list_arena = FlatArena(
        depth=numpy_arena.depth,
        coords=[list(c) if not isinstance(c, list) else c
                for c in (numpy_arena.scalar_buffers()[0])],
        segs=[list(s) for s in numpy_arena.scalar_buffers()[1]],
        vals=list(numpy_arena.scalar_buffers()[2]),
        ranges=numpy_arena.ranges,
    )
    assert list_arena.np_coords(0) is None and list_arena.np_vals() is None
    assert list_arena.to_fiber() == numpy_arena.to_fiber()

    spec = load_spec("""
einsum:
  declaration:
    A: [I, J]
    Z: [I]
  expressions:
    - Z[i] = A[i, j]
mapping:
  loop-order:
    Z: [I, J]
""", name="arena-eq")
    backend = CompiledBackend(cache=CompileCache())
    unit = backend.compile(spec).units[0]
    from repro.einsum.operators import ARITHMETIC
    from repro.model.backend import _NULL_ROUTING
    from repro.model.traces import KernelCounters
    shapes = {"I": 8, "J": 8}
    results = []
    for arena in (numpy_arena, list_arena):
        kc = KernelCounters()
        out = unit.vector({"A": arena}, ARITHMETIC, shapes, kc,
                          _NULL_ROUTING)
        results.append((out.points(),
                        dict(kc.reads), dict(kc.writes), kc.isects,
                        {k: [n, ts, ss]
                         for k, (n, ts, ss) in kc.computes.items()}))
    assert results[0] == results[1]


def test_non_integer_coordinates_fall_back_to_lists():
    """Tuple coordinates (flattened ranks) keep list storage; numpy
    views report None and the vector guard keeps such leaves scalar."""
    f = Fiber([(0, 1), (2, 3)], [1.0, 2.0])
    arena = arena_from_fiber(f, 1)
    assert arena.np_coords(0) is None
    assert isinstance(arena.coords[0], list)
    assert arena.to_fiber() == f


def test_integer_payloads_fall_back_to_lists():
    """Int payloads must stay Python ints (int64 arrays would wrap on
    overflow where Python ints never do)."""
    f = Fiber([0, 1], [2**70, 3])
    arena = arena_from_fiber(f, 1)
    assert arena.np_vals() is None
    assert arena.to_fiber().payloads == [2**70, 3]


def test_bool_coordinates_are_not_coerced_to_ints():
    f = Fiber([False, True], [1.0, 2.0])
    arena = arena_from_fiber(f, 1)
    assert arena.np_coords(0) is None
    assert arena.to_fiber().coords == [False, True]


def test_huge_coordinates_fall_back_without_overflow():
    f = Fiber([1, 2**70], [1.0, 2.0])
    arena = arena_from_fiber(f, 1)
    assert arena.np_coords(0) is None
    assert arena.to_fiber().coords == [1, 2**70]


@settings(max_examples=20)
@given(t=tensors())
def test_arena_pickles_without_scalar_view_cache(t):
    import pickle

    arena = arena_from_tensor(t)
    arena.scalar_buffers()  # populate the memo that must not pickle
    clone = pickle.loads(pickle.dumps(arena))
    assert clone._scalar is None
    assert clone.to_fiber() == arena.to_fiber()
    assert [list(c) for c in clone.coords] == \
        [list(c) for c in arena.coords]
    assert list(clone.vals) == list(arena.vals)
