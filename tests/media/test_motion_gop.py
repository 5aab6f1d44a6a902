"""Unit tests for motion estimation/compensation and GOP planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.gop import FrameType, GopStructure
from repro.media.motion import (
    MB,
    MotionVector,
    _clamped_patch,
    estimate,
    predict_block,
    predict_mb,
    sad,
)


def test_sad_basic():
    a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    b = np.array([[2, 2], [3, 1]], dtype=np.uint8)
    assert sad(a, b) == 4


def test_estimate_finds_pure_translation():
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 256, (64, 64), dtype=np.uint8).astype(np.uint8)
    # roll(+2, 0) moves content down: cur[y, x] == ref[y-2, x+3], so the
    # matching reference patch sits at displacement (-2, +3).
    cur = np.roll(np.roll(ref, 2, axis=0), -3, axis=1)
    vec, cost = estimate(cur, ref, 16, 16, search_range=4)
    assert (vec.dy, vec.dx) == (-2, 3)
    assert cost == 0


def test_estimate_prefers_zero_on_tie():
    ref = np.zeros((32, 32), dtype=np.uint8)
    cur = np.zeros((32, 32), dtype=np.uint8)
    vec, cost = estimate(cur, ref, 0, 0, search_range=2)
    assert (vec.dy, vec.dx) == (0, 0)
    assert cost == 0


def _oracle_patch(frame, y, x, h, w):
    """Edge clamping spelled out: clip each coordinate into the frame."""
    ys = np.clip(np.arange(y, y + h), 0, frame.shape[0] - 1)
    xs = np.clip(np.arange(x, x + w), 0, frame.shape[1] - 1)
    return frame[np.ix_(ys, xs)]


def _oracle_estimate(current, reference, mb_y, mb_x, search_range, half_pel):
    """Scalar full search: one SAD per candidate, zero vector first,
    later candidates win only on a strictly smaller cost."""
    target = current[mb_y : mb_y + MB, mb_x : mb_x + MB]
    best_vec = MotionVector(0, 0)
    best_cost = sad(target, _oracle_patch(reference, mb_y, mb_x, MB, MB))
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            cost = sad(target, _oracle_patch(reference, mb_y + dy, mb_x + dx, MB, MB))
            if cost < best_cost:
                best_vec, best_cost = MotionVector(dy, dx), cost
    if not half_pel:
        return best_vec, best_cost
    centre = MotionVector(2 * best_vec.dy, 2 * best_vec.dx, half_pel=True)
    best_vec = centre
    for hdy in (-1, 0, 1):
        for hdx in (-1, 0, 1):
            cand = MotionVector(centre.dy + hdy, centre.dx + hdx, half_pel=True)
            cost = sad(target, predict_block(reference, mb_y, mb_x, MB, cand))
            if cost < best_cost:
                best_vec, best_cost = cand, cost
    return best_vec, best_cost


@st.composite
def _me_case(draw):
    h = draw(st.integers(MB, 64))
    w = draw(st.integers(MB, 64))
    kind = draw(st.sampled_from(["random", "flat", "levels3", "shifted", "periodic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rolled(frame):
        shift = (draw(st.integers(-8, 8)), draw(st.integers(-8, 8)))
        return np.roll(frame, shift, axis=(0, 1))

    if kind == "random":
        ref = rng.integers(0, 256, (h, w))
        cur = rng.integers(0, 256, (h, w))
    elif kind == "flat":  # every candidate ties
        ref = np.full((h, w), draw(st.integers(0, 255)))
        cur = np.full((h, w), draw(st.integers(0, 255)))
    elif kind == "levels3":  # dense ties
        ref = rng.integers(0, 3, (h, w))
        cur = rng.integers(0, 3, (h, w))
    elif kind == "shifted":
        ref = rng.integers(0, 256, (h, w))
        cur = rolled(ref)
    else:  # a tiled pattern: equal minima away from the zero vector
        tile = rng.integers(0, 256, (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
        ref = np.tile(tile, (h // tile.shape[0] + 1, w // tile.shape[1] + 1))[:h, :w]
        cur = rolled(ref)
    # macroblock corners biased toward the frame edges
    mb_y = draw(st.sampled_from([0, h - MB]) | st.integers(0, h - MB))
    mb_x = draw(st.sampled_from([0, w - MB]) | st.integers(0, w - MB))
    search_range = draw(st.integers(1, 7))
    half_pel = draw(st.booleans())
    return cur.astype(np.uint8), ref.astype(np.uint8), mb_y, mb_x, search_range, half_pel


@settings(max_examples=200, deadline=None)
@given(_me_case())
def test_estimate_matches_scalar_full_search(case):
    cur, ref, mb_y, mb_x, search_range, half_pel = case
    vec, cost = estimate(cur, ref, mb_y, mb_x, search_range, half_pel)
    want_vec, want_cost = _oracle_estimate(cur, ref, mb_y, mb_x, search_range, half_pel)
    assert (vec.dy, vec.dx, vec.half_pel) == (want_vec.dy, want_vec.dx, want_vec.half_pel)
    assert cost == want_cost


@pytest.mark.parametrize(
    "y, x, h, w",
    [
        (2, 3, 8, 8),  # inside
        (0, 0, 16, 20),  # the whole frame
        (-3, 4, 8, 8),  # straddles the top edge
        (12, 4, 8, 8),  # straddles the bottom edge
        (4, -5, 8, 8),  # straddles the left edge
        (4, 15, 8, 8),  # straddles the right edge
        (-4, -4, 24, 28),  # straddles all four edges
        (-40, 3, 8, 8),  # entirely above
        (30, 3, 8, 8),  # entirely below
        (3, -50, 8, 8),  # entirely left
        (3, 40, 8, 8),  # entirely right
        (-40, 60, 4, 4),  # entirely outside a corner
    ],
)
def test_clamped_patch_matches_clip_oracle(y, x, h, w):
    frame = np.random.default_rng(5).integers(0, 256, (16, 20)).astype(np.uint8)
    patch = _clamped_patch(frame, y, x, h, w)
    assert patch.shape == (h, w)
    assert np.array_equal(patch, _oracle_patch(frame, y, x, h, w))


@pytest.mark.parametrize("y, x", [(0, 0), (-2, 3), (1, -4), (5, 9), (-9, -9)])
def test_clamped_patch_single_row_frame(y, x):
    frame = np.arange(12, dtype=np.uint8).reshape(1, 12)
    assert np.array_equal(_clamped_patch(frame, y, x, 3, 5), _oracle_patch(frame, y, x, 3, 5))


def test_predict_block_clamps_edges():
    ref = np.arange(64, dtype=np.uint8).reshape(8, 8)
    patch = predict_block(ref, 0, 0, 4, MotionVector(-2, -2))
    # clamped to row/col 0
    assert patch[0, 0] == ref[0, 0]
    assert patch.shape == (4, 4)


def test_bidirectional_prediction_averages():
    f = np.full((16, 16), 10.0)
    b = np.full((16, 16), 21.0)
    pred = predict_mb(f, b, 0, 0, 8, MotionVector(0, 0), MotionVector(0, 0))
    assert np.all(pred == 16.0)  # floor((10+21+1)/2)


def test_predict_mb_needs_a_reference():
    with pytest.raises(ValueError):
        predict_mb(None, None, 0, 0, 8, None, None)


def test_halved_vector_truncates_toward_zero():
    assert MotionVector(3, -3).halved() == MotionVector(1, -1)
    assert MotionVector(-1, 1).halved() == MotionVector(0, 0)


# ---------------------------------------------------------------------------
# GOP planning
# ---------------------------------------------------------------------------
def test_display_types_ibbp_pattern():
    g = GopStructure(n=12, m=3)
    types = [t.value for t in g.display_types(12)]
    assert types == ["I", "B", "B", "P", "B", "B", "P", "B", "B", "P", "B", "P"]
    # (last frame forced to P so trailing Bs are bounded)


def test_display_types_no_b_frames():
    g = GopStructure(n=4, m=1)
    assert [t.value for t in g.display_types(6)] == ["I", "P", "P", "P", "I", "P"]


def test_all_intra():
    g = GopStructure(n=1, m=1)
    assert all(t is FrameType.I for t in g.display_types(5))


def test_coded_order_anchors_before_b():
    g = GopStructure(n=12, m=3)
    plans = g.coded_order(7)
    coded = [(p.frame_type.value, p.display_index) for p in plans]
    assert coded == [
        ("I", 0),
        ("P", 3),
        ("B", 1),
        ("B", 2),
        ("P", 6),
        ("B", 4),
        ("B", 5),
    ]


def test_coded_order_references():
    g = GopStructure(n=12, m=3)
    plans = {p.display_index: p for p in g.coded_order(7)}
    assert plans[0].forward_ref is None  # I
    assert plans[3].forward_ref == 0  # P refs I
    assert plans[1].forward_ref == 0 and plans[1].backward_ref == 3  # B
    assert plans[4].forward_ref == 3 and plans[4].backward_ref == 6


def test_display_order_inverse():
    g = GopStructure(n=6, m=2)
    n = 10
    perm = g.display_order(n)
    plans = g.coded_order(n)
    for disp, coded in enumerate(perm):
        assert plans[coded].display_index == disp


def test_every_frame_planned_once():
    g = GopStructure(n=12, m=3)
    for n in (1, 2, 5, 12, 13, 25):
        plans = g.coded_order(n)
        assert sorted(p.display_index for p in plans) == list(range(n))
        assert [p.coded_index for p in plans] == list(range(n))


def test_bad_gop_params():
    with pytest.raises(ValueError):
        GopStructure(0, 1)
    with pytest.raises(ValueError):
        GopStructure(4, 5)
