"""SZ3's multilevel interpolation predictor.

SZ3's flagship algorithm predicts values by **dyadic interpolation**:
anchor points on a coarse grid are stored first; each refinement level
halves the grid spacing along one axis at a time, predicting every new
point by linear interpolation of its two already-*reconstructed*
neighbours along that axis and quantizing the residual.  Because the
prediction uses reconstructed (not original) neighbours, quantization
errors never accumulate: every point independently satisfies
``|x − x̂| ≤ eb``.

Vectorisation: within one (level, axis) stage all new points form a
regular subgrid, and both neighbours live on the already-known grid —
so each stage is a handful of strided-slice NumPy expressions.  The
level loop is ``O(log max_stride)`` stages, never a per-element Python
loop (the hpc-parallel guides' rule applied to a predictor that is
usually written point-wise in C++).

The encoder emits residual symbols in a deterministic stage order; the
decoder regenerates the same stage geometry from the array shape alone,
so only the symbol stream is stored.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import CorruptStreamError, OptionError

DEFAULT_MAX_STRIDE = 16

#: Grid codes at or past 2**53 are not exact in float64: rounding a value
#: onto a grid that fine no longer lands within the bound.
GRID_LIMIT = 2.0**53


def check_grid(values: np.ndarray, step: float) -> None:
    """Refuse a grid *step* too fine for *values* (``max|x|/step ≥ 2**53``).

    A zero-range field under ``pressio:rel`` resolves to ``eb = rel·1e-30``;
    without this check its codes overflow and it decodes to garbage.
    """
    if not values.size:
        return
    peak = max(float(values.max()), -float(values.min()))
    if peak / step >= GRID_LIMIT:
        raise OptionError(
            f"error bound {step / 2:g} is too fine for values up to {peak:g}: "
            "the quantization grid would need 2**53 steps or more"
        )


def _stage_plan(shape: tuple[int, ...], max_stride: int) -> list[tuple[int, int, tuple]]:
    """The deterministic (stride, axis, slices) schedule.

    Returns a list of stages; each stage's ``slices`` selects the new
    points refined at that stage.  ``current[a]`` tracks each axis's
    grid step as it tightens.
    """
    ndim = len(shape)
    stages: list[tuple[int, int, tuple]] = []
    s = max_stride
    current = [max_stride] * ndim
    while s > 1:
        h = s // 2
        for axis in range(ndim):
            slices = tuple(
                slice(h, None, s) if a == axis else slice(None, None, current[a])
                for a in range(ndim)
            )
            stages.append((s, axis, slices))
            current[axis] = h
        s = h
    return stages


def _predict_stage(
    recon: np.ndarray, axis: int, s: int, h: int, slices: tuple
) -> np.ndarray:
    """Interpolated prediction for one stage's new points.

    Left neighbours always exist (position − h is a multiple of s ≥ 0);
    right neighbours (position + h) may fall off the array edge, in
    which case the prediction degrades to the left neighbour alone.
    """
    ndim = recon.ndim
    left_slices = tuple(
        slice(0, None, s) if a == axis else slices[a] for a in range(ndim)
    )
    left_all = recon[left_slices]
    # Align: new point at h + k*s has left neighbour at k*s, i.e. the
    # k-th entry of the stride-s grid; trim to the number of new points.
    n_new = recon[slices].shape[axis]
    take = [slice(None)] * ndim
    take[axis] = slice(0, n_new)
    left = left_all[tuple(take)]
    # Right neighbour of the k-th new point is the (k+1)-th grid entry.
    take[axis] = slice(1, n_new + 1)
    right = left_all[tuple(take)]
    if right.shape[axis] == n_new:
        return 0.5 * (left + right)
    # The last new point has no right neighbour: average where possible.
    pred = left.copy()
    pair = [slice(None)] * ndim
    pair[axis] = slice(0, right.shape[axis])
    pred[tuple(pair)] = 0.5 * (left[tuple(pair)] + right)
    return pred


def interp_encode(
    array: np.ndarray, abs_bound: float, max_stride: int = DEFAULT_MAX_STRIDE
) -> np.ndarray:
    """Encode to a flat int64 symbol stream (anchors first, then stages)."""
    data = np.asarray(array, dtype=np.float64)
    if data.ndim == 0:
        data = data.reshape(1)
    recon = np.empty_like(data)
    step = 2.0 * abs_bound
    check_grid(data, step)
    out: list[np.ndarray] = []
    # Anchors: direct quantization of the coarse grid.
    anchor_slices = tuple(slice(None, None, max_stride) for _ in range(data.ndim))
    q = np.round(data[anchor_slices] / step).astype(np.int64)
    recon[anchor_slices] = q * step
    out.append(q.reshape(-1))
    for s, axis, slices in _stage_plan(data.shape, max_stride):
        target = data[slices]
        if target.size == 0:
            continue
        pred = _predict_stage(recon, axis, s, s // 2, slices)
        q = np.round((target - pred) / step).astype(np.int64)
        recon[slices] = pred + q * step
        out.append(q.reshape(-1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def interp_decode(
    symbols: np.ndarray,
    shape: tuple[int, ...],
    abs_bound: float,
    max_stride: int = DEFAULT_MAX_STRIDE,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Invert :func:`interp_encode` by replaying the stage schedule."""
    work_shape = shape if shape else (1,)
    recon = np.empty(work_shape, dtype=np.float64)
    step = 2.0 * abs_bound
    cursor = 0

    def take(n: int) -> np.ndarray:
        nonlocal cursor
        if cursor + n > symbols.size:
            raise CorruptStreamError("interp symbol stream truncated")
        chunk = symbols[cursor : cursor + n]
        cursor += n
        return chunk

    anchor_slices = tuple(slice(None, None, max_stride) for _ in range(recon.ndim))
    anchor_shape = recon[anchor_slices].shape
    q = take(int(np.prod(anchor_shape))).reshape(anchor_shape)
    recon[anchor_slices] = q * step
    for s, axis, slices in _stage_plan(recon.shape, max_stride):
        target_shape = recon[slices].shape
        n = int(np.prod(target_shape))
        if n == 0:
            continue
        pred = _predict_stage(recon, axis, s, s // 2, slices)
        q = take(n).reshape(target_shape)
        recon[slices] = pred + q * step
    if cursor != symbols.size:
        raise CorruptStreamError("interp symbol stream has trailing symbols")
    return recon.reshape(shape).astype(dtype)


def interp_symbol_count(shape: tuple[int, ...], max_stride: int = DEFAULT_MAX_STRIDE) -> int:
    """Total symbols the encoder emits for *shape* (used for validation)."""
    work_shape = shape if shape else (1,)
    total = 1
    for dim in work_shape:
        total *= len(range(0, dim, max_stride))
    count = total
    dummy = np.empty(work_shape, dtype=np.int8)
    for _s, _axis, slices in _stage_plan(work_shape, max_stride):
        count += dummy[slices].size
    return count
