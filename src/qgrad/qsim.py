"""Exact amplitude-level simulation of single-query quantum gradient estimation.

The simulated register is the d-fold input lattice [0,N)^d only.  The output
register is never represented: it is prepared in the Fourier eigenstate of
addition modulo N_o, so writing the integer oracle value g(delta) into it by
modular addition multiplies the amplitude at |delta> by exactly
exp(i*2*pi*g(delta)/N_o).  For integer-valued oracles this phase action is
exact, not an approximation, and the output register stays unentangled for the
whole run.  One batched oracle invocation therefore builds the entire phase
grid, which is what makes the estimator a single-query algorithm at any d.
`_walk`, the one walk of f over the lattice, evaluates that query in
row-major blocks, so the state is the only lattice-sized array of the
build.  When N_o <= BLOCK_POINTS the phases are gathered from one
read-only table of the N_o unit phases, cached per register size, and
otherwise taken by an exp per point; the four-step's twiddle tables are
likewise read-only and cached per line size.  The walk also gives the
range of f it saw, which the grid and the run's report carry as
`value_range`, so no caller needs a second walk for it.  A grid holds its
amplitudes or probabilities as one C-contiguous flat array.  A d = 1
lattice is the d >= 2 one with no leading axes: its blocks are
enumerated, and its line transformed, by the same code.

Every blocked loop (the walk, `|amps|^2`, both passes of sampling, the
variance, the transform's column slabs and groups of inner-axis slices,
the four-step's rows and the CLI's `peak2d` masks) takes its blocks from
one rule, in `_blocks`: the whole `line`-long lines that fit in
BLOCK_POINTS, at least one line, the last block shorter.  A d >= 2 walk's
line is the last axis, so no block straddles a line end; a column slab's
is one column, an inner-axes group's one axis-0 slice's work (its points
times its axes), and the four-step's a row of its square; at d = 1, and
over the probabilities, a line is one point.

Every 1/N^(d/2) scaling (each build block, each column slab, each block of
the four-step's rows) is done on a block in cache by `_divide`, as one real
multiply of its float64 view by 1/N^(d/2).  numpy's complex division by a
real scalar s computes (re + im*0)*fl(1/s) and (im - re*0)*fl(1/s), which
has the multiply's values, differing at most in the sign of a zero part.

Every pass that splits its work does so by one rule, in `_in_chunks`: at
most one contiguous chunk per usable core (`_WORKERS`), and no chunk with
less than BLOCK_POINTS points of work, a pass's work being its points (times
its axes, in a transform).  A pass of one chunk runs on the calling thread
alone.  Otherwise the calling thread runs the first chunk and a
`ThreadPoolExecutor` made for the call runs the others; its threads are all
joined before the call returns.  numpy releases the GIL in that work, and
each chunk does exactly what the serial code does there, so the bits do not
depend on the worker count.  The one exception to the shared transform, a
d = 1 line of N = n1**2 > BLOCK_POINTS points, takes a four-step FFT over an
(n1, n1) view of its own buffer, whose rounding differs from pocketfft's by
a few float64 roundings of max |X|.

Pipeline: build_phase_state -> fourier_transform -> outcome_distribution ->
sample, with decoding through `core.decode_outcome`.  The forward transform
maps a planewave exp(+i*2*pi*nu*delta/N) with integer nu to the deterministic
outcome k = nu mod N.  The transform and the probabilities return a new array
by default; with `in_place=True`, as the run calls them, they reuse the grid's
own buffer.
"""
from __future__ import annotations

import cmath
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import (
    MAX_POINTS,
    ProblemSpec,
    _check_reals,
    _integer,
    _positive,
    _real,
    _reals,
    decode_outcome,
    encode_input,
    lattice_points,
    nearest_lattice_index,
    quantize_output,
)
from .functions import TestFunction

# Lattice points per block of every blocked loop, whose bounds `_blocks`
# alone sets, so their temporaries take O(BLOCK_POINTS * d) bytes whatever
# the lattice size; and the least work `_in_chunks` gives a worker.
BLOCK_POINTS = 2 ** 16


def _blocks(n: int, line: int = 1) -> list[tuple[int, int]]:
    """The one block rule: [(start, stop)] over range(n) in order, each block
    the whole `line`-long lines that fit in BLOCK_POINTS, at least one line,
    the last block shorter.  n is a multiple of `line`."""
    rows = line * max(1, BLOCK_POINTS // line)
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _usable_cores() -> int:
    """The cores this process may run on; all of the machine's where the OS does not say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# At most one chunk of a pass per usable core (see `_in_chunks`).
_WORKERS = _usable_cores()


def _in_chunks(task, n: int, work: int) -> list:
    """[task(first, last)] over contiguous chunks of range(n), in order.

    The one split rule: min(_WORKERS, n, ceil(work / BLOCK_POINTS)) chunks,
    `work` being the pass's points (times its axes, in a transform), so no
    worker gets less than a block of work.  A single chunk, as every pass
    of a one-block run is, is a plain call of task(0, n) with no executor
    made.  Otherwise chunk 0 runs on the calling thread, the others on a
    `ThreadPoolExecutor` made for the call, which joins its threads before
    anything is returned or raised: no thread outlives the call, a task may
    call back into this function, and a forked child starts threads of its
    own.  The exception raised is the first failing chunk's.  If a thread
    fails to start, chunk 0 does not run, and the started threads run the
    queued chunks before the start error is raised.
    """
    chunks = min(_WORKERS, n, -(-work // BLOCK_POINTS))
    if chunks == 1:
        return [task(0, n)]
    bounds = [n * i // chunks for i in range(chunks + 1)]
    with ThreadPoolExecutor(_WORKERS, thread_name_prefix="qgrad") as pool:
        rest = pool.map(task, bounds[1:-1], bounds[2:])
        return [task(0, bounds[1]), *rest]


def _flat(values, spec: ProblemSpec, dtype, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype).reshape(-1)
    if arr.size != spec.size:
        raise ValueError(f"{what} has length {arr.size}, expected N**d = {spec.size}")
    return arr


@dataclass
class AmplitudeGrid:
    """Complex amplitude field over the lattice of `spec`, flat row-major order.

    value_range is (min, max) of f over the lattice when the grid comes from
    `build_phase_state`, and None otherwise.  `replace` carries it, so the
    transform and `apply_phase_error` keep it.
    """

    spec: ProblemSpec
    amps: np.ndarray
    value_range: tuple[float, float] | None = None

    def __post_init__(self):
        self.amps = _flat(self.amps, self.spec, complex, "amps")

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.spec.shape)


@dataclass
class OutcomeDistribution:
    """Probability mass over the outcomes k of the lattice of `spec`, flat row-major."""

    spec: ProblemSpec
    probs: np.ndarray

    def __post_init__(self):
        self.probs = _flat(_reals("probs", self.probs, finite=False), self.spec, float, "probs")

    def reshaped(self) -> np.ndarray:
        return self.probs.reshape(self.spec.shape)

    def marginal(self, axis: int) -> np.ndarray:
        """Marginal probability over axis 0 <= axis < d, shape (N,), read-only.

        For d = 1 this is a view of `probs`, not a copy.
        """
        axis = _integer("axis", axis)
        if not 0 <= axis < self.spec.d:
            raise ValueError(f"axis must lie in [0, {self.spec.d}), got {axis}")
        other = tuple(i for i in range(self.spec.d) if i != axis)
        marginal = self.reshaped().sum(axis=other) if other else self.probs.view()
        marginal.flags.writeable = False
        return marginal


def build_phase_state(f: TestFunction, spec: ProblemSpec) -> AmplitudeGrid:
    """Phase grid from one batched oracle query.

    amplitude(delta) = N^(-d/2) * exp(i*2*pi*g(delta)/N_o) with
    g(delta) = quantize_output(f.eval(encode_input(delta))).  Every lattice
    evaluation belongs to the single superposed query.

    The state is filled block by block from `_walk`, each worker filling
    the slice of its own blocks.  `f.eval` is called once per block,
    possibly from several threads at once, must be vectorized, and must
    give each point's value from that point alone, not from the rest of
    the batch.  The 2**53 limit of `fixed_point` is checked block by
    block, and an error reports the min and max of the first offending block
    in row order.  The grid's value_range is the min and max of the values
    f gave, the numbers `functions.scanned_range` finds.  When N_o <=
    BLOCK_POINTS each block gathers its phases from `_phases(N_o)`, the
    cached unit phases of the register; a larger register takes the exp of
    each point.  Both evaluate the same expression, so both ways give the
    same phases to the bit, which `_divide` then divides by N^(d/2) in
    place.  The state, one C-contiguous array of 16 bytes per point, is
    the only lattice-sized array built.  A block frees few temporaries:
    glibc gives the top of its heap back to the OS once more than twice
    the largest mmapped chunk freed so far lies free there, so a block
    that freed more would fault its pages in again on every block.
    """
    amps = np.empty(spec.size, dtype=complex)
    scale = spec.N ** (spec.d / 2.0)
    table = _phases(spec.N_o) if spec.N_o <= BLOCK_POINTS else None

    def fill(blocks):
        bounds = []
        for start, stop, values in blocks:
            bounds.append((values.min(), values.max()))
            g = quantize_output(values, spec)
            del values  # not held through the phase step, whose peak would count it
            block = amps[start:stop]
            if table is None:
                np.exp(2j * np.pi * g / spec.N_o, out=block)
            else:
                # g already lies in [0, N_o): "wrap" changes no index, but unlike
                # the default "raise" it lets numpy write straight into `block`
                np.take(table, g, out=block, mode="wrap")
            del g  # nor through the next block's points and values
            _divide(block, scale)
        return bounds

    return AmplitudeGrid(spec, amps, _value_range(_walk(f, spec, fill)))


# bounded: one table per register size up to BLOCK_POINTS (n_o <= 16), 2 MB in all
@functools.lru_cache(maxsize=16)
def _phases(N_o: int) -> np.ndarray:
    """exp(2*pi*i*g/N_o) for every register value g in [0, N_o), read-only:
    every build with this N_o shares it."""
    table = np.exp(2j * np.pi * np.arange(N_o) / N_o)
    table.flags.writeable = False
    return table


def _value_range(runs: list) -> tuple[float, float]:
    """(min, max) over the (min, max) pairs of every block of `_walk`'s runs.

    numpy's min and max keep a block's NaN, where Python's min(inf, nan) drops it.
    """
    bounds = np.array([bound for run in runs for bound in run])
    return float(bounds[:, 0].min()), float(bounds[:, 1].max())


def _walk(f: TestFunction, spec: ProblemSpec, consume) -> list:
    """The one walk of f over the lattice: [consume(blocks)] over contiguous
    runs of `_blocks` in row order, as `_in_chunks` splits them, a line
    being the last axis at d >= 2 and one point at d = 1; `blocks` yields
    each block's (start, stop, f at rows [start, stop)).
    """
    _check_d(f, spec)
    bounds = _blocks(spec.size, spec.N if spec.d > 1 else 1)

    def blocks(first, last):
        for start, stop in bounds[first:last]:
            # a local name for the values would keep them alive after the consumer drops them
            yield start, stop, _evaluate(f, _block_points(spec, start, stop))

    return _in_chunks(lambda first, last: consume(blocks(first, last)), len(bounds), spec.size)


def _check_d(f: TestFunction, spec: ProblemSpec) -> None:
    if f.d != spec.d:
        raise ValueError(f"{f.name} is a function of d = {f.d} variables, but the lattice has d = {spec.d}")


def _evaluate(f: TestFunction, points: np.ndarray) -> np.ndarray:
    """f at every point of a block in one vectorized call; `eval` must map (..., d)
    to real values of shape (...)."""
    values = _reals(f"the values of {f.name}", f.eval(points), finite=False)
    if values.shape != points.shape[:-1]:
        raise ValueError(
            f"{f.name}: eval must be vectorized, points of shape {points.shape} gave values "
            f"of shape {values.shape}, expected {points.shape[:-1]}"
        )
    return values


def _block_points(spec: ProblemSpec, start: int, stop: int) -> np.ndarray:
    """Encoded points of rows [start, stop) of a block of `_walk`, shape (stop - start, d).

    At d = 1 the block is the encoded run arange(start, stop).  At d >= 2
    its lines differ only in their heads, and along each line only the last
    coordinate changes, through arange(N); encode_input maps each column on
    its own, so the block is its encoded heads, each repeated N times, with
    the last column written over by the encoded line.
    """
    N, d = spec.N, spec.d
    if d == 1:
        return encode_input(np.arange(start, stop)[:, None], spec)
    # the line first: its index temporaries are freed before the block is allocated
    run = encode_input(np.broadcast_to(np.arange(N)[:, None], (N, d)), spec)[:, -1]
    points = np.repeat(encode_input(lattice_points(spec, start, stop, step=N), spec), N, axis=0)
    points.reshape(-1, N, d)[:, :, -1] = run
    return points


def fourier_transform(grid: AmplitudeGrid, *, in_place: bool = False) -> AmplitudeGrid:
    """Unitary N-point forward discrete Fourier transform applied along every axis.

    a(delta) -> N^(-d/2) * sum_delta a(delta) exp(-i*2*pi*k.delta/N),
    so a planewave exp(+i*2*pi*nu.delta/N) lands on outcome k = nu mod N.
    Works for any N (mixed-radix / Bluestein under the hood).

    By default the result is a new array and the input grid is left
    unchanged; `in_place=True` transforms the grid's own buffer.

    The axes are taken in `np.fft.fftn`'s order, last first: for d >= 2,
    axes d-1..1 by `_inner_axes` on groups of axis-0 slices, then, for
    every d, axis 0 by `_columns` on slabs of the (N, N**(d-1)) view, each
    slab divided by N^(d/2) while it is in cache, so no pass over the
    whole state scales it.  Each line is transformed as `fftn` would, so
    the result has the values of `fftn(a) / N**(d/2)` (see `_divide`).

    The one exception is a d = 1 line with N above BLOCK_POINTS and
    N = n1**2: it is transformed by `_four_step` in the output buffer
    itself, in three passes over the workers, with the same bits for any
    worker count.  Its rounding is not pocketfft's: against one
    `np.fft.fft` of the line the results differ by a few float64 roundings
    of max |X| (about 5e-16 of it at 2**18..2**22).  Any other d = 1 line
    above a block is one pocketfft call, whose work buffers lie outside
    the state: a run's process peak is then about 50 bytes per point for
    a composite N, and about 145 for a prime N (Bluestein), against about
    19 for a square N or a d >= 2 lattice.
    """
    spec = grid.spec
    scale = spec.N ** (spec.d / 2.0)
    # every pass transforms, and scales, the one output buffer in place
    out = grid.amps if in_place else grid.amps.copy()
    n1 = math.isqrt(spec.N)
    if spec.d == 1 and spec.N > BLOCK_POINTS and n1 * n1 == spec.N:
        _four_step(out.reshape(n1, n1), scale)
    else:
        if spec.d > 1:
            _inner_axes(out.reshape(spec.shape))
        _columns(out.reshape(spec.N, -1), scale)
    return replace(grid, amps=out)


def _inner_axes(a: np.ndarray) -> None:
    """`fftn` over axes 1.. of the C-contiguous `a`, in place, on groups of axis-0 slices.

    The groups are `_blocks` of the pass's work, a line being one slice's
    work (its points times its axes): the slices whose work fits in
    BLOCK_POINTS, at least one.  The workers split the groups.  pocketfft
    transforms each line on its own, so the bits do not depend on the
    groups.
    """
    axes = tuple(range(1, a.ndim))
    line = a[0].size * len(axes)
    groups = _blocks(len(a) * line, line)

    def slices(first, last):
        for start, stop in groups[first:last]:
            group = a[start // line:stop // line]
            np.fft.fftn(group, axes=axes, out=group)

    _in_chunks(slices, len(groups), len(a) * line)


def _columns(a: np.ndarray, scale: float | None = None) -> None:
    """`fft` down every column of the 2-D C-contiguous `a`, divided by `scale` if given, in place.

    The columns go in slabs, `_blocks` with a column as the line: the
    whole columns that fit in BLOCK_POINTS, at least one.  The workers
    split the slabs.  A slab that is all of `a` is transformed where it
    is.  Otherwise each worker copies its slabs, one at a time, into a
    contiguous buffer of one slab, transforms the copy, divides it while
    it is in cache, and copies it back.  pocketfft transforms each column
    on its own, so the bits do not depend on the slabs or the workers.
    """
    rows = a.shape[0]
    slabs = _blocks(a.size, rows)
    if len(slabs) == 1:
        np.fft.fft(a, axis=0, out=a)
        if scale is not None:
            _divide(a, scale)
        return

    def columns(first, last):
        # each slab is a strided view of `a`, moved through one slab of buffer
        buffer = np.empty(slabs[0][1], dtype=complex)
        for start, stop in slabs[first:last]:
            slab = a[:, start // rows:stop // rows]
            work = buffer[:stop - start].reshape(slab.shape)
            work[...] = slab
            np.fft.fft(work, axis=0, out=work)
            if scale is not None:
                _divide(work, scale)
            slab[...] = work

    _in_chunks(columns, len(slabs), a.size)


def _divide(block: np.ndarray, scale: float) -> None:
    """block /= scale for a C-contiguous complex `block`, in place, as one
    real multiply of its float64 view by 1/scale.

    numpy divides a complex array by a real scalar as (re + im*0)*fl(1/s),
    so the multiply has the division's values; where the division turns a
    -0.0 part into +0.0, the multiply keeps -0.0.
    """
    floats = block.view(float)
    floats *= 1.0 / scale


def _twiddles(k1: np.ndarray, j2: np.ndarray, N: int) -> np.ndarray:
    """exp(-2*pi*i*(k1 x j2 mod N)/N), the outer product's table, built in place.

    The operations of the one expression exp(-2j*pi*(k1[:, None]*j2 % N)/N),
    in the same order, so the same bits, with at most one int and one
    complex table alive at a time.
    """
    idx = k1[:, None] * j2
    idx %= N
    w = np.multiply(-2j * np.pi, idx)
    del idx
    w /= N
    return np.exp(w, out=w)


def _four_step(a: np.ndarray, scale: float) -> None:
    """The DFT of the n1*n1-point line held row-major in the square `a`, divided by `scale`, in place.

    Bailey's four-step FFT with x[j1*n1 + j2] = a[j1, j2] and X[k1 + n1*k2]
    = b[k1, k2]: `fft` down each column gives b[k1, j2]; each row k1 is
    multiplied by the twiddles exp(-2*pi*i*k1*j2/N), transformed along the
    row and divided by `scale` (`_divide`); the transpose of b is then X in
    row-major order.  Each pass splits its columns, rows or tile pairs over the
    workers and does every element the same way in any chunk, so the bits
    do not depend on the worker count.  The twiddles of row k1 = 64*q + r
    are row q of `hi` times row r of `lo`, read-only tables that
    `_four_step_tables` keeps for the last 4 sizes, built once per size
    (3 MB at N = 2**22, 8 MB at the MAX_POINTS cap).  The row pass splits
    the runs of 64 rows over the workers; each block of a run (`_blocks`,
    a line being a row) is multiplied in place by the run's row of `hi`
    and a slice of `lo`, and is scaled while it is in cache.  The
    transpose swaps 64x64 tiles through one tile copy.
    """
    _columns(a)
    n1 = a.shape[0]
    hi, lo = _four_step_tables(n1)
    # the runs of 64 rows: one row of `hi` each, and the sides of the transpose's tiles
    runs = [slice(64 * q, 64 * (q + 1)) for q in range(len(hi))]

    def lines(first, last):
        for q in range(first, last):
            run = a[runs[q]]
            for start, stop in _blocks(run.size, n1):
                rows = slice(start // n1, stop // n1)
                block = run[rows]
                block *= hi[q]
                block *= lo[rows]
                np.fft.fft(block, axis=1, out=block)
                _divide(block, scale)

    pairs = [(i, j) for i in range(len(runs)) for j in range(i, len(runs))]

    def transpose(first, last):
        for i, j in pairs[first:last]:
            upper, lower = a[runs[i], runs[j]], a[runs[j], runs[i]]
            held = upper.copy()
            if i != j:
                upper[...] = lower.T
            lower[...] = held.T

    _in_chunks(lines, len(runs), a.size)
    _in_chunks(transpose, len(pairs), a.size)


# bounded: a process keeps the tables of its last 4 four-step sizes, 8 MB a
# size at most (n1 = 4096, N = MAX_POINTS), 32 MB in all
@functools.lru_cache(maxsize=4)
def _four_step_tables(n1: int) -> tuple[np.ndarray, np.ndarray]:
    """`_four_step`'s twiddles for an n1*n1-point line: `hi`, rows k1 = 64*q
    of exp(-2*pi*i*k1*j2/N), and `lo`, rows k1 = 0..63, 16 * n1 *
    (ceil(n1/64) + min(64, n1)) bytes together (3 MB at N = 2**22).

    Their index products are reduced mod N before the exp (`_twiddles`).
    The tables are read-only: every transform of this size shares them.
    """
    N, j2 = n1 * n1, np.arange(n1)
    tables = _twiddles(64 * np.arange(-(-n1 // 64)), j2, N), _twiddles(np.arange(min(64, n1)), j2, N)
    for table in tables:
        table.flags.writeable = False
    return tables


def outcome_distribution(grid: AmplitudeGrid, *, in_place: bool = False) -> OutcomeDistribution:
    """Computational-basis measurement probabilities |amps|^2 (no renormalizing).

    By default the probabilities are a new float array.  `in_place=True`
    writes them into the float64 view of the first N**d * 8 bytes of the
    grid's own buffer, which then holds them.  The blocks run in ascending
    order on one thread: writing block [s, e) of the floats overwrites no
    amplitude of a later block, but does overlap amplitudes of lower
    blocks, which a second worker might not have read yet.
    """
    amps = grid.amps
    out = amps.view(float)[: amps.size] if in_place else np.empty(amps.size)
    for start, stop in _blocks(amps.size):
        src, block = amps[start:stop], out[start:stop]
        if np.may_share_memory(src, block):
            # only the first block of the state's own buffer: numpy would run an
            # overlapping call through a buffered loop whose |a| can differ by an ulp
            src = src.copy()
        np.abs(src, out=block)
        np.square(block, out=block)
    return OutcomeDistribution(grid.spec, out)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """i.i.d. outcome draws, shape (shots, d), int64.

    Uses the counter-based Philox generator so a fixed seed gives the same
    sequence no matter how the surrounding work is scheduled.  The draws are
    those of `Generator.choice(N**d, shots, p=probs/probs.sum())`, without
    its N**d-entry temporaries: the cumulative sum of the normalized weights
    is taken block by block, once over every block for the value at each
    block's end, and once more only in the blocks whose range holds a
    sorted uniform, to search them there.  Weights that are negative or
    NaN, in any block, or whose sum is not finite and positive, raise
    ValueError, as do shots that are not an integer in [1, MAX_POINTS]
    (2**24, the lattice's cap) and a seed that is not an integer >= 0.
    """
    shots = _integer("shots", shots, low=1, high=MAX_POINTS)
    seed = _integer("seed", seed, low=0)
    probs = dist.probs
    total = float(probs.sum())
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"weights sum to {total}, expected a finite positive sum")
    blocks = _blocks(probs.size)
    # carries[b] is the cdf just before block b, so carries[-1] is its last value
    carries = np.zeros(len(blocks) + 1)
    buffer = np.empty(blocks[0][1])  # the first block is the longest
    for b, (start, stop) in enumerate(blocks):
        carries[b + 1] = _block_cdf(probs, start, stop, total, carries[b], buffer)[-1]
    last = carries[-1]
    u = np.random.Generator(np.random.Philox(seed)).random(shots)
    order = np.argsort(u, kind="stable")
    u = u[order]
    # the uniforms below a block's normalized end value and at or above the
    # previous one's fall in that block
    ends = np.searchsorted(u, carries[1:] / last, side="left")
    flat = np.empty(shots, dtype=np.int64)
    lo = 0
    for b, hi in enumerate(ends):
        if hi > lo:
            cdf = _block_cdf(probs, *blocks[b], total, carries[b], buffer)
            cdf /= last
            flat[order[lo:hi]] = blocks[b][0] + np.searchsorted(cdf, u[lo:hi], side="right")
            lo = hi
    return np.column_stack(np.unravel_index(flat, dist.spec.shape)).astype(np.int64)


def _block_cdf(probs: np.ndarray, start: int, stop: int, total: float, carry: float,
               buffer: np.ndarray) -> np.ndarray:
    """cumsum(probs / total)[start:stop], in the head of `buffer`.

    `carry` is that cumsum just before `start`, 0.0 for the first block.  It
    is added into the block's first element before the block's own cumsum,
    which is the sequential sum `cumsum` takes over the whole array, bit for bit.
    """
    cdf = np.divide(probs[start:stop], total, out=buffer[:stop - start])
    if not cdf.min() >= 0.0:
        raise ValueError(f"weights must be nonnegative, found one in [{start}, {stop})")
    cdf[0] += carry
    return np.cumsum(cdf, out=cdf)


# -- Circular statistics on the periodic outcome lattice ---------------------
#
# The lattice has period N, so spreads are measured with wraparound distances:
# the signed shorter arc wrap(dk) = ((dk + N/2) mod N) - N/2 in [-N/2, N/2).


def wrap_signed(delta_k, N: int) -> np.ndarray:
    """Signed shorter-arc difference on the period-N lattice.

    N must be a positive finite real, delta_k real (complex is rejected),
    and a float delta_k finite with delta_k + N/2 within the floats.  With
    an integer N, integer delta_k is wrapped in the integers and rounded to
    a float once, so it is exact at any size; with an N that is not an
    integer it must lie below 2**53 in magnitude.  Integer input has no finiteness check of each entry; the
    float entries of an object array are checked like a float array's.
    """
    N = _positive("N", N)
    raw = np.asarray(delta_k)
    _check_reals("delta_k", raw)  # the float entries of an object array too
    if raw.dtype.kind in "iuO" and N.is_integer():  # "O": Python ints beyond 64 bits
        n, flat = int(N), raw.reshape(-1)  # 1-d: numpy gives a 0-d object result as a bare int
        # Python ints wherever r - n could wrap around in a fixed-width type
        r = (flat if flat.dtype.kind == "i" and n < 2 ** 63 else flat.astype(object)) % n
        return np.where(r < n - n // 2, r, r - n).astype(float).reshape(raw.shape)[()]
    if raw.dtype.kind in "iuO" and raw.size and not -2 ** 53 < raw.min() <= raw.max() < 2 ** 53:
        raise ValueError(f"delta_k must lie below 2**53 in magnitude when N = {N} is not an integer")
    # a Python float sum overflows to inf with no warning; every entry's sum is at most this one
    if raw.dtype.kind == "f" and raw.size and float(raw.max()) + N / 2.0 == np.inf:
        raise ValueError(f"delta_k + N/2 must stay within the floats, got N = {N}")
    return (np.asarray(raw, dtype=float) + N / 2.0) % N - N / 2.0


def _weights(probs) -> tuple[np.ndarray, int, float]:
    """The weights as float64 (the array itself when they already are), their count N and their sum."""
    w = _reals("weights", probs, finite=False)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights have shape {w.shape}, expected (N,) with N >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum is rejected below
        total = float(w.sum())
    if not (np.isfinite(total) and total != 0.0):
        raise ValueError(f"weights sum to {total}, expected a finite nonzero sum")
    return w, w.size, total


def _resultant(w: np.ndarray, N: int) -> complex:
    """sum_k w_k exp(2*pi*i*k/N) from B + R roots of unity instead of N.

    With k = r*B + j (B = isqrt(N), R = N // B) the root factors into an outer
    root of r*B and an inner root of j.  The first R*B weights, viewed as an
    (R, B) matrix, meet the inner cos and sin rows in one real contraction; the
    N - R*B < B weights of the tail take their roots directly.

    No step calls BLAS: a threaded BLAS call leaves its worker thread spinning
    for a short while after it returns, and on a 2-core machine the allocating
    numpy calls that followed it (sampling, in a run) ran up to twice as slow.
    """
    B, R, inner, outer, tail = _roots(N)
    rows = np.einsum("rj,cj->rc", w[: R * B].reshape(R, B), inner)
    return complex((outer * (rows[:, 0] + 1j * rows[:, 1])).sum() + (w[R * B:] * tail).sum())


# bounded: a process keeps the tables of its last 128 lattice sizes, about
# 17 MB at most (N = 2**24), and a sweep over up to 128 sizes builds each once
@functools.lru_cache(maxsize=128)
def _roots(N: int) -> tuple:
    """`_resultant`'s B, R and read-only tables for N: the inner cos and sin
    rows, the outer roots and the tail's roots, at most 48*sqrt(N) bytes.

    The tables are read-only: every call with this N shares them."""
    B = math.isqrt(N)
    R = N // B
    ang = 2.0 * np.pi * np.arange(B) / N
    tables = (np.vstack((np.cos(ang), np.sin(ang))), np.exp(2j * np.pi * B * np.arange(R) / N),
              np.exp(2j * np.pi * np.arange(R * B, N) / N))
    for table in tables:
        table.flags.writeable = False
    return (B, R, *tables)


def circular_mean(probs) -> float:
    """Mean lattice position of a weight vector of length N over [0, N), via the resultant.

    Undefined (returns 0.0) when the resultant vanishes, e.g. for the uniform
    distribution.  Takes O(N) additions and O(sqrt(N)) transcendental calls,
    and allocates nothing of length N.  Weights near the float limit, whose
    resultant over their sum overflows, raise ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected in _mean
        return _mean(*_weights(probs))


def _mean(w: np.ndarray, N: int, total: float) -> float:
    """`circular_mean` of the weights `_weights` gave as (w, N, total)."""
    z = _resultant(w, N) / total
    if not cmath.isfinite(z):
        raise ValueError(f"the weights' resultant over their sum is {z}, beyond the floats")
    if abs(z) < 1e-15:
        return 0.0
    mean = (N / (2.0 * np.pi)) * np.angle(z) % N
    # a tiny negative angle wraps to exactly N, which is the position 0
    return 0.0 if mean == N else float(mean)


def circular_variance(probs, mean: float) -> float:
    """Wrapped second moment (k^2 units) of a weight vector of length N about `mean`.

    The deviations are wrap_signed(k - mean, N), computed block by block,
    so nothing of length N is allocated.  The mean, usually
    `circular_mean(probs)`, must be finite with |mean| + 2N < 2**52.
    Weights near the float limit, whose weighted sum of squared deviations
    overflows, raise ValueError.
    """
    w, N, total = _weights(probs)
    mean = _real("mean", mean)
    if not abs(mean) + 2 * N < 2.0 ** 52:
        raise ValueError(f"mean must be finite with |mean| + 2N below 2**52, got {mean} for N={N}")
    variance = _variance(w, N, total, mean)
    if not math.isfinite(variance):
        raise ValueError(f"the weights give a variance of {variance}, beyond the floats")
    return variance


def _variance(w: np.ndarray, N: int, total: float, mean: float) -> float:
    """`circular_variance` of the weights `_weights` gave as (w, N, total),
    about a mean with |mean| + 2N < 2**52."""
    # while |mean| + 2N < 2**52, x = (k - mean) + N/2 is sorted and spans less
    # than N, so x mod N is x - j*N below (j + 1)*N and x - (j + 1)*N from
    # there on, j = floor(x[0] / N) (a float over an integer never rounds onto
    # an integer it is not): the values np.remainder gives, from two cheap
    # slices of each block instead of a modulo
    j = np.floor(((0.0 - mean) + N / 2.0) / N)
    second = 0.0
    for start, stop in _blocks(N):
        x = np.arange(start, stop, dtype=float)
        x -= mean
        x += N / 2.0
        split = np.searchsorted(x, (j + 1) * N)
        x[:split] -= j * N
        x[split:] -= (j + 1) * N
        x -= N / 2.0
        np.square(x, out=x)
        second += float(np.einsum("k,k->", w[start:stop], x))  # a dot product without BLAS
    return second / total


# -- End-to-end run -----------------------------------------------------------


@dataclass
class GradientEstimationReport:
    """Everything measured and derived from one end-to-end estimation run.

    success_probability is the mass at the lattice frequency nearest the true
    analytic gradient (ties toward the negative neighbor): the estimator
    cannot beat lattice resolution, so that outcome is "success".  It is 0.0
    when a component of the true gradient lies outside [-m/2, m/2): such a
    gradient aliases onto a wrong decoded value, so no outcome is a success.

    The run works in one state buffer, so `distribution.probs` is a float64
    view of the first N**d * 8 bytes of the complex128 state (16 bytes per
    point), which lives as long as the report holds the distribution.
    query_count is the class constant 1: the build's blocks are one superposed query.
    value_range is the (min, max) of f over the lattice that query saw, the
    grid's `value_range`.
    """

    spec: ProblemSpec
    mode_index: np.ndarray
    mode_gradient: np.ndarray
    true_gradient: np.ndarray
    success_index: np.ndarray
    success_probability: float
    distribution: OutcomeDistribution
    samples: np.ndarray
    circular_mean_k: np.ndarray
    circular_variance_k: np.ndarray
    value_range: tuple[float, float]
    query_count: ClassVar[int] = 1

    @property
    def sigma_k_measured(self) -> np.ndarray:
        return np.sqrt(self.circular_variance_k)

    @property
    def sigma_grad_measured(self) -> np.ndarray:
        return (self.spec.m / self.spec.N) * self.sigma_k_measured


def run_gradient_estimation(
    f: TestFunction, spec: ProblemSpec, shots: int = 1000, seed: int = 0
) -> GradientEstimationReport:
    """Full pipeline: phase grid, forward transform, measurement statistics.

    shots = 0 skips sampling and reports distribution-level quantities only;
    the seed is checked all the same.  shots above MAX_POINTS (2**24, the
    lattice's cap) raise ValueError before anything is built.
    """
    shots = _integer("shots", shots, low=0, high=MAX_POINTS)
    seed = _integer("seed", seed, low=0)
    _check_d(f, spec)
    true_gradient = _reals(f"the gradient of {f.name}", f.grad(spec.x0), finite=False).reshape(spec.d)
    success_index = nearest_lattice_index(true_gradient, spec)
    # the run owns its state: the transform, the probabilities and the
    # statistics all work in the one buffer the build fills
    grid = build_phase_state(f, spec)
    grid = fourier_transform(grid, in_place=True)
    dist = outcome_distribution(grid, in_place=True)

    flat_mode = int(np.argmax(dist.probs))
    mode_index = np.array(np.unravel_index(flat_mode, spec.shape))
    success_probability = 0.0
    if ((true_gradient >= -spec.m / 2.0) & (true_gradient < spec.m / 2.0)).all():
        success_probability = float(dist.probs[np.ravel_multi_index(tuple(success_index), spec.shape)])

    means = np.empty(spec.d)
    variances = np.empty(spec.d)

    def statistics():
        for axis in range(spec.d):
            # one sum of each marginal serves both statistics
            w, N, total = _weights(dist.marginal(axis))
            means[axis] = _mean(w, N, total)
            variances[axis] = _variance(w, N, total, means[axis])

    # both jobs only read the distribution; with two chunks the statistics run
    # on the calling thread and sampling on a second worker.  That pays: each
    # marginal is a full pass over the state, and the passes overlap the
    # sampling (seed-0 dense_d4 and wide_d1 states, 2-vCPU Xeon, numpy 2.4.6:
    # 39 ms split against 61 and 52 ms serial, medians of 35)
    jobs = (statistics, lambda: sample(dist, shots, seed)) if shots else (statistics,)
    done = _in_chunks(lambda first, last: [job() for job in jobs[first:last]], len(jobs), spec.size)
    draws = done[-1][-1] if shots else np.empty((0, spec.d), dtype=np.int64)

    return GradientEstimationReport(
        spec=spec,
        mode_index=mode_index,
        mode_gradient=decode_outcome(mode_index, spec),
        true_gradient=true_gradient,
        success_index=success_index,
        success_probability=success_probability,
        distribution=dist,
        samples=draws,
        circular_mean_k=means,
        circular_variance_k=variances,
        value_range=grid.value_range,
    )


# -- Phase errors -------------------------------------------------------------


def apply_phase_error(grid: AmplitudeGrid, errors) -> AmplitudeGrid:
    """New grid with per-point phases rotated by `errors` (radians, flat or
    shaped), which must be real (complex is rejected) and finite."""
    eps = _reals("errors", errors).reshape(-1)
    if eps.size != grid.amps.size:
        raise ValueError(f"errors has length {eps.size}, expected {grid.amps.size}")
    return replace(grid, amps=grid.amps * np.exp(1j * eps))
