"""Two numpy draws are replayed here bit for bit, faster, with the
generator left in numpy's end state: ``Generator.choice``
(``_categorical``) and ``Generator.logseries`` (``_logseries``).  Both
can write into a caller's array (``out``), such as the rows of a
batch, and take their doubles block by block.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Doubles per block of the block-wise draws (_categorical,
# Window.uniform_in_cells) and per buffer of the logseries replay: in
# the replay 16k kept every work array in cache and ran faster per draw
# than 32k or 64k, which cost page faults.
_BLOCK = 16384


def _categorical(p: np.ndarray, size: int, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``size`` indices drawn from the probabilities ``p``, bit for bit
    as ``rng.choice(p.size, size, p=p)`` draws them, written into
    ``out`` (int64) when it is given.

    The same cdf (``p.cumsum()`` divided by its last entry), the same
    ``rng.random(size)`` doubles, taken block by block in order, so the
    generator ends in the same state, and the same answer as
    ``cdf.searchsorted(u, side="right")``.  A guide table of
    max(256, 2 * p.size) buckets finds that answer for most draws; the
    draws it cannot settle use ``searchsorted`` itself.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    g = max(256, 2 * cdf.size)
    # x -> fl(x * g) is monotone, so an entry whose scaled value is
    # below j lies below every u with int(fl(u * g)) == j: start[j] is
    # a lower bound of the answer for that bucket, and the answer
    # itself when the entry it points at exceeds u.  fl(u * g) < g for
    # every u < 1, so j < g.
    start = (cdf * g).searchsorted(np.arange(g), side="left")
    idx = np.empty(size, dtype=np.int64) if out is None else out
    b = min(size, _BLOCK)
    u, x = np.empty(b), np.empty(b)
    j, low = np.empty(b, dtype=np.intp), np.empty(b, dtype=bool)
    for a in range(0, size, _BLOCK):
        k = min(_BLOCK, size - a)
        uk, xk, res = u[:k], x[:k], idx[a:a + k]
        rng.random(out=uk)
        np.multiply(uk, g, out=xk)
        np.copyto(j[:k], xk, casting="unsafe")  # truncates, as astype
        # every index is in range: "clip" writes to out unbuffered
        np.take(start, j[:k], out=res, mode="clip")
        np.take(cdf, res, out=xk, mode="clip")
        np.less_equal(xk, uk, out=low[:k])
        todo = np.flatnonzero(low[:k])
        res[todo] = cdf.searchsorted(uk[todo], side="right")
    return idx


# Where _logseries replays numpy rather than calling it.  The replay's
# speed-up (numpy's time over the replay's, best of 21 interleaved, two
# runs, 2-vCPU Xeon with AVX-512, numpy 2.4):
#     p      8192 draws   16384       200000
#     0.3    0.72-0.73    0.89-0.94   1.05-1.09
#     0.5    1.02-1.09    1.21-1.23   1.09-1.20
#     0.6    1.04         1.15-1.19   1.63-1.75
#     0.7    1.17-1.39    1.49-1.55   1.64-1.71
#     0.9    1.42-1.43    1.54-1.58   1.59-1.71
# It gains 1.4x or more on large requests from p = 0.6 on, and gains at
# every such p from 16384 draws on.  Near p = 1 the floor argument's
# band grows with 1/|log q| and most variates go through libm one by
# one; there numpy's loop is faster (200k draws from default_rng(1),
# best of 5, two runs, same host):
#     p        0.9999     0.99999    0.999995   0.999997   0.999998
#              1.26-1.47  1.13-1.30  1.22-1.27  1.05-1.07  0.86-0.87
#     p        0.999999   1 - 1e-7   1 - 1e-9
#              0.53-0.55  0.15-0.20  0.11
_LOGSERIES_MIN_P = 0.6
_LOGSERIES_MAX_P = 0.999997
_LOGSERIES_MIN_SIZE = 16384
# numpy's vector expm1 and log can differ from libm's in the last bit
# (1 ulp at most in 200k arguments).  A double within this many ulps of
# a threshold it is compared with (about 2**-40 relative), or a floor
# argument that close to an integer, is recomputed with libm.
_LOGSERIES_BAND = 2 ** 12


def _logseries(p: float, size: int, rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """``size`` logarithmic-series(p) draws, bit for bit as
    ``rng.logseries(p, size)`` draws them, leaving the generator in the
    same state; written into ``out`` (int64) when it is given.

    Large requests at large p, short of p = 1, are replayed over
    buffers of doubles (:func:`_logseries_replay`), where numpy's own
    loop is slower; others, and every request on a numpy the replay
    does not match, go to ``rng.logseries``.
    """
    if (_LOGSERIES_MIN_P <= p < _LOGSERIES_MAX_P
            and size >= _LOGSERIES_MIN_SIZE and _logseries_replays()):
        return _logseries_replay(p, size, rng, out)
    if out is None:
        return rng.logseries(p, size)
    out[:] = rng.logseries(p, size)
    return out


@functools.cache
def _logseries_replays() -> bool:
    """Whether the replay matches this numpy's ``logseries``: values
    and the next draw on a fixed probe, checked once per process."""
    ours, numpys = (np.random.Generator(np.random.PCG64(0)) for _ in range(2))
    return (np.array_equal(_logseries_replay(0.7, 5000, ours),
                           numpys.logseries(0.7, 5000))
            and ours.random() == numpys.random())


def _logseries_replay(p: float, size: int, rng: np.random.Generator,
                      out: np.ndarray | None = None) -> np.ndarray:
    """numpy's ``random_logseries`` replayed over buffers of doubles.

    numpy draws V; V >= p gives 1.  Otherwise it draws U, sets
    q = -expm1(r U) with r = log1p(-p), and gives floor(1 + log V /
    log q) if V <= q * q (drawing again if that is < 1 or V == 0), else
    1 if V >= q, else 2.  Here each buffer comes from ``rng.random``,
    as numpy's own draws would; a V that opens a variate on a buffer's
    last double starts the next buffer.  The vector expm1 and log are
    checked against libm within ``_LOGSERIES_BAND`` of every decision.
    At the end the generator is wound back to the last buffer and draws
    only the doubles used; a variate numpy would draw again sends the
    whole request to ``rng.logseries`` from the saved state.
    """
    bitgen = rng.bit_generator
    entry = bitgen.state
    r = math.log1p(-p)
    if out is None:
        out = np.empty(size, dtype=np.int64)
    n = min(_BLOCK, 2 * size)
    buf, v, q, q2 = (np.empty(n) for _ in range(4))
    pos1 = np.arange(1, n + 1, dtype=np.int32)
    last = np.empty(n, dtype=np.int32)
    ge, flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    done, carried = 0, 0
    while done < size:
        state = bitgen.state
        # room for the carried V and the rest, at most 2 doubles each
        x = buf[:min(n, 2 * (size - done))]
        rng.random(out=x[carried:])
        k = x.size
        # last[j]: 1 + the last position <= j holding a double >= p
        np.greater_equal(x, p, out=ge[:k])
        np.multiply(pos1[:k], ge[:k], out=last[:k])
        np.maximum.accumulate(last[:k], out=last[:k])
        # j starts a variate iff the run of doubles < p before it is even
        flag[0] = True
        np.subtract(pos1[:k - 1], last[:k - 1], out=last[:k - 1])
        np.bitwise_and(last[:k - 1], 1, out=last[:k - 1])
        np.equal(last[:k - 1], 0, out=flag[1:k])
        idx = np.flatnonzero(flag[:k])
        opened = idx[-1] == k - 1 and not ge[k - 1]
        idx = idx[:min(idx.size - opened, size - done)]
        m = idx.size
        vm, qm, q2m, res = v[:m], q[:m], q2[:m], out[done:done + m]
        np.take(x, idx, out=vm)
        # U is the next double; a start with V >= p ignores it
        np.take(x, idx + 1, out=qm, mode="clip")
        qm *= r
        np.expm1(qm, out=qm)
        np.negative(qm, out=qm)
        np.multiply(qm, qm, out=q2m)
        np.less(vm, qm, out=flag[:m])
        np.add(flag[:m], 1, out=res)
        f = np.flatnonzero(vm <= q2m)
        with np.errstate(divide="ignore", invalid="ignore"):
            lq = np.log(qm[f])
            t = np.log(vm[f]) / lq + 1.0
            fl = np.floor(t)
            # |t - libm's t| is below about 2**-50 (t + (t - 1) / -lq)
            tol = _LOGSERIES_BAND * 2.0 ** -52 * t * (1.0 - 1.0 / lq)
            near_int = ~(np.minimum(t - fl, fl + 1.0 - t) > tol)
        res[f] = np.where(near_int, 1.0, fl)
        # positive doubles order as their bits: distances in ulps
        dq, dq2 = qm.view(np.int64), q2m.view(np.int64)
        dq -= vm.view(np.int64)
        dq2 -= vm.view(np.int64)
        np.abs(dq, out=dq)
        np.abs(dq2, out=dq2)
        np.minimum(dq, dq2, out=dq)
        np.less_equal(dq, _LOGSERIES_BAND, out=flag[:m])
        flag[f[near_int]] = True
        for j in np.flatnonzero(flag[:m]).tolist():
            i = idx[j]
            res[j] = _logseries_exact(p, r, x[i], x[min(i + 1, k - 1)])
            if not res[j]:
                bitgen.state = entry
                out[:] = rng.logseries(p, size)
                return out
        done += m
        if done == size:
            i = idx[-1]
            bitgen.state = state
            rng.random(out=buf[:i + 2 - ge[i] - carried])
            return out
        if opened:
            buf[0] = x[-1]
        carried = int(opened)
    return out


def _logseries_exact(p: float, r: float, v: float, u: float) -> int:
    """numpy's ``random_logseries`` on the doubles v, then u (unused
    when v >= p), r = log1p(-p), with libm's rounding; 0 where numpy
    would draw again."""
    if v >= p:
        return 1
    q = -math.expm1(r * u)
    if v > q * q:
        return 1 if v >= q else 2
    if v == 0.0 or q == 1.0:
        return 0
    k = math.floor(1.0 + math.log(v) / math.log(q))
    return k if 1 <= k < 2 ** 63 else 0
