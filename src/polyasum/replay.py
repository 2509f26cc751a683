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
# Window._uniform_into) and per buffer of the logseries replay: in
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
    ``cdf.searchsorted(u, side="right")``.  A guide table of g buckets
    finds that answer for most draws; the draws it cannot settle use
    ``searchsorted`` itself; :func:`_guide_buckets` sizes the table.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    g = _guide_buckets(cdf.size, size)
    # x -> x * g is exact for a power of two g, so an entry whose scaled
    # value is at most j is at most every u with int(u * g) == j:
    # start[j] is a lower bound of the answer for that bucket, and the
    # answer itself when the entry it points at exceeds u.  u * g < g
    # for every u < 1, so j < g.
    start = (cdf * g).searchsorted(np.arange(g), side="right")
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


def _guide_buckets(k: int, size: int) -> int:
    """The buckets of ``_categorical``'s guide table for ``size`` draws
    over ``k`` entries: the power of two above 255, 2k - 1 and
    sqrt(size k).  Up to about k / (2 g) of the draws fall back to
    ``searchsorted``, at some 60 ns each, and a bucket costs about 6 ns
    to build: sqrt(size k) balances the two, so a large request gets a
    large table and a small one keeps 256 buckets."""
    return 1 << max(8, (2 * k - 1).bit_length(),
                    math.isqrt(size * k).bit_length())


# Where _logseries replays numpy rather than calling it.  The replay's
# speed-up (numpy's time over the replay's, best of 21 interleaved,
# range of two runs, 2-vCPU Xeon with AVX-512, numpy 2.4):
#     p      8192 draws   16384       200000
#     0.2    0.69-0.71    0.85-0.87   1.04-1.06
#     0.25   0.72-0.80    0.91-0.94   1.09-1.11
#     0.3    0.97-0.99    1.13-1.14   1.33-1.33
#     0.5    0.97-1.22    1.14-1.40   1.55-1.59
#     0.6    1.18-1.39    1.10-1.63   1.77-1.79
#     0.7    1.48-1.49    1.65-1.66   1.78-1.79
#     0.9    1.40-1.40    1.53-1.55   1.62-1.63
# It gains at every p from 0.3 on from 16384 draws on, 1.3x or more on
# large requests; below p = 0.3 it loses at 16384 draws.  Near p = 1
# the floor argument's band grows with 1/|log q| and most variates go
# through libm one by one; there numpy's loop is faster (200k draws
# from default_rng(1), best of 5, three runs, same host):
#     p        0.9999     0.99999    0.999995   0.999997   0.999998
#              1.18-1.37  1.12-1.27  1.01-1.17  0.89-1.09  0.64-0.92
#     p        0.999999   1 - 1e-7
#              0.47-0.60  0.23-0.24
_LOGSERIES_MIN_P = 0.3
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

    Large requests at p from 0.3 to short of 1 are replayed over
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
    as numpy's own draws would; a V < p that opens a variate on a
    buffer's last double starts the next buffer.  Only the starts with
    V < p are computed: every earlier one took one extra double, so the
    variate at position i whose rank among them is s is variate i - s.
    The vector expm1 and log are checked against libm within
    ``_LOGSERIES_BAND`` of every decision.  At the end the generator is
    wound back to the last buffer and draws only the doubles used; a
    variate numpy would draw again sends the whole request to
    ``rng.logseries`` from the saved state.
    """
    bitgen = rng.bit_generator
    entry = bitgen.state
    r = math.log1p(-p)
    if out is None:
        out = np.empty(size, dtype=np.int64)
    n = min(_BLOCK, 2 * size)
    h = n // 2 + 1  # starts with V < p in a buffer, at most
    # the work arrays are made once per call: per buffer only the
    # starts' positions are new
    buf = np.empty(n)
    v, q, q2, lq, t, fl = (np.empty(h) for _ in range(6))
    val, slot, lb, ib = (np.empty(h, dtype=np.int64) for _ in range(4))
    rank = np.arange(h)
    pos1 = np.arange(1, n + 1, dtype=np.int32)
    last = np.empty(n, dtype=np.int32)
    ge, flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    near = np.empty(h, dtype=bool)
    done, carried = 0, 0
    while done < size:
        state = bitgen.state
        # the doubles the rest takes, 1 + p each on average, with 8
        # standard deviations to spare; a buffer short of them is
        # followed by the next
        rest = size - done
        x = buf[:min(n, rest + int(p * rest + 4 * math.sqrt(rest)) + 2)]
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
        # the starts with V < p; every other start gives 1
        np.greater(flag[:k], ge[:k], out=flag[:k])
        idx = np.flatnonzero(flag[:k])
        # the variates that end in the buffer, up to the request's end
        m = min(k - idx.size, size - done)
        np.subtract(idx, rank[:idx.size], out=slot[:idx.size])
        j = int(slot[:idx.size].searchsorted(m))
        idx = idx[:j]
        vm, qm, q2m, res = v[:j], q[:j], q2[:j], val[:j]
        # U is the next double, within the buffer for every start kept;
        # "clip" writes to out unbuffered
        np.take(x, idx, out=vm, mode="clip")
        np.take(x[1:], idx, out=qm, mode="clip")
        qm *= r
        np.expm1(qm, out=qm)
        np.negative(qm, out=qm)
        np.multiply(qm, qm, out=q2m)
        np.less(vm, qm, out=flag[:j])
        np.add(flag[:j], 1, out=res)
        np.less_equal(vm, q2m, out=flag[:j])
        nf = np.count_nonzero(flag[:j])
        f = lb[:nf]
        np.compress(flag[:j], rank[:j], out=f)
        lqf, tf, ff, nr = lq[:nf], t[:nf], fl[:nf], near[:nf]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.take(qm, f, out=lqf, mode="clip")
            np.log(lqf, out=lqf)
            np.take(vm, f, out=tf, mode="clip")
            np.log(tf, out=tf)
            tf /= lqf
            tf += 1.0
            np.floor(tf, out=ff)
            # cast as it is: the near integers, infinities and NaNs
            # among them, are recomputed below
            np.copyto(ib[:nf], ff, casting="unsafe")
            res[f] = ib[:nf]
            # |t - libm's t| is below about 2**-50 (t + (t - 1) / -lq):
            # the band times that bound into lq
            np.reciprocal(lqf, out=lqf)
            np.subtract(1.0, lqf, out=lqf)
            lqf *= tf
            lqf *= _LOGSERIES_BAND * 2.0 ** -52
            # the distance to the nearest integer is not above it (NaN
            # included): t - fl into t, fl + 1 - t into fl
            np.subtract(tf, ff, out=tf)
            np.subtract(1.0, tf, out=ff)
            np.minimum(tf, ff, out=tf)
            np.greater(tf, lqf, out=nr)
            np.logical_not(nr, out=nr)
        # positive doubles order as their bits: distances in ulps
        dq, dq2 = qm.view(np.int64), q2m.view(np.int64)
        dq -= vm.view(np.int64)
        dq2 -= vm.view(np.int64)
        np.abs(dq, out=dq)
        np.abs(dq2, out=dq2)
        np.minimum(dq, dq2, out=dq)
        np.less_equal(dq, _LOGSERIES_BAND, out=flag[:j])
        np.take(flag, f, out=ge[:nf], mode="clip")
        np.logical_or(ge[:nf], nr, out=ge[:nf])
        flag[f] = ge[:nf]
        for s in np.flatnonzero(flag[:j]).tolist():
            i = idx[s]
            res[s] = _logseries_exact(p, r, x[i], x[i + 1])
            if not res[s]:
                bitgen.state = entry
                out[:] = rng.logseries(p, size)
                return out
        chunk = out[done:done + m]
        chunk.fill(1)
        chunk[slot[:j]] = res
        done += m
        if done == size:
            # variate m - 1 ends on double m - 1 + j
            bitgen.state = state
            rng.random(out=buf[:m + j - carried])
            return out
        carried = k - m - j  # 1 if a V < p opened on the last double
        if carried:
            buf[0] = x[-1]
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
