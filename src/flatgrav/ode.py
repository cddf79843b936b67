"""Adaptive DOP853 integration with dense output and a terminal event.

The explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince with
its 7th-degree continuous extension, as given by Hairer, Norsett & Wanner
(*Solving Ordinary Differential Equations I*, 2nd ed. 1993, Sec. II.5, and
their code dop853).  Initial step, error norm and step-size control are
those of scipy's ``solve_ivp(method="DOP853", dense_output=True)``.

A step is plain float arithmetic in scipy's order of operations: a stage
state is (sum of a_j*k_j)*h + y, an RMS norm sqrt(ss)/n**0.5.  Each stage
sum, error estimate and dense-output coefficient adds its terms left to
right over the nonzero coefficients, and each norm's sum of squares in
``ddot``'s lanes: the orders in which OpenBLAS's generic kernel
(``OPENBLAS_CORETYPE=Prescott``) adds scipy's numpy products for a state of
two or more components.  So under that kernel the accepted steps, every
interpolant and the event time of such a state are bitwise scipy's; the
tests hold the two against each other.  (For one component numpy adds
every sum in lanes, so there the last bits may differ.)  Kernels with fused
multiply-adds (Haswell, SkylakeX) move scipy's bits but not these, which do
not depend on the CPU.  No ``sum()``: from Python 3.12 it compensates float
sums.  The terminal event is located on the step's interpolant by Brent's
method (``brentq``).

numpy is imported only where a ``DenseOutput`` is evaluated on arrays; a
run, and the ``Solution`` it returns, needs none.
"""
from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["DenseOutput", "Solution", "brentq", "dop853"]

EPS = sys.float_info.epsilon
SAFETY = 0.9                # step-size control
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8     # -1/(order of the error estimator + 1)
N_STAGES = 12
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# brentq stops when half its bracket is below (XTOL + RTOL*|x|)/2
XTOL = RTOL = 4 * EPS
MAX_ITER = 100


# ----------------------------------------------------- coefficient tables
# Hairer's dop853 coefficients to 30 digits.  Stages 13-15 are the extra
# stages of the dense output; row 12 of A holds the weights B.

C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
)

_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3,
         12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}

# error estimators: E5 of order 5, E3 = B minus the order-3 weights
_E5 = {0: 0.1312004499419488073250102996e-1,
       5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952,
       7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290,
       9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1,
       11: -0.2235530786388629525884427845e-1}
_B3 = {0: 0.244094488188976377952755905512,
       8: 0.733846688281611857341361741547,
       11: 0.220588235294117647058823529412e-1}

# dense output: the coefficients of the stages in F[3:]
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
)


def _pairs(row) -> Tuple[Tuple[int, float], ...]:
    """The (j, coefficient) pairs of a row, in the order of j."""
    return tuple(sorted(row.items()))


# the weights (j, a_sj) of each stage s >= 1 on the stages before it
_A = [None] + [_pairs(_A_ROWS[s]) for s in range(1, 16)]
B = _A[N_STAGES]
E5 = _pairs(_E5)
E3 = tuple((j, b - _B3.get(j, 0.0)) for j, b in B)
D = tuple(_pairs(row) for row in _D_ROWS)

# ------------------------------------------------------------------ sums
# scipy's sums are numpy products, which OpenBLAS forms.  For a state of
# two or more components the stage sums, error estimates and dense-output
# coefficients are gemv and gemm, which add each sum left to right; the
# norms are ddot, which adds in lanes.


def _dot(pairs, K) -> List[float]:
    """For each component's stages k in ``K``, the sum of a*k[j] over the
    (j, a) ``pairs``, left to right from 0.0."""
    out = []
    for k in K:
        acc = 0.0
        for j, a in pairs:
            acc += a * k[j]
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _ddot_slots(n: int) -> Tuple[int, ...]:
    """The lane of each of n terms in OpenBLAS's generic ``ddot``: four
    accumulators of two lanes, lane 2*k + l.  Blocks of eight fill lanes
    0-7, a remaining four lanes 0-3, a remaining pair lanes 0-1, and a last
    odd term lane 0.  The lanes add as (acc0 + acc1) + (acc2 + acc3), lane
    by lane, and then lane 0 + lane 1."""
    whole = n - n % 8
    return tuple(0 if n % 2 and i == n - 1 else i % 8 if i < whole else i % 4
                 for i in range(n))


def _sum_of_squares(values: List[float]) -> float:
    """The sum of v*v that ``np.linalg.norm`` forms with ``ddot``: up to
    four terms, (v0^2 + v2^2) + (v1^2 + v3^2), so three add as
    (v0^2 + v2^2) + v1^2."""
    acc = [0.0] * 8
    for slot, v in zip(_ddot_slots(len(values)), values):
        acc[slot] += v * v
    return (((acc[0] + acc[2]) + (acc[4] + acc[6]))
            + ((acc[1] + acc[3]) + (acc[5] + acc[7])))


# ------------------------------------------------------------ solution


def _horner(F_rev, x, y_old) -> list:
    """The dense-output polynomial at ``x`` in [0, 1] of a step, one entry
    per component, with ``F_rev`` the coefficients F[6], ..., F[0]: scipy's
    nested scheme, alternating factors x and 1 - x.

    ``x``, the entries F_rev[r][i] and y_old[i] are floats (one point) or
    numpy arrays (many points); either way each point gets the same
    operations.
    """
    one_minus_x = 1 - x
    out = []
    for i, y_i in enumerate(y_old):
        acc = 0.0
        for r, row in enumerate(F_rev):
            acc = (acc + row[i]) * (x if r % 2 == 0 else one_minus_x)
        out.append(acc + y_i)
    return out


class DenseOutput:
    """The solution over all accepted steps, one interpolant per step.

    Called like scipy's ``OdeSolution``, with the same segment choice (the
    lower index at a breakpoint) and the same arithmetic per point, so its
    values are bitwise ``OdeSolution``'s; the interpolants are stacked, so
    any number of points is evaluated in one numpy pass.  Points may come
    with their segment indices, which skips the search.

    It holds the stepper's float lists and makes its arrays on first use.
    """

    def __init__(self, ts: List[float], h: List[float],
                 F_rev: List[List[List[float]]], y_old: List[List[float]]):
        """Breakpoints ``ts`` (the last one may be an event time; the others
        start the steps), and per step its full length, its coefficients
        F[6], ..., F[0] (7 rows of n) and its initial state (n)."""
        self._ts, self._h, self._F_rev, self._y_old = ts, h, F_rev, y_old
        self.n_segments = len(h)

    @classmethod
    def join(cls, parts: Sequence["DenseOutput"]) -> "DenseOutput":
        """The runs ``parts`` back to back, each starting where the one
        before it ended; every interpolant is kept as it is."""
        ts = list(parts[0]._ts)
        for part in parts[1:]:
            ts += part._ts[1:]
        return cls(ts, [h for part in parts for h in part._h],
                   [F for part in parts for F in part._F_rev],
                   [y for part in parts for y in part._y_old])

    @cached_property
    def ts(self):
        """The breakpoints, as an array."""
        import numpy as np
        return np.array(self._ts)

    @cached_property
    def h(self):
        """Each step's full length, as an array."""
        import numpy as np
        return np.array(self._h)

    @cached_property
    def F(self):
        """F[6], ..., F[0] of each step, shape (7, n, n_segments): the step
        axis last, so that a gather over segments is contiguous."""
        import numpy as np
        return np.array(self._F_rev).transpose(1, 2, 0).copy()

    @cached_property
    def y_old(self):
        """Each step's initial state, shape (n, n_segments)."""
        import numpy as np
        return np.array(self._y_old).T.copy()

    def segments(self, t):
        """Index of the interpolant ``OdeSolution`` would use at each ``t``."""
        import numpy as np
        seg = np.searchsorted(self.ts, t, side="left") - 1
        return np.clip(seg, 0, self.n_segments - 1)

    def __call__(self, t, seg=None):
        """State at ``t`` (any shape), with the state axis first.

        ``seg`` must broadcast against ``t``; a segment index shared by a row
        of points (shape (m, 1)) gathers each coefficient once per row.
        """
        import numpy as np
        t = np.asarray(t, dtype=float)
        if seg is None:
            seg = self.segments(t)
        # a step starts at its breakpoint
        x = (t - self.ts.take(seg)) / self.h.take(seg)
        return np.array(_horner(self.F.take(seg, axis=-1), x,
                                self.y_old.take(seg, axis=-1)))


class Solution(NamedTuple):
    """One DOP853 run."""

    dense: Optional[DenseOutput]    # None if not one step was accepted
    t: float                        # where the run ended
    y: List[float]                  # state at t
    event: bool                     # whether the event ended the run
    failure: Optional[str] = None   # why the run stopped short, if it did


# ---------------------------------------------------------------- steps


def _rms(values: List[float]) -> float:
    """sqrt(ss)/n**0.5, as scipy's ``norm``."""
    return math.sqrt(_sum_of_squares(values)) / len(values) ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Sec. II.4), for an error
    estimator of order 7."""
    interval_length = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    # h0 is 0 where d1 overflows: divide as numpy does, to nan or inf
    d2 = _div(_rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def _error_norm(K, h, scale) -> float:
    """RMS norm of the error estimate, E5 damped by E3 as in dop853, from
    the stages ``K`` (K[i][s], component i of stage s)."""
    err5 = [e / scale_i for e, scale_i in zip(_dot(E5, K), scale)]
    err3 = [e / scale_i for e, scale_i in zip(_dot(E3, K), scale)]
    # squared norms as scipy squares np.linalg.norm
    err5_norm_2 = math.sqrt(_sum_of_squares(err5)) ** 2
    err3_norm_2 = math.sqrt(_sum_of_squares(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return h * err5_norm_2 / math.sqrt(denom * len(scale))


def dop853(fun: Callable, t_span: Tuple[float, float], y0, rtol: float,
           atol: float, event: Optional[Tuple[Callable, float]] = None,
           max_step: float = math.inf) -> Solution:
    """Integrate y' = fun(t, y) over ``t_span`` with dense output.

    ``fun`` takes t and the state as a list of floats and returns a
    sequence of floats.  The span must increase: t_span[1] > t_span[0],
    else ValueError.  ``rtol`` is floored at 100*eps.  ``atol`` must be
    finite and > 0, else ValueError: a component at 0 would have no error
    scale, and an infinite one would turn error control off.
    ``event`` is a (g, direction) pair: the run stops at the first zero of
    g(t, y) crossed in its direction (+1 rising, -1 falling), located on
    the step's interpolant by ``brentq``; only the signs at step ends are
    compared, so ``max_step`` must keep two zeros of g out of one step.  A
    step size below ten float spacings of t ends the run with ``failure``
    set.
    """
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError(f"integration span ({t}, {t_bound}) does not "
                         f"increase")
    y = [float(v) for v in y0]
    if not y or not all(map(math.isfinite, y)):
        raise ValueError("initial state must be a nonempty finite sequence")
    if not 0.0 < atol < math.inf:
        raise ValueError(f"atol must be finite and > 0, got {atol!r}")
    if event is not None:
        g_event, direction = event
        if direction not in (1, -1):
            raise ValueError("the event direction must be +1 or -1")
        g = g_event(t, y)
    rtol = max(rtol, 100 * EPS)

    fy = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, max_step, fy, rtol, atol)
    K = [[0.0] * 16 for _ in y]     # K[i][s]: component i of stage s
    ts, steps = [t], ([], [], [])   # DenseOutput's per-step lists
    ended = False

    def solution(failure=None) -> Solution:
        dense = DenseOutput(ts, *steps) if steps[0] else None
        return Solution(dense, ts[-1], y, ended, failure)

    def stages(first, last, t, y, h):
        """Stages first, ..., last - 1 of the step of ``h`` from (t, y),
        into K; returns the state of the last of them."""
        for s in range(first, last):
            pairs = _A[s]
            ys = []
            for K_i, y_i in zip(K, y):  # _dot's loop, inline: the hot path
                acc = 0.0
                for j, a in pairs:
                    acc += a * K_i[j]
                ys.append(acc * h + y_i)
            for K_i, v in zip(K, fun(t + C[s] * h, ys)):
                K_i[s] = v
        return ys

    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return solution(TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            for K_i, v in zip(K, fy):
                K_i[0] = v
            # stage 12 is f at (t + h, y_new), y_new = y + h*(B . K)
            y_new = stages(1, N_STAGES + 1, t, y, h)
            scale = [atol + max(abs(a), abs(b)) * rtol
                     for a, b in zip(y, y_new)]
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR,
                              SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # the extra stages and coefficients of the step's interpolant
        stages(N_STAGES + 1, 16, t, y, h)
        delta_y = [b - a for a, b in zip(y, y_new)]
        F = [delta_y,
             [h * K_i[0] - d for K_i, d in zip(K, delta_y)],
             [2 * d - h * (K_i[N_STAGES] + K_i[0])
              for K_i, d in zip(K, delta_y)]]
        F += ([h * v for v in _dot(row, K)] for row in D)
        F_rev, t_old, y_old = F[::-1], t, y
        for stack, item in zip(steps, (h, F_rev, y_old)):
            stack.append(item)
        t, y, fy = t_new, y_new, [K_i[N_STAGES] for K_i in K]
        t_end = t

        if event is not None:
            g_new = g_event(t, y)
            if direction * g <= 0 <= direction * g_new:
                def at(s):
                    return _horner(F_rev, (s - t_old) / h, y_old)
                t_end = brentq(lambda s: g_event(s, at(s)), t_old, t)
                y = at(t_end)
                ended = True
            g = g_new
        ts.append(t_end)
        if ended or t >= t_bound:
            return solution()


# ---------------------------------------------------------- root finding


def _div(a: float, b: float) -> float:
    """a/b in IEEE arithmetic, as C divides: inf or nan where b is zero."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of ``f`` in the bracket [xa, xb] by Brent's method.

    A port of scipy's C ``brentq``, operation for operation: inverse
    quadratic or secant steps, bisection when they do not shrink the
    bracket fast enough, stopping when half the bracket is below
    (XTOL + RTOL*|x|)/2, as scipy's ``brentq(xtol=4*eps, rtol=4*eps)``.
    Raises ValueError if f(xa) and f(xb) have the same sign, RuntimeError
    after MAX_ITER iterations.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAX_ITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:                       # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq did not converge in {MAX_ITER} iterations")
