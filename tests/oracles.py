"""Reference routes that the package does not take.

Structure layer: the package reads the nonfailed set of each k off its
bit-packed closure plane, and the tie-sets off the balanced masks;
``scan_min_tiesets`` and ``tieset_table`` build them from the balance
table alone.  ``or_closure`` builds the nonfailed set of one k by an OR
pass per unit, and ``closure_profile`` and ``minimal_masks`` read its
count profile and its minimal elements off it, one pass over the masks
per unit.  ``is_nonfailed`` tests one state against an array of
tie-set masks and ``structure_function`` evaluates the paper's
structure function 1 - prod_T (1 - prod_{i in T} x_i) on it.
``bit_matrix_table`` builds the balance table itself from the 2**n x n
matrix of unit statuses.

Chains: the package never materializes the state chain's matrix or the
compound subgenerator.  ``full_transition_matrix`` writes the one-step
matrix over all 2**n states entry by entry, ``dense_transition`` reads a
chain's matrix off its column action, ``full_matrix`` stacks the chain
dump's row blocks, and ``to_dense`` assembles the compound subgenerator
from ``dense_transition``.  ``integrate_pdf`` integrates a failure-time
density by adaptive Simpson quadrature, one density grid per refinement level.
``exact_count_moments`` back-substitutes on the count chain in rational
arithmetic, ``exact_failure_time_moments`` combines it with Y's moments in
mpmath into the failure time's MTTF and SCV, ``exact_compound_moments``
solves a count-chain failure-time law's dense generator in mpmath for
E[Z^q], ``dense_moments`` solves ``to_dense`` in floats for the same, and
``exact_pdf_survival`` tabulates a count-chain failure-time law by
``mpmath.expm`` of its dense generator.  The tests compare each with the
package's route.

Monte Carlo: ``walk_shock_counts`` finds each replication's failure shock
from its unit lifetimes one shock at a time, without sort keys.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import mpmath
import numpy as np

from ckngb.chain import build_consolidated
from ckngb.errors import CapacityExceeded, NoTieSets, NonConvergence, OddNUnsupported
from ckngb.system import BC3_TOLERANCE_PER_UNIT, BalanceCondition
from ckngb.tiesets import count_profile
from ckngb.ttf import pdf_grid

DENSE_CAP = 4096


def bit_matrix_table(n, bc):
    """Bool array over all 2**n bitmasks: the mask is balanced under bc.

    Column p of the bit matrix is the status of the unit at position p.
    BC3 sums the cosines and sines of the operating units' angles; BC1 and
    BC2 compare the matrix with its columns permuted by every reflection
    p -> j - p and every nontrivial rotation p -> p + s.
    """
    if bc is BalanceCondition.BC1 and n % 2 != 0:
        raise OddNUnsupported(f"BC1 needs an even unit count, got n={n}")
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(np.int8)
    positions = np.arange(n)
    if bc is BalanceCondition.BC3:
        angles = 2.0 * np.pi * positions / n
        table = np.hypot(bits @ np.cos(angles), bits @ np.sin(angles)) <= BC3_TOLERANCE_PER_UNIT * n
    elif bc is BalanceCondition.BC2:
        table = np.zeros(1 << n, dtype=bool)
        for s in range(1, n):
            table |= (bits[:, (positions - s) % n] == bits).all(axis=1)
    else:
        half = n // 2
        sym = np.empty((1 << n, n), dtype=bool)
        for j in range(n):
            sym[:, j] = (bits[:, (j - positions) % n] == bits).all(axis=1)
        table = np.zeros(1 << n, dtype=bool)
        for j in range(half):
            table |= sym[:, j] & sym[:, j + half]
    return table & (masks != 0)


def scan_min_tiesets(n, k, bc):
    """Tie-set masks by a subset scan in ascending cardinality, lexicographic
    members within a size, pruning supersets of tie-sets already found."""
    table = bit_matrix_table(n, bc)
    found = []
    for size in range(k, n + 1):
        for units in combinations(range(1, n + 1), size):
            mask = 0
            for i in units:
                mask |= 1 << (n - i)
            if any((mask & t) == t for t in found):
                continue
            if table[mask]:
                found.append(mask)
    if not found:
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    return tuple(found)


def or_closure(n, k, bc):
    """Bool array over all 2**n bitmasks: the mask contains a balanced set
    of at least k units.  One in-place OR pass per unit lifts every marked
    mask to the mask with that unit's bit also set."""
    every = np.arange(1 << n, dtype=np.int64)
    table = bit_matrix_table(n, bc) & (np.bitwise_count(every) >= k)
    if not table.any():
        raise NoTieSets(f"no tie-sets for n={n}, k={k}, bc={bc.value}")
    for b in range(n):
        halves = table.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the mask
        halves[:, 1, :] |= halves[:, 0, :]
    return table


def closure_profile(table, n):
    """c_j: the marked masks with j set bits, j = 0..n."""
    every = np.arange(1 << n, dtype=np.int64)
    return np.bincount(np.bitwise_count(every[table]), minlength=n + 1)


def minimal_masks(table, n):
    """The minimal marked masks, in the package's tie-set order: one pass
    per unit clears every mask whose bit-b-free twin is marked."""
    minimal = table.copy()
    for b in range(n):
        below = table.reshape(-1, 2, 1 << b)[:, 0, :]
        minimal.reshape(-1, 2, 1 << b)[:, 1, :] &= ~below
    masks = np.flatnonzero(minimal)[::-1]
    return tuple(int(m) for m in masks[np.argsort(np.bitwise_count(masks), kind="stable")])


def is_nonfailed(state, masks):
    """True when the operating set contains at least one of the tie-set
    masks."""
    return any((state.mask & t) == t for t in masks.tolist())


def structure_function(state, masks):
    """1 - prod_T (1 - prod_{i in T} x_i) over the tie-set masks, evaluated
    in exact integers; unit i of a mask is its bit n - i."""
    n = state.n
    prod = 1
    bits = state.bits()
    for t in masks.tolist():
        inner = 1
        for i in range(1, n + 1):
            if t >> (n - i) & 1:
                inner *= bits[i - 1]
        prod *= 1 - inner
    return 1 - prod


def tieset_table(masks, n):
    """Bool array over all 2**n bitmasks: the mask contains one of masks."""
    every = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(every.size, dtype=bool)
    for t in masks:
        table |= (every & t) == t
    return table


def full_transition_matrix(n, r):
    """One-step matrix over all 2**n states in canonical index order
    (descending mask, so mask m has index 2**n - 1 - m), written entry by
    entry: one shock takes state a to each subset b of its units with
    probability r^|b| (1 - r)^(|a| - |b|), and to no other state."""
    size = 1 << n
    full = np.zeros((size, size))
    for a in range(size):
        b = a
        while True:  # every subset b of a, largest first
            kept = b.bit_count()
            full[size - 1 - a, size - 1 - b] = r**kept * (1.0 - r) ** (a.bit_count() - kept)
            if b == 0:
                break
            b = (b - 1) & a
    return full


def full_matrix(n, k, bc, r):
    """Stochastic (N+1)x(N+1) matrix of the consolidated chain, stacked from
    the chain dump's row blocks, with the absorbing state appended."""
    masks, blocks = build_consolidated(n, k, bc, r)
    N = masks.size
    out = np.zeros((N + 1, N + 1))
    row = 0
    for P, absorb in blocks:  # each block holds the last P.shape[1] columns
        out[row : row + len(P), N - P.shape[1] : N] = P
        out[row : row + len(P), N] = absorb
        row += len(P)
    out[N, N] = 1.0
    return out


def dense_transition(chain):
    """A chain's one-step matrix, column j the column action on unit vector j."""
    return np.column_stack([chain.apply(e) for e in np.eye(chain.size)])


def to_dense(Z):
    """Dense compound subgenerator I x T_c + P x (exit alpha^T)."""
    if Z.dim > DENSE_CAP:
        raise CapacityExceeded(f"dense subgenerator capped at {DENSE_CAP}, need {Z.dim}")
    block = np.outer(Z.shock.exit_rates, Z.shock.alpha)
    return np.kron(np.eye(Z.states), Z.shock.T) + np.kron(dense_transition(Z.chain), block)


def exact_count_moments(n, k, bc, r):
    """E[M] and E[M(M-1)] as Fractions, exact at the binary value of the
    float r: x = (I - P)^(-1) q and y = (I - P)^(-1) x by back-substitution
    over the operating count j, then E[M] = x_n and E[M(M-1)] = 2 (P y)_n,
    with P[j, b] = C(j, b) r^b (1 - r)^(j - b) and q_j = c_j / C(n, j).
    The state j = 0 is failed and never left, so x_0 = y_0 = 0."""
    r = Fraction(r)
    counts = count_profile(n, k, bc)
    q = [Fraction(int(c), comb(n, j)) for j, c in enumerate(counts)]

    def step(j, x):
        return sum(comb(j, b) * r**b * (1 - r) ** (j - b) * x[b] for b in range(j + 1))

    def solve(rhs):
        x = [Fraction(0)] * (n + 1)
        for j in range(1, n + 1):
            x[j] = (rhs[j] + step(j, x)) / (1 - r**j)  # x[j] is 0 inside step
        return x

    x = solve(q)
    return x[n], 2 * step(n, solve(x))


def exact_failure_time_moments(n, k, bc, r, Y, dps=40):
    """MTTF and SCV of the count-chain failure time Z = Y_1 + ... + Y_M,
    as mpmath numbers at dps digits: E[Z] = E[M] E[Y] and
    E[Z^2] = E[M] E[Y^2] + E[M(M-1)] E[Y]^2, with the count moments from
    ``exact_count_moments`` and E[Y] = alpha (-T)^(-1) e,
    E[Y^2] = 2 alpha (-T)^(-2) e solved in mpmath, exact at the binary
    values of the float r and of Y's alpha and T."""
    mean_m, fm2 = exact_count_moments(n, k, bc, r)
    with mpmath.workdps(dps):
        neg_T = -mpmath.matrix(Y.T.tolist())
        alpha = mpmath.matrix([Y.alpha.tolist()])
        x = mpmath.lu_solve(neg_T, mpmath.ones(Y.K, 1))
        mean_y = (alpha * x)[0]
        second_y = 2 * (alpha * mpmath.lu_solve(neg_T, x))[0]
        mean_m = mpmath.mpf(mean_m.numerator) / mean_m.denominator
        fm2 = mpmath.mpf(fm2.numerator) / fm2.denominator
        mttf = mean_m * mean_y
        return +mttf, (mean_m * second_y + fm2 * mean_y**2) / mttf**2 - 1


def exact_compound(n, k, bc, r, Y):
    """The count-chain failure-time law in mpmath at the working precision,
    exact at the binary values of the float r and of Y's alpha and T.

    States run from j = n operating units down to the fewest of a
    nonfailed state, as in ``build_count_chain``, with the thinning
    P[j, b] = C(j, b) r^b (1 - r)^(j - b) and q_j = c_j / C(n, j) formed
    in mpmath.  Returns the dense generator I x T + P x (t alpha^T), the
    start row e_0 x alpha, and the columns (q - P q) x t and q x e that
    read density and survival off alpha exp(z G).
    """
    r = mpmath.mpf(r)
    counts = count_profile(n, k, bc)
    js = range(n, int(np.argmax(counts > 0)) - 1, -1)
    q = [mpmath.mpf(int(counts[j])) / comb(n, j) for j in js]
    K = Y.K
    T = mpmath.matrix(Y.T.tolist())
    t = [-mpmath.fsum(T[x, y] for y in range(K)) for x in range(K)]
    dim = len(js) * K
    G = mpmath.zeros(dim, dim)
    start = mpmath.zeros(1, dim)
    dens = mpmath.zeros(dim, 1)
    surv = mpmath.zeros(dim, 1)
    for a, j in enumerate(js):
        row = [comb(j, b) * r**b * (1 - r) ** (j - b) for b in js]  # 0 for b > j
        stepped = mpmath.fsum(p * qb for p, qb in zip(row, q))
        for x in range(K):
            dens[a * K + x] = (q[a] - stepped) * t[x]
            surv[a * K + x] = q[a]
            for b in range(a, len(js)):
                for y in range(K):
                    G[a * K + x, b * K + y] = row[b] * t[x] * Y.alpha[y] + (T[x, y] if b == a else 0)
    for y in range(K):
        start[0, y] = Y.alpha[y]
    return G, start, dens, surv


def exact_compound_moments(n, k, bc, r, Y, p, dps=40):
    """E[Z^q] = q! start (-G)^(-q) surv for q = 1..p on ``exact_compound``'s
    law, as mpmath numbers at dps digits.  A shock never adds operating
    units, so G is block upper triangular in K x K blocks (checked), and
    each solve runs from the last state up, one ``mpmath.lu_solve`` of a
    diagonal block per state."""
    with mpmath.workdps(dps):
        G, start, _, x = exact_compound(n, k, bc, r, Y)
        K, dim = Y.K, G.rows
        assert all(G[i, j] == 0 for i in range(dim) for j in range(i // K * K))
        diagonal = [-G[a : a + K, a : a + K] for a in range(0, dim, K)]
        moments = []
        for q in range(1, p + 1):
            y = mpmath.zeros(dim, 1)
            for a in range(dim - K, -1, -K):
                rhs = mpmath.matrix(
                    [x[i] + mpmath.fsum(G[i, j] * y[j] for j in range(a + K, dim)) for i in range(a, a + K)]
                )
                y[a : a + K, 0] = mpmath.lu_solve(diagonal[a // K], rhs)
            x = y
            moments.append(factorial(q) * (start * x)[0])
    return moments


def dense_moments(Z, p):
    """E[Z^q] = q! alpha (-T_Z)^(-q) (w x e) for q = 1..p by dense LU solves
    on ``to_dense(Z)``."""
    neg = -to_dense(Z)
    x = np.repeat(Z.chain.weights, Z.K)
    moments = []
    for q in range(1, p + 1):
        x = np.linalg.solve(neg, x)
        moments.append(factorial(q) * float(Z.alpha @ x))
    return moments


def exact_pdf_survival(n, k, bc, r, Y, zs, dps=40):
    """Density and survival of ``exact_compound``'s law at each z, as
    mpmath numbers, from ``mpmath.expm`` at dps digits."""
    with mpmath.workdps(dps):
        G, start, dens, surv = exact_compound(n, k, bc, r, Y)
        out = []
        for z in zs:
            v = start * mpmath.expm(mpmath.mpf(z) * G)
            out.append(((v * dens)[0], (v * surv)[0]))
    return out


def integrate_pdf(Z, tol=1e-8):
    """Adaptive-Simpson mass of the density up to where survival < 1e-10.

    The intervals are refined level by level, down to 40 levels: an
    interval whose Simpson estimate moves by less than 15 tol when halved
    is kept (tol halves with each level), the others are halved.  Each
    level's new nodes are read off one ``pdf_grid`` call.
    """
    z_hi = 1.0
    while pdf_grid(Z, [z_hi])[1][0] > 1e-10:
        z_hi *= 2.0
        if z_hi > 2**40:
            raise NonConvergence("survival does not decay; check the subgenerator")
    fa, fm, fb = pdf_grid(Z, [0.0, 0.5 * z_hi, z_hi])[0].tolist()
    level = [(0.0, fa, z_hi, fb, fm)]
    total = 0.0
    for depth in range(40, -1, -1):
        mids = [(a, 0.5 * (a + b), b) for a, _, b, _, _ in level]
        nodes = np.array([(0.5 * (a + m), 0.5 * (m + b)) for a, m, b in mids]).ravel()
        order = np.argsort(nodes)
        values = np.empty(nodes.size)
        values[order] = pdf_grid(Z, nodes[order])[0]
        refined = []
        for (a, m, b), (_, fa, _, fb, fm), (flm, frm) in zip(mids, level, values.reshape(-1, 2).tolist()):
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            if depth == 0 or abs(left + right - whole) < 15.0 * tol:
                total += left + right + (left + right - whole) / 15.0
            else:
                refined += [(a, fa, m, fm, flm), (m, fm, b, fb, frm)]
        if not refined:
            break
        level = refined
        tol /= 2.0
    return total


def walk_shock_counts(lifetimes, table):
    """Per row of unit lifetimes (unit i dies at shock lifetimes[:, i],
    unit 1 the leftmost bit), the first shock after which the operating
    units form a failed state."""
    n = lifetimes.shape[1]
    counts = []
    for row in lifetimes.tolist():
        for m in sorted(set(row)):
            alive = sum(1 << (n - 1 - i) for i, life in enumerate(row) if life > m)
            if not table[alive]:
                counts.append(m)
                break
    return np.array(counts, dtype=np.int64)
