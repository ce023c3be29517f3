"""Arithmetic modulo primes just below 2^78: where the primes come from,
and the characteristic polynomial of an integer matrix modulo a product
of them, by a Hessenberg reduction that pivots on units."""

from itertools import count
from math import gcd
from operator import mul
from threading import Lock

# Primes just below 2^78, largest first, found on first use.  A thread
# that finds the next one missing re-checks under _GROWING before it
# appends, so racing threads append each prime once.
PRIMES = []
_GROWING = Lock()

# Miller-Rabin to these bases decides primality below 3.19e23 > 2^78.
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin for n < psi_12 = 318665857834031151167461
    (about 3.19 * 10^23), the least strong pseudoprime to the twelve prime
    bases in WITNESSES (J. Sorenson and J. Webster, Strong pseudoprimes to
    twelve prime bases, Math. Comp. 86 (2017), 985-1003)."""
    if n < 2:
        return False
    for a in WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes():
    """The primes below 2^78, largest first; each is found once per
    process and kept in PRIMES."""
    for i in count():
        if i == len(PRIMES):
            with _GROWING:
                if i == len(PRIMES):
                    q = PRIMES[-1] - 2 if PRIMES else (1 << 78) - 1
                    while not is_prime(q):
                        q -= 2
                    PRIMES.append(q)
        yield PRIMES[i]


def charpoly_mod(rows, modulus):
    """Descending coefficients of det(tI - B) mod modulus, for B given by
    its integer rows and a modulus that is a product of distinct primes
    (H. Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.2.9); None when a column has nonzero entries but no unit to pivot on.

    B mod modulus is brought to upper Hessenberg form H by similarity: for
    each column m - 1, the first entry on or below the subdiagonal that is
    a unit (for a prime, the first nonzero one) is swapped into row m and
    clears the entries below it (a column of zeros is skipped).  The
    characteristic polynomials q_m of the leading m x m blocks of H then
    follow from q_(m+1) = (t - h_mm) q_m -
    sum_i h_(m-i)m h_(m,m-1) ... h_(m-i+1,m-i) q_(m-i).
    """
    n = len(rows)
    h = [[x % modulus for x in row] for row in rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n)
                      if gcd(h[i][m - 1], modulus) == 1), None)
        if pivot is None:
            if any(h[i][m - 1] for i in range(m, n)):
                return None
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, modulus)
        tail = h[m][m:]
        # Row i -= u_i row m on the left, then column m += sum u_i
        # column i on the right.  Below row m, columns before m - 1 are
        # already zero.
        us = [h[i][m - 1] * inv % modulus for i in range(m + 1, n)]
        for i, u in enumerate(us, m + 1):
            if u:
                h[i][m - 1:] = [0] + [(x - u * y) % modulus
                                      for x, y in zip(h[i][m:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % modulus
    polys = [[1]]                               # ascending q_0, q_1, ...
    for m in range(n):
        q = [0] + polys[m]
        chain = 1                               # h_(m,m-1) ... h_(k+1,k)
        for k in range(m, -1, -1):
            if k < m:
                chain = chain * h[k + 1][k] % modulus
                if not chain:
                    break
            c = h[k][m] * chain % modulus
            q[:k + 1] = [a - c * b for a, b in zip(q, polys[k])]
        polys.append([x % modulus for x in q])
    return polys[n][::-1]
