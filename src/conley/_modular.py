"""Arithmetic modulo primes just below 2^62: where the primes come from,
and the characteristic polynomial of an integer matrix modulo one of
them."""

from itertools import count
from operator import mul
from threading import Lock

# Primes just below 2^62, largest first, found on first use.  A thread
# that finds the next one missing re-checks under _GROWING before it
# appends, so racing threads append each prime once.
PRIMES = []
_GROWING = Lock()

# Miller-Rabin to these bases decides primality for every n < 2^64.
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 2^64."""
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
    """The primes below 2^62, largest first; each is found once per
    process and kept in PRIMES."""
    for i in count():
        if i == len(PRIMES):
            with _GROWING:
                if i == len(PRIMES):
                    q = PRIMES[-1] - 2 if PRIMES else (1 << 62) - 1
                    while not is_prime(q):
                        q -= 2
                    PRIMES.append(q)
        yield PRIMES[i]


def charpoly_mod(rows, p):
    """Descending coefficients of det(tI - B) mod p, for B given by its
    integer rows and a prime p (H. Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9).

    B mod p is brought to upper Hessenberg form H by similarity: for each
    column m - 1, a nonzero entry on or below the subdiagonal is swapped
    into row m and clears the entries below it (a column with none is
    skipped).  The characteristic polynomials q_m of the leading m x m
    blocks of H then follow from q_(m+1) = (t - h_mm) q_m -
    sum_i h_(m-i)m h_(m,m-1) ... h_(m-i+1,m-i) q_(m-i).
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, p)
        tail = h[m][m:]
        # Row i -= u_i row m on the left, then column m += sum u_i
        # column i on the right.  Below row m, columns before m - 1 are
        # already zero.
        us = [h[i][m - 1] * inv % p for i in range(m + 1, n)]
        for i, u in enumerate(us, m + 1):
            if u:
                h[i][m - 1:] = [0] + [(x - u * y) % p
                                      for x, y in zip(h[i][m:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
    polys = [[1]]                               # ascending q_0, q_1, ...
    for m in range(n):
        q = [0] + polys[m]
        chain = 1                               # h_(m,m-1) ... h_(k+1,k)
        for k in range(m, -1, -1):
            if k < m:
                chain = chain * h[k + 1][k] % p
                if not chain:
                    break
            c = h[k][m] * chain % p
            q[:k + 1] = [a - c * b for a, b in zip(q, polys[k])]
        polys.append([x % p for x in q])
    return polys[n][::-1]
