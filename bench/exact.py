"""Independent exact arithmetic for re-checking witnesses.

Nothing here imports kummerlat: a witness reported by the library is
re-checked with this module's own integer matrix product and Bareiss
determinant, so a defect in the library's linear algebra cannot hide
itself.
"""

from fractions import Fraction
from itertools import combinations


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(m):
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def isometry_error(m, gram_source, gram_target):
    """None when m carries gram_target onto gram_source, else the reason.

    Rows of m are images of source basis vectors in target coordinates,
    so the condition is m * gram_target * m^T == gram_source with
    |det m| == 1.
    """
    n = len(gram_source)
    if len(m) != n or any(len(row) != len(gram_target) for row in m) or len(gram_target) != n:
        return "witness shape does not match the ranks"
    if abs(det(m)) != 1:
        return "witness is not unimodular"
    if matmul(matmul(m, gram_target), transpose(m)) != [list(r) for r in gram_source]:
        return "witness does not carry the target form onto the source form"
    return None


def period_error(m, source_columns, target_columns, lam):
    """None when every source period column maps to lam times its target."""
    if lam == 0:
        return "period scalar is zero"
    for src, tgt in zip(source_columns, target_columns):
        image = [sum(Fraction(src[i]) * m[i][j] for i in range(len(m))) for j in range(len(m[0]))]
        if image != [lam * Fraction(x) for x in tgt]:
            return "period is not transported at the reported scalar"
    return None


def wedge_gram():
    """Gram of the exterior square of a rank-4 frame, pairs in lex order.

    The pairing of e_i^e_j with e_k^e_l is the sign of the permutation
    (i, j, k, l) when the four indices are distinct, else 0.
    """
    pairs = list(combinations(range(4), 2))
    gram = []
    for i, j in pairs:
        row = []
        for k, l in pairs:
            perm = (i, j, k, l)
            if len(set(perm)) != 4:
                row.append(0)
                continue
            inversions = sum(1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b])
            row.append(-1 if inversions % 2 else 1)
        gram.append(row)
    return gram


def hyperbolic(n):
    return [[0, n], [n, 0]]


def block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out
