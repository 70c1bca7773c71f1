"""The Kronecker product every entry of which is one series product, as
the library formed Psi (x) Psi before it formed each distinct product
once: the oracle for motive.tensor_difference_residual and the motive's
kept products."""

from drinfeldlab.tseries import TMatrix


def kronecker(A, B):
    """Kronecker product: block (i, j) is A[i][j] * B."""
    n, m = A.shape
    p, q = B.shape
    out = []
    for i in range(n):
        for k in range(p):
            row = []
            for j in range(m):
                for l in range(q):
                    row.append(A.rows[i][j] * B.rows[k][l])
            out.append(row)
    return TMatrix(out)
