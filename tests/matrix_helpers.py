"""Random test inputs shared by the test modules."""

from idealgate.lattice import IntMatrix


def random_unimodular(n: int, steps: int, rng) -> IntMatrix:
    """Product of bounded elementary column operations; determinant is always +-1."""
    cols = [list(col) for col in IntMatrix.identity(n).columns()]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            for t in range(n):
                cols[i][t] += q * cols[j][t]
        elif op == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [-x for x in cols[i]]
    return IntMatrix.from_columns(cols, rows=n)
