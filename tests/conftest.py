"""Shared fixtures: coefficient fields and frozen reference tables.

Reference values were computed once with an independent degreewise
linear-algebra method (see pfaffcalc.linoracle) and cross-checked
between characteristic 0 and 32003 before being frozen here.
"""

from itertools import chain

import pytest

from pfaffcalc.constructions import GradedMatrix
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import columns_of_vecs
from pfaffcalc.resolutions import FreeComplex, vecs_of_matrix


@pytest.fixture(scope="session")
def gf2():
    return GF(2)


@pytest.fixture(scope="session")
def gf32003():
    return GF(32003)


@pytest.fixture(scope="session")
def qq():
    return QQ


# ---------------------------------------------------------------------------
# engine vecs, flat tuples (k0, c0, k1, c1, ...), as (key, coeff) pairs


def terms(v):
    """The (key, coefficient) pairs of the engine vec v, in its order."""
    it = iter(v)
    return list(zip(it, it))


def flat(pairs):
    """The engine vec of the given (key, coefficient) pairs, in their
    order; `terms` inverted."""
    return tuple(chain.from_iterable(pairs))


# ---------------------------------------------------------------------------
# dense graded matrices, which the library takes in only through
# vecs_of_matrix and gives back only through columns_of_vecs


def complex_of_matrices(ring, twists, mats):
    """The checked FreeComplex whose differential d_{k+1} is the graded
    matrix mats[k]."""
    levels = []
    for k, d in enumerate(mats):
        if [list(d.row_degs), list(d.col_degs)] != \
                [list(tw) for tw in twists[k:k + 2]]:
            raise ValueError("differential %d does not match the twist "
                             "data" % (k + 1,))
        vecs, order = vecs_of_matrix(d)
        levels.append((order, vecs))
    return FreeComplex(ring, twists, levels)


def dense_diffs(C):
    """The differentials of the FreeComplex C as graded matrices; a
    complex that minimalize consumed raises ValueError."""
    C._check_unconsumed()
    zero = C.ring.zero()
    mats = []
    for (order, vecs), col_degs in zip(C.levels, C.twists[1:]):
        cols = columns_of_vecs(vecs, order)
        mats.append(GradedMatrix(C.ring, [[c.get(i, zero) for c in cols]
                                          for i in range(order.rank)],
                                 order.twists, col_degs))
    return mats


def is_zero_matrix(M):
    """Whether every entry of the graded matrix M is zero."""
    return all(e.is_zero() for row in M.entries for e in row)


# ---------------------------------------------------------------------------
# frozen reference tables

# Bigraded Betti numbers of R/J at f = 4: {(index, (x-deg, t-deg)): rank}
RJ4_BIGRADED = {
    (0, (0, 0)): 1,
    (1, (1, 1)): 4,
    (1, (2, 0)): 1,
    (2, (1, 2)): 1,
    (2, (2, 1)): 4,
    (3, (3, 2)): 1,
}

RJ4_TOTALS = (1, 5, 5, 1)
RJ5_TOTALS = (1, 10, 16, 16, 10, 1)

# Total Betti numbers of N over the x-variable ring.
N4_TOTALS = (4, 4)
N5_TOTALS = (5, 10, 10, 5)
N5_TOTALS_CHAR2 = (5, 11, 11, 5)

# Bigraded Betti numbers of A = R/I at f = 4 over the x-variable ring.
A4_BIGRADED = {(0, (0, 0)): 1, (1, (2, 0)): 1}

# sha256 of the minimal complexes that free_resolution returns, keyed by
# (module, f, characteristic); see test_resolutions.complex_digest.  A
# and N live over the x-variable ring, RJ over the full ring.  Frozen
# from the dense minimalization route, so they pin its pivot order.
MINIMAL_COMPLEX_SHA256 = {
    ("A", 4, 0): "26dfe971ba09ce6b2296e0b3aad79b8d4a661cfacb647c846cc41958c3177b6a",
    ("A", 4, 2): "3f8eee160bf7ad968a59208499436da0e3ce306ba68c40390cf009791307f851",
    ("A", 4, 32003): "0556f63aea1b087beadca72cf3faaf5f781adf578a3d538c0c96d68458cb7e53",
    ("A", 5, 0): "f4ae17751ca98f18c2e9b3c57bd67101c1d223bd89a08a55ab7911ac3453c603",
    ("A", 5, 2): "ce52d9df29e9e5f5295b7effc217d56eab228fb2517b692d2228f72c1bf7e5b8",
    ("A", 5, 32003): "f81e5a0949598cd6a5e4ceaccd42181dc2816670bbaa067f31092f1f33aa34f8",
    ("N", 4, 0): "b04783f3d68a401c65ad1bb393a6dbd0a82502b386079d20ce1b3cc389a2a9b4",
    ("N", 4, 2): "47cbe3574327c040a78a4c099a15ac824d918948a7c99ffb16019852ab6ad11d",
    ("N", 4, 32003): "10195e4bcfaf279b732b22aaad3262d1e5edadc6b7a84878cd45c6e1feeee18d",
    ("N", 5, 0): "11112b029ef963162da6b8ca571e778b593b276b9c1373e7162ebfe7c5b24d13",
    ("N", 5, 2): "49c64669e5a0d2a242eeaee3e737fa85d9fb1162d225caa263db16c428209c74",
    ("N", 5, 32003): "6ab72ba46573bdc994ac981d396b8ae689aa64b6b0640fc1d54917a255e6534e",
    ("RJ", 4, 0): "914625a53876f58e7502ac4469fb348d97dba693a74fd6588e1f90a67d9e95d9",
    ("RJ", 4, 2): "ace9279587236ab79cbf3b1b9e1c6cb348cdc3e46598c3874e423acdbbbf3cfe",
    ("RJ", 4, 32003): "ce65e32e2bdc90d5173dc3fe38286e9e7b010292dd8dac89601c1b62b7d3996d",
    ("RJ", 5, 0): "d2acbf0256ec497aa2b580986c2b210154b4c55cf2b3a080b0619722ee14aeb5",
    ("RJ", 5, 2): "8788aed9c48970643eecf83c660095cc8dcad7f528713951f56fa425873e58bd",
    ("RJ", 5, 32003): "24161d32cda70f9b27e0770d421f8b196de280c7b75d018aaebed075149fe421",
}

# The minimal complex of N at f = 6 over GF(32003), hashed the same way.
N6_MINIMAL_SHA256 = \
    "1a8c0a75f674eab04279000e8dcba7fc92e9ba203c299271224c3d08444dbb42"

# Bigraded Betti numbers of N at f = 6, the table perfbench/expected.json
# freezes for the benchmark.
N6_BIGRADED = {
    (0, (0, 0)): 6,
    (1, (1, 0)): 20,
    (2, (3, 0)): 84,
    (3, (4, 0)): 140,
    (4, (5, 0)): 84,
    (5, (7, 0)): 20,
    (6, (8, 0)): 6,
}

# Hilbert-series numerator of R/J at f = 4 (coefficients of T^0, T^1, ...).
J4_HILBERT_NUMERATOR = [1, 0, -5, 5, 0, -1]


def codim_J(f):
    """Frozen codimension of J = Pf4(X) + I1(tX) for f = 2..6."""
    return {2: 1, 3: 2, 4: 3, 5: 5, 6: 8}[f]


def codim_I(f):
    """Frozen codimension of the 4x4-Pfaffian ideal for f = 4..6."""
    return {4: 1, 5: 3, 6: 6}[f]
