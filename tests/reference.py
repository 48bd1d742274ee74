"""Dense reference forms the tests compare the package's fast paths against."""

import numpy as np


def commutator(a, b) -> np.ndarray:
    """Matrix commutator AB - BA by two dense products; accepts OperatorMatrix or ndarray."""
    am, bm = (np.asarray(getattr(op, "matrix", op)) for op in (a, b))
    return am @ bm - bm @ am
