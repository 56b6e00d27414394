import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from knotinv import parse_pd

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF_PD = "X[1,3,2,4] X[3,1,4,2]"
AA_TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[2,6,3,5]"
K12N888_MIRROR_PD = (
    "X[1,2,3,4] X[4,3,5,6] X[6,5,7,8] X[9,1,10,11] X[11,10,12,13] X[13,12,8,14] "
    "X[9,16,17,15] X[15,17,19,18] X[18,19,20,2] X[16,14,22,21] X[21,22,24,23] X[23,24,7,20]"
)


def det_from_jones(v) -> int:
    """|V(-1)|, with t^(1/2) = i in the Gaussian integers: the state-sum
    route to the determinant, kept as an oracle for ``determinant``."""
    re = im = 0
    for h, coef in v.coeffs.items():
        k = h % 4
        if k == 0:
            re += coef
        elif k == 1:
            im += coef
        elif k == 2:
            re -= coef
        else:
            im -= coef
    assert re == 0 or im == 0, "V(-1) is not purely real or imaginary"
    return abs(re) + abs(im)


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL_PD)


@pytest.fixture
def fig8():
    return parse_pd(FIG8_PD)


@pytest.fixture
def hopf():
    return parse_pd(HOPF_PD)


@pytest.fixture
def aa_trefoil():
    return parse_pd(AA_TREFOIL_PD)


@pytest.fixture
def k12n888_mirror():
    return parse_pd(K12N888_MIRROR_PD)
