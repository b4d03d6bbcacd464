import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import edgeschur
from edgeschur.poly import MultiPoly, av, monomial_degree, xv, yv


@pytest.fixture
def X():
    return lambda i: MultiPoly.var(xv(i))


@pytest.fixture
def Y():
    return lambda j: MultiPoly.var(yv(j))


@pytest.fixture
def A():
    return lambda d: MultiPoly.var(av(d))


@pytest.fixture
def one():
    return MultiPoly.one()


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter; return (exit code, stdout,
    stderr).  For inputs with hundreds of variables: the packed-monomial
    registry is process-wide, so x_1..x_600 registered in the test process
    would widen every monomial of the tests after it."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(edgeschur.__file__).parents[1])}

    def run(source: str):
        proc = subprocess.run([sys.executable, "-c", source], env=env,
                              capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def random_poly(rng: random.Random, nvars: int = 3, max_deg: int = 3,
                nterms: int = 4, coeff: int = 5) -> MultiPoly:
    vars_ = ([xv(i) for i in range(1, nvars + 1)]
             + [av(d) for d in range(-1, 2)])
    out = MultiPoly.zero()
    for _ in range(nterms):
        term = MultiPoly.const(rng.randint(-coeff, coeff))
        for _ in range(rng.randint(0, max_deg)):
            term = term * MultiPoly.var(rng.choice(vars_))
        out = out + term
    return out


def total_degree(p: MultiPoly) -> int:
    """Max total degree of a stored monomial; -1 for the zero polynomial."""
    return max(map(monomial_degree, p.terms), default=-1)
