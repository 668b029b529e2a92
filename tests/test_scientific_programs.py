"""Whole scientific programs built from compiled kernels.

Integration tests at the level the paper's introduction motivates:
multi-phase scientific computations (time stepping, direct solvers)
composed from compiled array comprehensions, checked against plain
Python implementations.
"""

import math

import pytest

import repro
from repro import FlatArray


class TestHeatEquation:
    """Explicit finite-difference heat equation, time-stepped by
    repeatedly applying a compiled in-place update."""

    STEP = """
    array (1,n)
      [* i := u!i + r * (u!(i-1) - 2.0 * u!i + u!(i+1))
       | i <- [2..n-1] *]
    """

    def reference(self, cells, n, r, steps):
        u = list(cells)
        for _ in range(steps):
            new = list(u)
            for i in range(2, n):
                new[i - 1] = u[i - 1] + r * (
                    u[i - 2] - 2.0 * u[i - 1] + u[i]
                )
            u = new
        return u

    def test_time_stepping(self):
        n, r, steps = 30, 0.25, 50
        compiled = repro.compile(self.STEP, strategy="inplace", old_array="u",
                                 params={"n": n, "r": r})
        cells = [0.0] * n
        cells[n // 2] = 100.0  # heat spike in the middle
        mesh = FlatArray.from_list((1, n), list(cells))
        for _ in range(steps):
            compiled({"u": mesh, "r": r})
        want = self.reference(cells, n, r, steps)
        assert mesh.to_list() == pytest.approx(want)

    def test_conservation(self):
        # With insulated interior updates the total heat of the
        # interior+boundary stays constant (boundary fixed at 0 and the
        # spike far from it over few steps).
        n, r = 40, 0.2
        compiled = repro.compile(self.STEP, strategy="inplace", old_array="u",
                                 params={"n": n, "r": r})
        cells = [0.0] * n
        cells[n // 2] = 60.0
        mesh = FlatArray.from_list((1, n), cells)
        for _ in range(10):
            compiled({"u": mesh, "r": r})
        assert sum(mesh.to_list()) == pytest.approx(60.0)


class TestTridiagonalSolver:
    """Thomas algorithm: two compiled recurrences (forward sweep
    backward substitution), checked against a dense solve."""

    FORWARD_C = """
    letrec* cp = array (1,n)
      ([ 1 := c!1 / b!1 ] ++
       [ i := c!i / (b!i - a!i * cp!(i-1)) | i <- [2..n] ])
    in cp
    """

    FORWARD_D = """
    letrec* dp = array (1,n)
      ([ 1 := d!1 / b!1 ] ++
       [ i := (d!i - a!i * dp!(i-1)) / (b!i - a!i * cp!(i-1))
         | i <- [2..n] ])
    in dp
    """

    BACKWARD = """
    letrec* x = array (1,n)
      ([ n := dp!n ] ++
       [ i := dp!i - cp!i * x!(i+1) | i <- [1..n-1] ])
    in x
    """

    def test_thomas_algorithm(self):
        n = 12
        a = [0.0] + [-1.0] * (n - 1)          # sub-diagonal (a_1 unused)
        b = [2.5] * n                          # diagonal
        c = [-1.0] * (n - 1) + [0.0]           # super-diagonal
        true_x = [math.sin(k) + 2.0 for k in range(n)]
        d = []
        for i in range(n):
            value = b[i] * true_x[i]
            if i > 0:
                value += a[i] * true_x[i - 1]
            if i < n - 1:
                value += c[i] * true_x[i + 1]
            d.append(value)

        env = {
            "n": n,
            "a": FlatArray.from_list((1, n), a),
            "b": FlatArray.from_list((1, n), b),
            "c": FlatArray.from_list((1, n), c),
            "d": FlatArray.from_list((1, n), d),
        }
        cp_comp = repro.compile(self.FORWARD_C, strategy="array",
                                params={"n": n})
        assert cp_comp.report.schedule.loop_directions()["i"] == ["forward"]
        cp = cp_comp(env)
        dp = repro.compile(self.FORWARD_D, strategy="array", params={"n": n})(
            {**env, "cp": cp}
        )
        x_comp = repro.compile(self.BACKWARD, strategy="array",
                               params={"n": n})
        assert x_comp.report.schedule.loop_directions()["i"] == ["backward"]
        x = x_comp({**env, "cp": cp, "dp": dp})
        assert x.to_list() == pytest.approx(true_x)


class TestBinomialPricing:
    """Binomial option pricing: a backward 2-D recurrence over a
    triangular index space handled by guards."""

    LATTICE = """
    letrec* v = array ((0,0),(n,n))
      ([ (n,j) := max (s0 * up j n - strike) 0.0 | j <- [0..n] ] ++
       [ (i,j) := (if j <= i
                   then disc * (p * v!(i+1,j+1) + q * v!(i+1,j))
                   else 0.0)
         | i <- [0..n-1], j <- [0..n] ])
    in v
    """

    def test_backward_induction(self):
        n = 16
        s0, strike = 100.0, 95.0
        u, d = 1.1, 1 / 1.1
        rate = 1.02
        p = (rate - d) / (u - d)
        q = 1 - p
        disc = 1 / rate

        def up(j, steps):
            return (u ** j) * (d ** (steps - j))

        env = {
            "n": n, "s0": s0, "strike": strike,
            "p": p, "q": q, "disc": disc,
            "up": lambda j, steps: up(j, steps),
        }
        compiled = repro.compile(self.LATTICE, strategy="array",
                                 params={"n": n})
        directions = compiled.report.schedule.loop_directions()
        assert directions["i"] == ["backward"]
        result = compiled(env)

        # Plain Python backward induction.
        values = [max(s0 * up(j, n) - strike, 0.0) for j in range(n + 1)]
        for i in range(n - 1, -1, -1):
            values = [
                disc * (p * values[j + 1] + q * values[j])
                for j in range(i + 1)
            ] + [0.0] * (n - i)
        assert result.at((0, 0)) == pytest.approx(values[0])
