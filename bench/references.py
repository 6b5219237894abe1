"""Closed-form reference values for the benchmark, made apart from jetgeo.

Nothing here imports the engine.  Every formula is written out from the
geometry of the inputs the workloads generate:

* the built-in family, whose metric is g(x, x) = -2F plus constant
  pairings, with F = f(y) + sum_i y^(i+1) z_i and an exponential-sum profile
  f(y) = sum_j a_j exp(c_j y);
* surfaces (S^2, H^2, conformal exp(2u)(dx^2 + dy^2) with quadratic u, and
  the warped dx^2 + exp(2h(x)) dw^2 with h = c x^2), whose curvature levels
  up to k = 2 follow from the Gaussian curvature K alone;
* great circles on the unit sphere.

Index conventions follow the engine's: level-k components carry 4 + k lower
slots, the k derivative slots appended on the right, and the surface
Riemann tensor is R_abcd = K (g_ad g_bc - g_ac g_bd).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


# ------------------------------------------------------------------ family
@dataclass(frozen=True)
class ExpSum:
    """Profile f(y) = sum_j a[j] exp(c[j] y) with every a[j], c[j] > 0."""

    a: tuple[float, ...]
    c: tuple[float, ...]

    def text(self) -> str:
        return " + ".join(f"{a!r}*exp({c!r}*y)" for a, c in zip(self.a, self.c))

    def deriv(self, y: float, n: int) -> float:
        """f^(n)(y), from d^n/dy^n exp(c y) = c^n exp(c y)."""
        return math.fsum(a * c ** n * math.exp(c * y) for a, c in zip(self.a, self.c))


def _fall(n: int, j: int) -> float:
    out = 1.0
    for t in range(j):
        out *= n - t
    return out


def family_coords(p: int) -> tuple[str, ...]:
    z = tuple(f"z{i}" for i in range(p + 1))
    return ("x", "y") + z + ("xbar", "ybar") + tuple(f"zbar{i}" for i in range(p + 1))


def family_point(p: int, y: float, z: Sequence[float]) -> tuple[float, ...]:
    return (0.0, float(y), *map(float, z), 0.0, 0.0, *([0.0] * (p + 1)))


def _big_f_partial(f: ExpSum, p: int, y: float, z: Sequence[float], idx: Sequence[int]) -> float:
    """Mixed partial of F = f(y) + sum_i y^(i+1) z_i over chart indices idx,
    each 1 (y) or 2 + i (z_i).  F is linear in every z_i."""
    zs = [i - 2 for i in idx if i != 1]
    n = len(idx) - len(zs)
    if not zs:
        return f.deriv(y, n) + math.fsum(
            _fall(i + 1, n) * y ** (i + 1 - n) * z[i]
            for i in range(p + 1) if i + 1 >= n
        )
    if len(zs) > 1:
        return 0.0
    i = zs[0]
    return _fall(i + 1, n) * y ** (i + 1 - n) if i + 1 >= n else 0.0


def _pair_images(idx: tuple[int, ...], value: float) -> dict[tuple[int, ...], float]:
    """The eight images of a level component under antisymmetry in slots
    (0,1) and (2,3) and the swap of the two pairs."""
    (a, b, c, d), tail = idx[:4], idx[4:]
    out = {}
    for (p0, p1, p2, p3) in ((a, b, c, d), (c, d, a, b)):
        for s1, (q0, q1) in ((1.0, (p0, p1)), (-1.0, (p1, p0))):
            for s2, (q2, q3) in ((1.0, (p2, p3)), (-1.0, (p3, p2))):
                out[(q0, q1, q2, q3) + tail] = s1 * s2 * value
    return out


def family_level(f: ExpSum, p: int, point: Sequence[float], k: int) -> dict[tuple[int, ...], float]:
    """Level-k components of the family at `point`, zeros omitted.

    The only curvature is R(x, A, B, x; D_1..D_k) = d_A d_B d_D1..d_Dk F for
    A, B, D in {y, z_0..z_p}, closed under the pair symmetries."""
    y = float(point[1])
    z = [float(point[2 + i]) for i in range(p + 1)]
    # F is linear in the z_i, so only index lists with at most one z count
    lists = [(1,) * (k + 2)]
    for i in range(p + 1):
        for s in range(k + 2):
            lists.append((1,) * s + (2 + i,) + (1,) * (k + 1 - s))
    out: dict[tuple[int, ...], float] = {}
    for rest in lists:
        v = _big_f_partial(f, p, y, z, rest)
        if v != 0.0:
            out.update(_pair_images((0, rest[0], rest[1], 0) + rest[2:], v))
    return out


def alpha(f: ExpSum, p: int, y: float) -> float:
    """alpha = f^(p+3) f^(p+5) / (f^(p+4))^2."""
    b = f.deriv(y, p + 4)
    return f.deriv(y, p + 3) * f.deriv(y, p + 5) / (b * b)


def family_energy(f: ExpSum, p: int, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """g(du, du) along sampled positions u (n, m) and velocities du (n, m)."""
    y = u[:, 1]
    big_f = sum(a * np.exp(c * y) for a, c in zip(f.a, f.c))
    for i in range(p + 1):
        big_f = big_f + y ** (i + 1) * u[:, 2 + i]
    q = p + 3
    pairs = sum(du[:, j] * du[:, q + j] for j in range(p + 3))
    return -2.0 * big_f * du[:, 0] ** 2 + 2.0 * pairs


# ---------------------------------------------------------------- surfaces
class Surface:
    """A 2-dimensional metric with closed-form K, dK and Hessian of K."""

    coords: tuple[str, str]
    entries: tuple[str, str]   # diagonal component expressions, engine grammar

    def metric(self, pt: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, pt: Sequence[float]) -> np.ndarray:
        """gam[m, i, j] = Gamma^m_ij."""
        raise NotImplementedError

    def k_jet(self, pt: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
        """K, its gradient, and its plain second partials."""
        raise NotImplementedError

    def curvature_forms(self, pt: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray]:
        """K, dK and the covariant Hessian (nabla dK)_ef = d_e d_f K - Gamma^m_ef d_m K."""
        k, dk, ddk = self.k_jet(pt)
        gam = self.christoffel(pt)
        return k, dk, ddk - np.einsum("mef,m->ef", gam, dk)


class Sphere(Surface):
    """Unit round sphere, chart (theta, phi): K = 1."""

    coords = ("theta", "phi")
    entries = ("1.0", "sin(theta)^2")

    def metric(self, pt):
        return np.diag([1.0, math.sin(pt[0]) ** 2])

    def christoffel(self, pt):
        th = pt[0]
        gam = np.zeros((2, 2, 2))
        gam[0, 1, 1] = -math.sin(th) * math.cos(th)
        gam[1, 0, 1] = gam[1, 1, 0] = math.cos(th) / math.sin(th)
        return gam

    def k_jet(self, pt):
        return 1.0, np.zeros(2), np.zeros((2, 2))


class Hyperbolic(Surface):
    """dx^2 + exp(2x) dy^2: K = -1."""

    coords = ("x", "y")
    entries = ("1.0", "exp(2.0*x)")

    def metric(self, pt):
        return np.diag([1.0, math.exp(2.0 * pt[0])])

    def christoffel(self, pt):
        e = math.exp(2.0 * pt[0])
        gam = np.zeros((2, 2, 2))
        gam[0, 1, 1] = -e
        gam[1, 0, 1] = gam[1, 1, 0] = 1.0
        return gam

    def k_jet(self, pt):
        return -1.0, np.zeros(2), np.zeros((2, 2))


class Conformal(Surface):
    """scale * exp(2u) (dx^2 + dy^2), u = q0 x^2 + q1 x y + q2 y^2 + q3 x + q4 y.

    K = -exp(-2u) (u_xx + u_yy) / scale, and with Laplacian 2 (q0 + q2)
    constant, dK = -2 K du and d_i d_j K = (4 u_i u_j - 2 u_ij) K."""

    def __init__(self, q: Sequence[float], coords=("x", "y"), scale: float = 1.0):
        self.q = tuple(float(v) for v in q)
        self.coords = tuple(coords)
        self.scale = float(scale)
        x, y = self.coords
        q0, q1, q2, q3, q4 = self.q
        u = f"({q0!r}*{x}^2 + {q1!r}*{x}*{y} + {q2!r}*{y}^2 + {q3!r}*{x} + {q4!r}*{y})"
        lead = "" if self.scale == 1.0 else f"{self.scale!r}*"
        self.entries = (f"{lead}exp(2.0*{u})",) * 2

    def _u(self, pt):
        x, y = pt
        q0, q1, q2, q3, q4 = self.q
        u = q0 * x * x + q1 * x * y + q2 * y * y + q3 * x + q4 * y
        du = np.array([2 * q0 * x + q1 * y + q3, q1 * x + 2 * q2 * y + q4])
        ddu = np.array([[2 * q0, q1], [q1, 2 * q2]])
        return u, du, ddu

    def metric(self, pt):
        u, _, _ = self._u(pt)
        return self.scale * math.exp(2.0 * u) * np.eye(2)

    def christoffel(self, pt):
        _, du, _ = self._u(pt)
        d = np.eye(2)
        return (np.einsum("mi,j->mij", d, du) + np.einsum("mj,i->mij", d, du)
                - np.einsum("ij,m->mij", d, du))

    def k_jet(self, pt):
        u, du, ddu = self._u(pt)
        k = -math.exp(-2.0 * u) * (ddu[0, 0] + ddu[1, 1]) / self.scale
        return k, -2.0 * k * du, (4.0 * np.outer(du, du) - 2.0 * ddu) * k


class Warped(Surface):
    """dx^2 + exp(2 c x^2) dw^2: with h = c x^2, K = -(h'' + h'^2)."""

    def __init__(self, c: float, coords=("x", "w")):
        self.c = float(c)
        self.coords = tuple(coords)
        self.entries = ("1.0", f"exp({2.0 * self.c!r}*{self.coords[0]}^2)")

    def metric(self, pt):
        return np.diag([1.0, math.exp(2.0 * self.c * pt[0] ** 2)])

    def christoffel(self, pt):
        x = pt[0]
        hp = 2.0 * self.c * x
        gam = np.zeros((2, 2, 2))
        gam[0, 1, 1] = -hp * math.exp(2.0 * self.c * x * x)
        gam[1, 0, 1] = gam[1, 1, 0] = hp
        return gam

    def k_jet(self, pt):
        c, x = self.c, pt[0]
        k = -(2.0 * c + 4.0 * c * c * x * x)
        ddk = np.zeros((2, 2))
        ddk[0, 0] = -8.0 * c * c
        return k, np.array([-8.0 * c * c * x, 0.0]), ddk


def wedge_form(g: np.ndarray) -> np.ndarray:
    """form[a, b, c, d] = g_ad g_bc - g_ac g_bd, so R = K form."""
    return np.einsum("ad,bc->abcd", g, g) - np.einsum("ac,bd->abcd", g, g)


def surface_levels(surf: Surface, pt: Sequence[float]) -> list[np.ndarray]:
    """Dense levels 0, 1, 2: K form, form (x) dK, form (x) nabla dK."""
    k, dk, hess = surf.curvature_forms(pt)
    form = wedge_form(surf.metric(pt))
    return [k * form, np.einsum("abcd,e->abcde", form, dk),
            np.einsum("abcd,ef->abcdef", form, hess)]


def surface_invariants(k: float) -> dict[str, float]:
    """tau, r2 and ric2 of a surface with Gaussian curvature k."""
    return {"tau": 2.0 * k, "r2": 4.0 * k * k, "ric2": 2.0 * k * k}


# ----------------------------------------------------------- great circles
def great_circle(start: Sequence[float], velocity: Sequence[float], t: np.ndarray) -> np.ndarray:
    """(theta, phi) along the unit-sphere geodesic from `start` with chart
    velocity `velocity`, phi unwrapped continuously from start[1]."""
    th, ph = start
    dth, dph = velocity
    pos = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
    e_th = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
    e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
    vel = dth * e_th + dph * math.sin(th) * e_ph
    speed = float(np.linalg.norm(vel))
    path = (np.cos(speed * t)[:, None] * pos[None, :]
            + np.sin(speed * t)[:, None] * (vel / speed)[None, :])
    theta = np.arccos(np.clip(path[:, 2], -1.0, 1.0))
    phi = np.unwrap(np.arctan2(path[:, 1], path[:, 0]))
    phi += ph - phi[0]
    return np.stack([theta, phi], axis=1)
