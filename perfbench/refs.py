"""Independent references, computed with plain numpy.

Nothing here imports ncergo.  Every job of the benchmark is checked
against one of these functions, so a wrong answer from the program shows
as a failed job rather than as a fast one.
"""

from __future__ import annotations

import hashlib

import numpy as np


def named_stream(seed: int, name: str) -> np.random.Generator:
    """The generator ncergo derives from (seed, name); used only to
    regenerate the inputs of bundled CLI fixtures from their --seed."""
    digest = hashlib.sha256(f"{seed:#x}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# -- rearrangement ------------------------------------------------------------

def steps(blocks, weights):
    """(value, width) pairs of the decreasing rearrangement: per-block
    singular values, sorted descending, each as wide as its block weight."""
    out = []
    for b, w in zip(blocks, weights):
        out.extend((float(s), float(w))
                   for s in np.linalg.svd(b, compute_uv=False) if s > 0)
    out.sort(key=lambda e: -e[0])
    return out


def running_integral(st, s: float) -> float:
    total, edge = 0.0, 0.0
    for v, w in st:
        if edge >= s:
            break
        total += v * (min(edge + w, s) - edge)
        edge += w
    return total


def lp(st, p: float) -> float:
    return sum(w * v ** p for v, w in st) ** (1.0 / p)


def sup(blocks) -> float:
    return max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in blocks)


def step_matches(f, st, rel: float = 1e-9) -> bool:
    """A StepFunction equals the reference rearrangement: same value at the
    middle of every reference interval, same running integral at every
    reference edge, same support."""
    scale = max([v for v, _ in st], default=1.0)
    tol = rel * max(scale, 1.0)
    edge = 0.0
    for v, w in st:
        if abs(f(edge + w / 2) - v) > tol:
            return False
        edge += w
        if abs(f.integral(edge) - running_integral(st, edge)) > tol * max(edge, 1.0):
            return False
    return abs(f.support_end - edge) <= 1e-12 * max(edge, 1.0)


def dominates(big, small, slack: float = 1e-9) -> bool:
    """Weak submajorization decided at the union of both breakpoint sets."""
    points, edge = {0.0}, 0.0
    for _, w in big:
        edge += w
        points.add(edge)
    end_big, edge = edge, 0.0
    for _, w in small:
        edge += w
        points.add(edge)
    points.add(max(end_big, edge) + 1.0)
    return all(running_integral(small, s) <= running_integral(big, s) + slack
               for s in points)


def measure_metric(st) -> float:
    """inf { eps > 0 : mu_eps <= eps } of the rearrangement `st`."""
    best, edge = sum(w for _, w in st), 0.0
    for v, w in st:
        candidate = max(edge, v)
        if candidate < edge + w:
            best = min(best, candidate)
        edge += w
    return best


# -- projections --------------------------------------------------------------

def is_projection(blocks, tol: float = 1e-9) -> bool:
    return all(np.abs(b @ b - b).max() <= tol and np.abs(b - b.conj().T).max() <= tol
               for b in blocks)


def deficiency(blocks, weights) -> float:
    return float(sum(w * (b.shape[0] - np.trace(b).real)
                     for b, w in zip(blocks, weights)))


# -- averages -----------------------------------------------------------------

def cesaro_kernel(z: np.ndarray, n: int) -> np.ndarray:
    """(1 - z^n) / (n (1 - z)), and 1 where z == 1: the n-term Cesàro mean
    of the powers of z."""
    z = np.asarray(z, dtype=complex)
    one = np.abs(z - 1.0) < 1e-13
    safe = np.where(one, 0.5, z)
    k = (1.0 - safe ** n) / (n * (1.0 - safe))
    return np.where(one, 1.0, k)


def conjugation_average(x_blocks, phase_blocks, n):
    """Box average of commuting diagonal-unitary conjugations
    x -> diag(e^{i phi_r}) x diag(e^{-i phi_r}) over exponents below n.
    phase_blocks[r][k] holds the phases of operator r on block k."""
    out = []
    for k, xb in enumerate(x_blocks):
        m = np.ones(xb.shape, dtype=complex)
        for phases, nr in zip(phase_blocks, n):
            ph = phases[k]
            m = m * cesaro_kernel(np.exp(1j * (ph[:, None] - ph[None, :])), max(nr, 1))
        out.append(m * xb)
    return out


def pinching_average(x_blocks, mask_blocks, n):
    """Box average of commuting diagonal pinchings: each is an idempotent
    Hadamard mask M, so (1/n) sum_{m<n} P^m = 1/n + (1 - 1/n) M."""
    out = []
    for k, xb in enumerate(x_blocks):
        m = np.ones(xb.shape)
        for masks, nr in zip(mask_blocks, n):
            nr = max(nr, 1)
            m = m * (1.0 / nr + (1.0 - 1.0 / nr) * masks[k])
        out.append(m * xb)
    return out


def exp_mean(a: complex, t: float) -> complex:
    """(1/t) * integral_0^t e^{a s} ds."""
    if abs(a * t) < 1e-12:
        return 1.0 + 0j
    return (np.exp(a * t) - 1.0) / (a * t)


def unitary_flow_average(x_blocks, gen_blocks, terms, t):
    """Besicovitch average of T_s(x) = e^{isH} x e^{-isH}, H = diag(h), with
    weight sum_l w_l e^{i theta_l s}: entry (j, k) is x_jk times
    sum_l w_l * mean of e^{i (theta_l + h_j - h_k) s}."""
    out = []
    for xb, h in zip(x_blocks, gen_blocks):
        omega = h[:, None] - h[None, :]
        m = np.zeros(xb.shape, dtype=complex)
        for w, th in terms:
            m += w * np.vectorize(lambda om: exp_mean(1j * (th + om), t))(omega)
        out.append(m * xb)
    return out


def interpolation_flow_average(x_blocks, mask_blocks, terms, t):
    """Besicovitch average of T_s(x) = e^{-s} x + (1 - e^{-s}) E(x) for a
    Hadamard-mask expectation E, in closed form."""
    a = sum(w * exp_mean(1j * th - 1.0, t) for w, th in terms)
    b = sum(w * exp_mean(1j * th, t) for w, th in terms)
    return [a * xb + (b - a) * (mk * xb) for xb, mk in zip(x_blocks, mask_blocks)]


# -- the remark 3.2 counterexample -----------------------------------------

def remark32_bounds(n_blocks: int, m: int, cauchy: bool):
    """Tail bounds of the optimal witness at epsilon = 2^-m: the witness
    keeps blocks 1..m, so a tail is 2^m until the partial index reaches m
    and exactly 0 from there on."""
    count = n_blocks - 1 if cauchy else n_blocks
    return [2.0 ** m if i + 1 < m else 0.0 for i in range(count)]


def remark32_deficiency(n_blocks: int, m: int) -> float:
    return 2.0 ** -m - 2.0 ** -n_blocks


def remark32_modulus_fails(n_blocks: int, tol: float = 1e-3) -> bool:
    """Whether the measure-metric Cauchy modulus at the tail of the
    remark32 trace exceeds tol.  The distance between partials a < b is
    the width of the blocks between them, 2^-a - 2^-b (values are huge)."""
    n = n_blocks
    tail = max(0, n - max(2, n // 4) - 1)
    j = min(tail, n - 2)
    return 2.0 ** -(j + 1) - 2.0 ** -n > tol


def cauchy_moduli(elements_blocks, weights):
    """Suffix Cauchy moduli in the measure metric, as max pairwise
    distances over each suffix window."""
    n = len(elements_blocks)
    pair = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            diff = [xa - xb for xa, xb in zip(elements_blocks[a], elements_blocks[b])]
            pair[a, b] = measure_metric(steps(diff, weights))
    return [float(pair[j:, j:].max()) for j in range(n - 1)]


def modulus_at_tail(moduli, n: int) -> float:
    tail = max(0, n - max(2, n // 4) - 1)
    return moduli[min(tail, n - 2)]
